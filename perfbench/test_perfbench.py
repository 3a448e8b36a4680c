"""Tests of the benchmark harness itself (no timing, no natpdm workloads run)."""

import sys

import signal
import time

import pytest

import run
import speed
import tracing
from workloads import WORKLOADS, Potential2401, SpectrumMix


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_span_tree():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def mid():
        clock.now += 1.0
        leaf_w()
        clock.now += 0.5
        leaf_w()

    def root():
        clock.now += 3.0
        mid_w()
        clock.now += 4.0

    leaf_w, mid_w, root_w = tr.wrap("leaf", leaf), tr.wrap("mid", mid), tr.wrap("root", root)
    tr.begin_request(7)
    root_w()
    tr.end_request()
    # root [0, 12.5]: mid [3, 8.5] holds leaf [4, 6] and [6.5, 8.5]
    assert tr.calls == {"leaf": 2, "mid": 1, "root": 1}
    assert tr.total == {"leaf": 4.0, "mid": 5.5, "root": 12.5}
    assert tr.self_time == {"leaf": 4.0, "mid": 1.5, "root": 7.0}
    by_name = {}
    for span_id, name, start, end, parent, rid in tr.spans:
        by_name.setdefault(name, []).append((span_id, start, end, parent, rid))
    root_id = by_name["root"][0][0]
    mid_id = by_name["mid"][0][0]
    assert by_name["root"][0][1:] == (0.0, 12.5, -1, 7)
    assert by_name["mid"][0][1:] == (3.0, 8.5, root_id, 7)
    assert [s[1:] for s in by_name["leaf"]] == [(4.0, 6.0, mid_id, 7), (6.5, 8.5, mid_id, 7)]


def test_recursive_span_total_counts_outermost_only():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def fact(n):
        clock.now += 1.0
        return 1 if n == 0 else n * fact_w(n - 1)

    fact_w = tr.wrap("fact", fact)
    assert fact_w(3) == 6
    assert tr.calls["fact"] == 4
    assert tr.total["fact"] == 4.0
    assert tr.self_time["fact"] == 4.0


def test_tracer_keeps_only_the_first_spans():
    tr = tracing.Tracer(keep=3)
    noop = tr.wrap("noop", lambda: None)
    for _ in range(5):
        noop()
    assert tr.n_spans == 5 and len(tr.spans) == 3 and tr.calls["noop"] == 5


@pytest.mark.parametrize("n, index, percentile", [
    (11, 0, 100.0 / 11), (15, 4, 100.0 * 5 / 15), (100, 89, 90.0), (1000, 989, 99.0),
])
def test_tail_has_ten_samples_beyond(n, index, percentile):
    latencies = [float(i) for i in range(n)][::-1]
    value, pct, beyond = run.tail_latency(latencies)
    assert value == float(index)
    assert pct == pytest.approx(percentile)
    assert beyond == 10 and sum(x > value for x in latencies) == 10


@pytest.mark.parametrize("n", [1, 7, 10])
def test_tail_with_too_few_samples_is_the_maximum(n):
    assert run.tail_latency([float(i) for i in range(n)]) == (float(n - 1), 100.0, 0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pool_is_a_function_of_the_seed(name):
    workload = WORKLOADS[name]
    assert workload.pool(5) == workload.pool(5)
    assert workload.pool(5) != workload.pool(6)
    for argv in workload.pool(5):
        # every flag carries its value after '=', so '-12,...' is never read as a flag
        assert all(arg.startswith("--") and "=" in arg for arg in argv[1:])


def run_flag(argv, name):
    return next((a.split("=", 1)[1] for a in argv if a.startswith(f"--{name}=")), None)


@pytest.mark.parametrize("workload", [SpectrumMix(), Potential2401()])
def test_pool_mix_is_the_same_for_every_seed(workload):
    def mix(pool):
        return sorted((run_flag(a, "gamma") == "1", run_flag(a, "mass").split(":")[0],
                       run_flag(a, "ordering"), run_flag(a, "format")) for a in pool)

    assert mix(workload.pool(1)) == mix(workload.pool(2))
    gammas = [run_flag(a, "gamma") for a in workload.pool(1)]
    assert gammas.count("1") * 4 == len(gammas)


def test_potential_pool_is_half_csv_half_json():
    formats = [run_flag(a, "format") for a in Potential2401().pool(3)]
    assert formats.count("csv") == formats.count("json")


class FakeSampler:
    """Wall clock only, reference scale 1."""

    def mark(self):
        return time.perf_counter()

    def window(self, start):
        elapsed = time.perf_counter() - start
        return elapsed, elapsed, 1.0


class FakeCli:
    """Stands in for natpdm.cli: argv[0] picks success or a failure kind."""

    def main(self, argv):
        kind = argv[0]
        if kind == "raise":
            raise RuntimeError("boom")
        if kind == "exit":
            raise SystemExit(2)
        sys.stdout.write(f"report {argv[0]}\n")
        return 1 if kind == "gate" else 0


def test_failing_requests_are_counted_and_stay_in_the_mix():
    cli = FakeCli()
    pool = [["ok"], ["raise"], ["exit"], ["gate"]]
    first = {}
    phase = run.run_phase(cli, pool, 0.2, first, FakeSampler())
    assert len(phase.records) > len(pool)  # failed requests stayed in the mix
    errors = {pool[idx][0]: error for idx, _, _, error, _ in phase.records}
    assert errors["ok"] is None
    assert "RuntimeError: boom" in errors["raise"]
    assert errors["exit"] == "SystemExit(2)"
    assert errors["gate"] == "exit code 1"

    class Checker:
        def check(self, argv, text):
            return {"err": 1.0}

    failures, components = run.check_outputs(Checker(), pool, first, [phase])
    assert len(failures) == sum(error is not None for _, _, _, error, _ in phase.records)
    assert components[0] == {"err": 1.0}


def test_phase_runs_whole_passes_over_the_pool():
    class Cli:
        def main(self, argv):
            time.sleep(0.01)
            return 0

    pool = [["a"], ["b"], ["c"]]
    phase = run.run_phase(Cli(), pool, 0.3, {}, FakeSampler())
    # a pass takes about 0.03 s, so several fit in 0.3 s
    assert [r.idx for r in phase.records] == [0, 1, 2] * (len(phase.records) // 3)
    assert len(phase.records) >= 6
    assert run.run_phase(Cli(), pool, 0.0, {}, FakeSampler()).records[-1].idx == 2


def test_changed_report_bytes_fail_the_repeat():
    outputs = iter(["a\n", "a\n", "b\n"])

    class Cli:
        def main(self, argv):
            sys.stdout.write(next(outputs, "a\n"))
            return 0

    first = {}
    phase = run.run_phase(Cli(), [["x"]], 0.0, first, FakeSampler())
    for _ in range(2):
        phase.records += run.run_phase(Cli(), [["x"]], 0.0, first, FakeSampler()).records

    class Checker:
        def check(self, argv, text):
            return {}

    failures, _ = run.check_outputs(Checker(), [["x"]], first, [phase])
    assert [f["request"] for f in failures] == [2]


def test_patched_wraps_every_binding_and_restores_it():
    from natpdm import numerics, pdmsolver

    original = numerics.lowest_eigenvalues
    assert pdmsolver.lowest_eigenvalues is original
    tr = tracing.Tracer()
    layers = {"numerics": ("lowest_eigenvalues", "no_such_function")}
    with tracing.patched(tr, layers=layers) as missing:
        assert missing == ["numerics.no_such_function"]
        assert numerics.lowest_eigenvalues is not original
        assert pdmsolver.lowest_eigenvalues is numerics.lowest_eigenvalues
    assert numerics.lowest_eigenvalues is original
    assert pdmsolver.lowest_eigenvalues is original


def test_patched_restores_bindings_when_the_body_raises():
    from natpdm import ginocchio, pdmsolver

    original = ginocchio.potential_on_x_grid
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer()):
            assert pdmsolver.potential_on_x_grid is not original
            raise RuntimeError
    assert pdmsolver.potential_on_x_grid is original
    assert ginocchio.potential_on_x_grid is original


def test_speed_sampler_probes_inside_windows_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler(interval=0.005) as sampler:
        start = sampler.mark()
        t_end = time.perf_counter() + 0.1
        while time.perf_counter() < t_end:
            pass
        wall, program, scale = sampler.window(start)
    assert sampler.count > 2
    assert 0.0 < program < wall
    assert scale > 0.0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

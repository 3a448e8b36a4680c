"""natpdm benchmark: closed-loop requests through natpdm.cli.main(argv).

    python3 perfbench/run.py --workload spectrum-mix --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One process pinned to one CPU, one client, no threads: each request
calls ``natpdm.cli.main(argv)`` in-process with stdout captured in
memory, and the next request starts when it returns. The argv pool
comes from the workload seed (workloads.py). Outputs are checked after
the loop. A run is made of whole passes over the pool, so every run
measures the same mix; a pass starts while it is expected to end
within --seconds.

Timed metrics are in reference seconds (speed.py): each request's time,
less the speed probes that ran inside it, scaled by the machine speed
those probes measured. The unscaled values (raw.*) are printed beside
them.

--trace 0 prints the end-to-end metrics. --trace 1 runs the first half
of the window untraced and the second half with every layer function
wrapped (tracing.py), prints per-request layer metrics plus the tracing
overhead, and writes the kept spans to perfbench/out/. The last line of
stdout is the result JSON; the line before it holds the details: metrics
reported without a bound (latency tail with its percentile, failed
fraction, accuracy components, raw times), per-pool-entry errors,
failures and the version stamp.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_PINS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS")}
SETUP_REPEATS = 5
TAIL_BEYOND = 10


def tail_latency(latencies):
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond). With TAIL_BEYOND samples
    or fewer no such percentile exists, and the maximum is returned with 0
    samples beyond it.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1  # xs[k + 1:] holds the TAIL_BEYOND larger samples
    return xs[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def import_cli():
    if not (SRC / "natpdm" / "cli.py").is_file():
        raise SystemExit(f"natpdm sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    from natpdm import cli
    return cli


def measure_setup_s(sampler):
    """Fresh interpreters up to `import natpdm.cli` done: median (reference s, raw s).

    The child shares the benchmark's CPU, so the probes pause it and their
    time comes off its time, as for a request.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-c", "import natpdm.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)  # writes bytecode
    ref, raw = [], []
    for _ in range(SETUP_REPEATS):
        start = sampler.mark()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        _, program_s, scale = sampler.window(start)
        raw.append(program_s)
        ref.append(program_s * scale)
    return statistics.median(ref), statistics.median(raw)


def version_stamp():
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "thread_pins": THREAD_PINS,
    }


class Record(NamedTuple):
    idx: int  # position in the pool
    raw_s: float  # wall time less the probes that ran inside it
    ref_s: float  # raw_s in reference seconds
    error: str | None
    digest: str  # sha256 of the captured stdout


class Phase:
    """One closed-loop window of requests."""

    def __init__(self):
        self.records = []
        self.wall_s = 0.0

    def ok(self, field):
        """`field` of the successful requests, or of all when none succeeded."""
        ok = [getattr(r, field) for r in self.records if r.error is None]
        return ok or [getattr(r, field) for r in self.records]

    def total(self, field):
        return sum(getattr(r, field) for r in self.records)


def run_phase(cli, pool, seconds, first, sampler, tracer=None):
    """Whole passes over `pool` for about `seconds`; `first` maps pool index -> (digest, text).

    Each pass runs every pool entry once, so every run measures the same
    mix whatever the speed of the host or of the code. Another pass
    starts only while it is expected, at the mean pass time so far, to
    end within `seconds`; the first pass always runs.
    """
    phase = Phase()
    t_start = time.perf_counter()
    passes = 0
    while passes == 0 or phase.wall_s * (passes + 1) / passes <= seconds:
        for idx, argv in enumerate(pool):
            out = io.StringIO()
            if tracer is not None:
                tracer.begin_request(len(phase.records))
            start = sampler.mark()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(list(argv))
                error = None if code == 0 else f"exit code {code}"
            except SystemExit as exc:
                error = f"SystemExit({exc.code!r})"
            except Exception:  # a crashing request is counted as failed, never fatal
                error = traceback.format_exc(limit=3)
            _, raw_s, scale = sampler.window(start)
            if tracer is not None:
                tracer.end_request()
            text = out.getvalue()
            digest = hashlib.sha256(text.encode()).hexdigest()
            first.setdefault(idx, (digest, text))
            phase.records.append(Record(idx, raw_s, raw_s * scale, error, digest))
        passes += 1
        phase.wall_s = time.perf_counter() - t_start
    return phase


def check_outputs(workload, pool, first, phases):
    """Check each distinct report once, then every response against it.

    Returns (failures, per-index error components).
    """
    from workloads import CheckFailed

    verdicts = {}
    for idx, (_, text) in first.items():
        try:
            verdicts[idx] = workload.check(pool[idx], text)
        except (CheckFailed, KeyError, IndexError, TypeError, ValueError) as exc:
            verdicts[idx] = CheckFailed(f"{type(exc).__name__}: {exc}")
    failures = []
    for p, phase in enumerate(phases):
        for n, r in enumerate(phase.records):
            error = r.error
            if error is None and isinstance(verdicts[r.idx], CheckFailed):
                error = str(verdicts[r.idx])
            if error is None and r.digest != first[r.idx][0]:
                error = "report differs from the first response to the same argv"
            if error is not None:
                failures.append({"phase": p, "request": n, "argv": pool[r.idx],
                                 "error": error})
    components = {idx: v for idx, v in verdicts.items() if not isinstance(v, CheckFailed)}
    return failures, components


def run(workload_name, seed, seconds, trace):
    # these modules import numpy, so they load after main() pins the threads
    from workloads import WORKLOADS

    cli = import_cli()
    import speed
    import tracing

    stamp = version_stamp()
    # one CPU for the benchmark and its children, so probes and work share it
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    workload = WORKLOADS[workload_name]
    pool = workload.pool(seed)
    first = {}
    details = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
               "cpu": cpu, "pool": pool}
    with speed.SpeedSampler() as sampler:
        setup_s, setup_raw_s = measure_setup_s(sampler)
        if trace:
            untraced = run_phase(cli, pool, seconds / 2.0, first, sampler)
            tracer = tracing.Tracer(clock=sampler.clock)
            with tracing.patched(tracer) as missing:
                traced = run_phase(cli, pool, seconds / 2.0, first, sampler, tracer)
            phases = [untraced, traced]
        else:
            phases = [run_phase(cli, pool, seconds, first, sampler)]
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{workload_name}-seed{seed}.csv"
        tracer.write_spans(spans_file)
        overhead = statistics.median(traced.ok("ref_s")) - statistics.median(untraced.ok("ref_s"))
        scale = traced.total("ref_s") / traced.total("raw_s")
        metrics = tracing.layer_metrics(tracer, len(traced.records), scale)
        metrics["trace.overhead_s"] = (overhead, "s")
        details.update({
            "spans_file": str(spans_file.relative_to(ROOT)), "spans_kept": len(tracer.spans),
            "spans_total": tracer.n_spans, "layers_missing": missing,
            "layers_never_fired": tracing.unfired(tracer),
            "hook_errors": sorted(tracer.hook_errors),
        })

    failures, components = check_outputs(workload, pool, first, phases)
    attempted = sum(len(p.records) for p in phases)
    failed = len(failures)

    if not trace:
        phase = phases[0]
        n_ok = attempted - failed
        latencies, raw = phase.ok("ref_s"), phase.ok("raw_s")
        tail, tail_pct, beyond = tail_latency(latencies)
        errs = {}
        for idx in workload.err_scope(pool):
            for name, value in components.get(idx, {}).items():
                errs[name] = max(value, errs.get(name, value))
        metrics = {
            "latency_p50_s": (statistics.median(latencies), "s"),
            "throughput_rps": (n_ok / phase.total("ref_s"), "1/s"),
            "ok_frac": (n_ok / attempted, "frac"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "err_over_gate_max": (max((v / workload.GATES[name] for name, v in errs.items()),
                                      default=math.nan), "ratio"),
            "setup_s": (setup_s, "s"),
        }
        # reported without a bound: a 40 s window holds only 4-8 spectrum or
        # verify requests, too few for a steady tail
        extra = {
            "latency_tail_s": (tail, "s"),
            "latency_tail_percentile": (tail_pct, "%"),
            "latency_tail_samples_beyond": (beyond, "count"),
            "latency_samples": (len(latencies), "count"),
            "failed_frac": (failed / attempted, "frac"),
            **{name: (value, "abs") for name, value in sorted(errs.items())},
            "raw.latency_p50_s": (statistics.median(raw), "s"),
            "raw.latency_tail_s": (tail_latency(raw)[0], "s"),
            "raw.throughput_rps": (n_ok / phase.total("raw_s"), "1/s"),
            "raw.setup_s": (setup_raw_s, "s"),
        }
        details.update({
            "extra_metrics": _metric_dict(extra),
            "err_components": {str(idx): components.get(idx) for idx in range(len(pool))},
        })
    details.update({"failures": failures[:5], "stamp": stamp,
                    "phase_wall_s": [p.wall_s for p in phases]})
    print(json.dumps(details))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _metric_dict(metrics),
    }
    print(json.dumps(result))


def _metric_dict(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_all(seed, seconds):
    """Every workload, untraced then traced, as one table on stdout."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            *_, detail_line, result_line = proc.stdout.splitlines()
            result, details = json.loads(result_line), json.loads(detail_line)
            status |= 0 if result["correct"] else 1
            print(f"# {name} trace={trace} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for metric, entry in {**result["metrics"],
                                  **details.get("extra_metrics", {})}.items():
                print(f"{name:16s} {metric:48s} {entry['value']:<24.6g} {entry['unit']}")
    return status


def main(argv=None):
    os.environ.update(THREAD_PINS)  # before numpy loads its BLAS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")
    run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())

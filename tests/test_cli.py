import argparse
import contextlib
import csv
import importlib
import io
import json
import math
import os
import pkgutil
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import natpdm
from natpdm import cli, ginocchio, numerics, pdmsolver
from natpdm.masses import MASS_REGISTRY, parse_mass
from natpdm.natanzon import OrderingParams
from natpdm.numerics import Grid

RANGE_ENDS = [f"{name}:{end!r}" for name, (_, ends) in MASS_REGISTRY.items() for end in ends]


def edge(base: float, step: int, sign: float) -> float:
    """base, or the float next to it above (step 1) or below (step -1), with sign."""
    return sign * (math.nextafter(base, step * math.inf) if step else base)


# powers of two and ten, the floats next to them, and integers at or above
# 2^53: exact 17-digit ties, repr's narrower gap below a power of two, and
# the decimal exponent's boundaries
EDGES = st.builds(
    edge,
    st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e))
    | st.integers(-323, 308).map(lambda k: float(f"1e{k}"))
    | st.integers(2 ** 53, 2 ** 70).map(float),
    st.sampled_from([0, 1, -1]), st.sampled_from([1.0, -1.0]))
# every double class: nan, +-inf, -0.0, subnormals, 1e+-300, and the edges
DOUBLES = st.floats() | EDGES | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.5e-320, 1e-300, -1e300, 1e16, 0.1])
SINGLES = st.floats(width=32) | st.sampled_from([math.nan, math.inf, -0.0, 1e-45, 3e38])


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    cols = {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header)}
    return header, cols


class TestMap:
    def test_default_grid(self, capsys):
        code, out, _ = run_cli(["map"], capsys)
        assert code == 0
        header, cols = parse_csv(out)
        assert header == ["z_re", "z_im", "w_re", "w_im", "cr_residual"]
        mod = np.hypot(cols["w_re"], cols["w_im"])
        assert np.max(mod) <= 1.0 + 1e-12
        assert np.max(cols["cr_residual"]) <= 1e-8

    def test_band_corner_maps_to_one(self, capsys):
        _, out, _ = run_cli(["map"], capsys)
        _, cols = parse_csv(out)
        corner = (np.abs(cols["z_re"] - math.pi / 4) < 1e-12) & (cols["z_im"] == 0.0)
        assert corner.any()
        assert abs(cols["w_re"][corner][0] - 1.0) < 1e-12
        assert abs(cols["w_im"][corner][0]) < 1e-12


class TestPotential:
    def test_closed_form_column(self, capsys):
        code, out, _ = run_cli(
            ["potential", "--gamma", "1", "--j", "2", "--mass", "constant",
             "--grid=-6,6,401"], capsys)
        assert code == 0
        header, cols = parse_csv(out)
        assert header == ["x", "m", "mu", "u", "z", "V_hyp", "V_poly", "Um", "V_total"]
        expected = -6.0 / np.cosh(math.sqrt(2.0) * cols["x"]) ** 2
        assert np.max(np.abs(cols["V_total"] - expected)) < 1e-10
        assert np.all((cols["z"] >= 0.0) & (cols["z"] < 1.0))
        assert np.max(np.abs(cols["V_hyp"] - cols["V_poly"])) < 1e-12

    def test_deterministic_reruns(self, capsys):
        args = ["potential", "--gamma", "0.9", "--j", "2", "--mass", "rational:2.0",
                "--grid=-4,4,101"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["potential", "--grid=-2,2,21", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) >= {"x", "V_total", "gamma", "j"}
        assert len(payload["x"]) == 21

    def test_csv_header_and_json_keys_name_the_same_columns(self, capsys):
        columns = ["x", "m", "mu", "u", "z", "V_hyp", "V_poly", "Um", "V_total"]
        args = ["potential", "--gamma=0.8", "--mass=rational:2", "--grid=-2,2,21"]
        _, out, _ = run_cli(args, capsys)
        header, _ = parse_csv(out)
        _, out, _ = run_cli([*args, "--format=json"], capsys)
        payload = json.loads(out)
        assert header == columns
        assert sorted(payload) == sorted([*columns, "gamma", "j", "mass"])
        assert all(len(payload[name]) == 21 for name in columns)

    @settings(max_examples=100, deadline=None)
    @given(table=st.integers(1, 6).flatmap(lambda width: st.lists(
        st.tuples(*[DOUBLES] * width), max_size=20).map(lambda rows: (width, rows))))
    def test_csv_text_matches_the_csv_module(self, table):
        # reference: the csv module with one 17-digit cell at a time
        width, rows = table
        columns = [np.array([row[i] for row in rows], dtype=float) for i in range(width)]
        # the map command passes a column as a list
        columns[-1] = columns[-1].tolist()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = tuple("abcdef"[:width])
        writer.writerow(header)
        writer.writerows([f"{float(v):.17g}" for v in row] for row in rows)
        assert cli._csv_text(dict(zip(header, columns))) == buf.getvalue()

    def test_large_u_round_trip(self, capsys):
        # gamma = 6 drives |u| past 355 on the default box, where sinh^2 u
        # overflows; the tabulated u must still map back onto mu
        code, out, err = run_cli(
            ["potential", "--gamma=6", "--grid=-12,12,101", "--format=json"], capsys)
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        u, mu = np.array(payload["u"]), np.array(payload["mu"])
        assert np.max(np.abs(u)) > 355.0
        assert np.max(np.abs(ginocchio.mu_closed_form(6.0, u) - mu)) < 1e-10
        assert np.max(np.abs(np.array(payload["V_hyp"]) - np.array(payload["V_poly"]))) < 1e-10


def oracle_clean(obj):
    """The two-pass JSON route: a copy of obj for json.dumps, nan/inf -> None,
    numpy scalars -> Python ones, arrays -> lists."""
    if isinstance(obj, np.ndarray):
        return oracle_clean(obj.tolist())
    if isinstance(obj, dict):
        return {k: oracle_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [oracle_clean(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def oracle_json_text(obj):
    return json.dumps(oracle_clean(obj), sort_keys=True, indent=2) + "\n"


JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | DOUBLES | st.text()
    | st.builds(np.bool_, st.booleans())
    | st.builds(np.int64, st.integers(-2 ** 63, 2 ** 63 - 1))
    | st.builds(np.int32, st.integers(-2 ** 31, 2 ** 31 - 1))
    | st.builds(np.float64, DOUBLES) | st.builds(np.float32, SINGLES)
    | st.lists(DOUBLES, max_size=12).map(np.array)
    | st.lists(SINGLES, max_size=6).map(lambda v: np.array(v, dtype=np.float32))
    | st.lists(st.integers(-2 ** 40, 2 ** 40), max_size=6).map(np.array)
    | st.lists(st.booleans(), max_size=6).map(np.array)
    | st.lists(DOUBLES, min_size=4, max_size=4).map(lambda v: np.array(v).reshape(2, 2))
    # a table: float columns of one length, as a potential report holds
    | st.dictionaries(st.text(), st.lists(DOUBLES, min_size=5, max_size=5).map(np.array),
                      max_size=4))
JSON_PAYLOADS = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=40)


class TestJsonText:
    @settings(max_examples=120, deadline=None)
    @given(payload=JSON_PAYLOADS)
    def test_matches_json_dumps_of_the_cleaned_copy(self, payload):
        assert cli._json_text(payload) == oracle_json_text(payload)

    def test_potential_table_matches_json_dumps(self, capsys):
        grid = Grid(-12.0, 12.0, 2401)
        code, out, _ = run_cli(["potential", "--gamma=0.8", "--j=2", "--mass=rational:2",
                                "--ordering=-0.5,0", "--grid=-12,12,2401", "--format=json"],
                               capsys)
        assert code == 0
        table = ginocchio.potential_on_x_grid(0.8, 2.0, parse_mass("rational:2"),
                                              OrderingParams(-0.5, 0.0), grid, tol=1e-10)
        payload = {**table, "gamma": 0.8, "j": 2.0, "mass": "rational:2"}
        assert out == oracle_json_text(payload)

    def test_refuses_what_json_refuses(self):
        with pytest.raises(TypeError):
            cli._json_text({"a": [object()]})


# the classes the float-text kernel writes apart, each checked on its own
FLOAT_TEXT_CASES = {
    "zero": [0.0, -0.0],
    "non-finite": [math.nan, math.inf, -math.inf],
    # subnormals go to Python's formatter; the smallest normal does not
    "subnormal": [5e-324, -5e-324, 2.5e-320, 6.002953641685533e-309,
                  math.nextafter(2.2250738585072014e-308, 0.0)],
    "smallest normal": [2.2250738585072014e-308, -2.2250738585072014e-308],
    # repr's gap below a power of two is half its gap above
    "power of two": [2.0 ** -44, 2.0 ** 64, -(2.0 ** -1019)],
    # fixed below 1 down to 1e-4 in both formats
    "switch at 1e-4": [math.nextafter(1e-5, 0.0), 1e-05, 1.0000000000000001e-05,
                       math.nextafter(1e-4, 0.0), 0.0001],
    # repr is fixed below 1e16, "%.17g" below 1e17
    "switch at 1e16": [math.nextafter(1e16, 0.0), 1e16, math.nextafter(1e16, math.inf)],
    "switch at 1e17": [math.nextafter(1e17, 0.0), 1e17, math.nextafter(1e17, math.inf)],
    # values whose 17-digit rounding is an exact tie, half to even:
    # 2^-25 = 2.98023223876953125e-08 and 1921923241181859.25
    "17-digit tie": [2.0 ** -25, -(2.0 ** -25), 1921923241181859.2],
    # 701566106482029.25 and 773472867159172.75: both 16-digit neighbours
    # read back, equally near, and repr takes the even one
    "16-digit tie": [701566106482029.2, 773472867159172.8],
}


def python_text(value: float, fmt: str) -> str:
    if fmt == "repr":
        return float.__repr__(value) if math.isfinite(value) else "null"
    return "%.17g" % value


class TestFloatText:
    @pytest.mark.parametrize("fmt", ["%.17g", "repr"])
    @pytest.mark.parametrize("case", FLOAT_TEXT_CASES)
    def test_matches_python_on_each_class(self, case, fmt):
        values = FLOAT_TEXT_CASES[case]
        assert [cli._float_text(np.array([v]), fmt, ",", "\n") for v in values] \
            == [python_text(v, fmt) for v in values]

    @pytest.mark.parametrize("fmt", ["%.17g", "repr"])
    def test_every_class_in_one_table(self, fmt):
        values = [v for case in FLOAT_TEXT_CASES.values() for v in case]
        values += [0.1, 100.0, 1e23, 123456789012345678.0, -1.5e300]
        table = np.array(values + values[:len(values) % 2]).reshape(-1, 2)
        want = "\n".join(",".join(python_text(v, fmt) for v in row) for row in table.tolist())
        assert cli._float_text(table, fmt, ",", "\n") == want


class TestSpectrum:
    def test_report_and_gates(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--gamma", "1", "--j", "2", "--grid=-11,11,901"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) >= {"gamma", "j", "ordering", "energies_numeric",
                                "energies_eq27", "energies_eq34", "residuals",
                                "best_fit_index_map", "mass_independence"}
        nums = payload["energies_numeric"]
        assert nums[0] == pytest.approx(-4.0, abs=1e-3)
        assert nums[1] == pytest.approx(-1.0, abs=1e-3)
        assert payload["energies_eq34"][0] == -4.0
        assert payload["best_fit_index_map"]["alpha"] == 2
        gates = {g["name"]: g for g in payload["gates"]}
        assert gates["coverage"]["passed"] and gates["coverage"]["measured"] >= 1

    def test_report_is_the_verify_spectrum_dict(self, capsys):
        # one name per quantity: the CLI adds the gates and nothing else
        code, out, _ = run_cli(["spectrum", "--gamma=0.8", "--j=2", "--mass=rational:2",
                                "--ordering=-0.5,0", "--grid=-12,12,401"], capsys)
        assert code == 0
        printed = json.loads(out)
        del printed["gates"]
        report = pdmsolver.verify_spectrum(0.8, 2.0, parse_mass("rational:2"),
                                           OrderingParams(-0.5, 0.0), Grid(-12.0, 12.0, 401))
        assert None in printed["energies_eq27"]  # a nan of the report prints as null
        assert printed == json.loads(cli._json_text(report))

    @pytest.mark.parametrize("args", [
        ["spectrum", "--gamma=1e-8", "--grid=-12,12,201"],
        ["spectrum", "--gamma=0.05", "--j=2"],
    ])
    def test_no_level_compared_fails_coverage(self, args, capsys):
        # no numeric level is matched to an analytic one, so no other gate
        # judges a level: the run must fail, not pass on no evidence
        code, out, _ = run_cli(args, capsys)
        assert code == 1
        coverage = json.loads(out)["gates"][0]
        assert coverage["name"] == "coverage"
        assert coverage["measured"] == 0
        assert coverage["passed"] is False

    @pytest.mark.parametrize("ordering", ["1,1,1", "0,-1,0"])
    def test_three_ordering_values_refused(self, ordering, capsys):
        # rho follows from eta and epsilon; a third value is refused even
        # when the three sum to -1
        code, out, err = run_cli(["spectrum", f"--ordering={ordering}"], capsys)
        assert code == 2 and out == ""
        assert "'eta,epsilon'" in err


class TestVerify:
    def test_subset_and_seeded_determinism(self, capsys):
        code1, out1, _ = run_cli(["verify", "--only", "conformal", "--seed", "5"], capsys)
        code2, out2, _ = run_cli(["verify", "--only", "conformal", "--seed", "5"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert list(payload["modules"]) == ["conformal"]
        assert payload["hard_gates_passed"] is True
        assert payload["seed"] == 5

    def test_reports_informational_findings(self, capsys):
        code, out, _ = run_cli(["verify", "--only", "algebra"], capsys)
        assert code == 0
        payload = json.loads(out)
        checks = {c["name"]: c for c in payload["modules"]["algebra"]["checks"]}
        assert checks["constraint_a_constant_value"]["kind"] == "info"
        assert checks["constraint_a_constant_value"]["measured"] == pytest.approx(
            1.0, abs=1e-8)


class TestMassRange:
    @pytest.mark.parametrize("mass", RANGE_ENDS)
    def test_range_ends_give_finite_output(self, mass, capsys):
        # a RuntimeWarning fails the suite, so this also checks that none is raised
        code, out, err = run_cli(["potential", f"--mass={mass}", "--format=json"], capsys)
        assert code == 0 and err == ""
        payload = json.loads(out)
        for name in ("m", "mu", "u", "z", "V_hyp", "V_poly", "Um", "V_total"):
            assert np.all(np.isfinite(np.array(payload[name], dtype=float))), name
        code, out, err = run_cli(["spectrum", f"--mass={mass}"], capsys)
        assert code in (0, 1) and err == ""
        report = json.loads(out)
        assert all(math.isfinite(e) for e in report["energies_numeric"])

    @pytest.mark.parametrize("mass", ["constant", "rational:2", "exponential-well:0.5"])
    def test_grid_near_the_double_range(self, mass, capsys):
        # the masses stay finite out to |x| = 1e300; so many cells this wide
        # bind no level, and the run ends on the coverage gate
        code, out, err = run_cli(["spectrum", "--grid=-1e300,1e300,11", f"--mass={mass}"],
                                 capsys)
        assert code in (0, 1) and err == ""
        assert json.loads(out)["gates"]

    @pytest.mark.parametrize("mass", RANGE_ENDS)
    def test_spacing_at_the_bound(self, mass, capsys):
        # at the registry's mass floor the largest matrix entry 1/(m h^2)
        # reaches sqrt(DBL_MAX) at the refined spacing h = SPACING_MIN;
        # 11 points on [-L, L] give h = L/10
        for factor, codes in ((1.0 - 1e-12, (2,)), (1.0 + 1e-12, (0, 1))):
            half_width = 10.0 * cli.SPACING_MIN * factor
            code, _, err = run_cli(["spectrum", f"--grid={-half_width!r},{half_width!r},11",
                                    f"--mass={mass}"], capsys)
            assert code in codes, factor
            assert (err == "") == (code != 2)
        code, _, err = run_cli(["spectrum", "--grid=-1e-70,1e-70,11", f"--mass={mass}"],
                               capsys)
        assert code == 1 and err == ""


class TestInversionFailures:
    @pytest.mark.parametrize("grid", ["-1e308,1e307,5", "-1.7e308,0,3"])
    def test_potential_near_the_double_range(self, grid, capsys):
        # midpoints of such cells, and 2|u| far out, overflowed with a
        # RuntimeWarning, which the suite turns into an error
        code, _, err = run_cli(["potential", f"--grid={grid}"], capsys)
        assert code in (0, 3)
        assert "Warning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["potential", "spectrum"])
    def test_no_finite_u_exits_three(self, command, capsys):
        # gamma^2 mu overflows the bracket for u: no finite u exists
        code, _, err = run_cli([command, "--gamma=1e6", "--grid=-1e300,1e300,11"], capsys)
        assert code == 3
        assert err.startswith("coordinate inversion failed")
        assert "Traceback" not in err

    @pytest.mark.parametrize("args", [
        ["potential", "--grid=-2,2,11"],
        ["spectrum", "--grid=-2,2,41"],
        ["verify", "--only", "ginocchio"],
    ], ids=["potential", "spectrum", "verify"])
    def test_quadrature_failure_exits_three(self, args, monkeypatch, capsys):
        def fail(*args):
            raise numerics.ToleranceNotMet("budget exhausted")

        monkeypatch.setattr(numerics, "integrate", fail)
        code, _, err = run_cli(args, capsys)
        assert code == 3
        assert err.startswith("coordinate inversion failed")


class TestSolverFailures:
    @pytest.mark.parametrize("kind", ["nonfinite", "certificate", "missing"])
    @pytest.mark.parametrize("args", [
        ["spectrum", "--grid=-12,12,201"],
        ["verify", "--only", "pdmsolver"],
    ], ids=["spectrum", "verify"])
    def test_exit_code_four(self, args, kind, break_dstebz, capsys):
        break_dstebz(kind)
        code, _, err = run_cli(args, capsys)
        assert code == 4
        assert err.startswith("solver failure")
        assert "Traceback" not in err

    def test_spectrum_does_not_load_scipy(self):
        # importing scipy.linalg would nearly double the peak RSS of a run,
        # and numpy.polynomial adds about 1.2 MB to it
        script = ("import contextlib, io, sys\n"
                  "from natpdm import cli\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    code = cli.main(['spectrum', '--grid=-12,12,201'])\n"
                  "print(code, 'scipy' in sys.modules, 'numpy.polynomial' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(natpdm.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, check=True, env=env).stdout
        assert out.split() == ["0", "False", "False"]


class TestOversizedGrid:
    @pytest.mark.parametrize("command, grid", [("potential", "-12,12,1000000000"),
                                               ("spectrum", "-12,12,400000000")])
    def test_memory_error_exits_two_naming_the_grid(self, command, grid):
        # the 2 GiB address-space limit holds in the child alone, so the
        # 7.45 and 5.96 GiB grid arrays fail to allocate instead of paging
        def limit_address_space():
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            soft = 2 * 2 ** 30 if hard == resource.RLIM_INFINITY else min(2 * 2 ** 30, hard)
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

        env = dict(os.environ, PYTHONPATH=str(Path(natpdm.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "natpdm.cli", command, f"--grid={grid}"],
                              capture_output=True, text=True, env=env,
                              preexec_fn=limit_address_space)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"config error: grid {grid} needs more memory than can be allocated\n"


class TestConfigErrors:
    @pytest.mark.parametrize("args", [
        ["potential", "--gamma", "-1"],
        ["potential", "--grid", "5,1,100"],
        ["potential", "--grid", "0,1"],
        ["potential", "--mass", "nosuch"],
        ["spectrum", "--tol", "nosuch=1"],
        ["spectrum", "--tol", "quad"],
        ["verify", "--only", "nosuch"],
        ["spectrum", "--j", "-2"],
        ["potential", "--gamma", "nan"],
        ["potential", "--gamma", "inf"],
        ["spectrum", "--j", "inf"],
        ["potential", "--j", "nan"],
        ["spectrum", "--tol", "quad=-1"],
        ["spectrum", "--tol", "eig=1e-3"],
        ["spectrum", "--grid=1,12,201"],
        ["spectrum", "--grid=-12,12,4"],
        ["spectrum", "--j", "1e6"],
        ["potential", "--grid=-inf,12,11"],
        ["spectrum", "--ordering", "nan,0"],
        ["potential", "--mass=rational:nan"],
        ["potential", "--mass=rational:inf"],
        ["potential", "--mass=exponential-well:inf"],
        ["potential", "--gamma=1e100", "--grid=-12,12,11"],
        ["potential", "--gamma=1e200", "--grid=-12,12,11"],
        ["potential", "--gamma=1e-100", "--grid=-12,12,11"],
        ["potential", "--mass=rational:1e-300", "--grid=-2,2,11"],
        ["potential", "--mass=constant:1e-300", "--grid=-2,2,11"],
        ["spectrum", "--mass=rational:1e300", "--grid=-2,2,41"],
        ["potential", "--grid=-1e308,1e308,11"],
        ["spectrum", "--grid=-1e-300,1e-300,11"],
        ["spectrum", "--grid=-1e-150,1e-150,11"],
        ["spectrum", "--grid=-1e-100,1e-100,11"],
        ["spectrum", "--grid=-1e-77,1e-77,11"],
        ["spectrum", "--grid=-1e-74,1e-74,11", "--mass=constant:1e-6"],
        ["spectrum", "--grid=-5e-324,5e-324,3"],
        ["potential", "--ordering=0,-1000000.5", "--mass=rational:2"],
        ["potential", "--j=1e300", "--grid=-1,1,3"],
        ["verify", "--seed=-1", "--only", "conformal"],
        ["potential", "--ordering=1e300,0"],
        ["spectrum", "--ordering=-1e300,0", "--mass=exponential-well:1"],
        ["potential", "--j=1000000.5"],
    ])
    def test_exit_code_two(self, args, capsys):
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert err.strip()

    def test_removed_assembly_flag_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["potential", "--assembly", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("values", [{"gama": 3}, {"assembly": "v_only"},
                                        {"config": "other.json"}],
                             ids=["misspelt", "removed", "config"])
    def test_unknown_config_key(self, tmp_path, capsys, values):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        code, out, err = run_cli(["potential", "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert repr(next(iter(values))) in err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"gamma": 0.9, "j": 2, "grid": "-2,2,21"}))
        code, out, _ = run_cli(
            ["potential", "--config", str(cfg), "--gamma", "1.0"], capsys)
        assert code == 0
        _, cols = parse_csv(out)
        # gamma flag overrides the file: with gamma = 1 and m = 1 at the
        # centre, V_total(0) = -j(j+1)
        mid = len(cols["x"]) // 2
        assert cols["V_total"][mid] == pytest.approx(-6.0, abs=1e-10)

    @pytest.mark.parametrize("text", ["{not json", '{"tol": 5}'],
                             ids=["not-json", "tol-not-object"])
    def test_bad_config_file(self, tmp_path, capsys, text):
        cfg = tmp_path / "broken.json"
        cfg.write_text(text)
        code, _, err = run_cli(["potential", "--config", str(cfg)], capsys)
        assert code == 2

    @pytest.mark.parametrize("args,values,key", [
        (["verify", "--only=conformal"], {"seed": 1.5}, "seed"),
        (["verify", "--only=conformal"], {"seed": 3.0}, "seed"),
        (["verify", "--only=conformal"], {"seed": True}, "seed"),
        (["potential", "--grid=-1,1,5"], {"gamma": True, "j": False}, "gamma"),
        (["potential", "--grid=-1,1,5"], {"j": False}, "j"),
    ], ids=["seed-float", "seed-integral-float", "seed-true", "gamma-true-j-false",
            "j-false"])
    def test_config_values_read_as_flags(self, args, values, key, tmp_path, capsys):
        # --seed=1.5, --seed=3.0 and --gamma=true exit 2, so a config
        # file's 1.5, 3.0 and true do too, instead of running seed 1,
        # seed 3 or gamma 1.0
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        code, out, err = run_cli([*args, "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"config error: {key} ")

    @pytest.mark.parametrize("key,command", [
        ("gamma", "potential"), ("j", "potential"), ("ordering", "potential"),
        ("mass", "potential"), ("grid", "potential"), ("format", "potential"),
        ("only", "verify"), ("seed", "verify"), ("output", "map"),
    ])
    def test_null_config_value_refused(self, key, command, tmp_path, capsys):
        # null is no flag's text: {"only": null} must not run all five suites
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: None}))
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"config error: {key} ")

    @pytest.mark.parametrize("command,name,value", [
        ("verify", "seed", 1.5), ("potential", "gamma", "x"), ("potential", "format", "xml"),
        ("verify", "only", "nosuch"), ("potential", "ordering", "0,0,-1"),
    ])
    def test_flag_and_config_value_read_alike(self, command, name, value, tmp_path, capsys):
        # one reader per flag: the command line's text and the file's value
        # fail with the same message
        flag_result = run_cli([command, f"--{name}={value}"], capsys)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({name: value}))
        file_result = run_cli([command, "--config", str(cfg)], capsys)
        assert flag_result == file_result
        code, out, err = flag_result
        assert code == 2 and out == ""
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            ["potential", "--grid=-1,1,11", "--output", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("x,m,mu,u,z")

    def test_output_file_from_config(self, tmp_path, capsys):
        target = tmp_path / "x.csv"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"output": str(target), "grid": "-1,1,11"}))
        code, out, _ = run_cli(["potential", "--config", str(cfg)], capsys)
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("x,m,mu,u,z")


# the flags each command takes and the --tol names it reads, written out
# here apart from cli.COMMANDS so the tests check that declaration
SURFACE = {
    "map": ({"config", "output"}, set()),
    "potential": ({"gamma", "j", "ordering", "mass", "grid", "format", "tol", "config",
                   "output"}, {"quad"}),
    "spectrum": ({"gamma", "j", "ordering", "mass", "grid", "tol", "config", "output"},
                 {"quad", "spectrum_gate", "eq27_vs_eq34_gate", "mass_independence_gate"}),
    "verify": ({"tol", "only", "seed", "config", "output"}, {"quad", "mass_independence_gate"}),
}
ALL_FLAGS = sorted(set().union(*(flags for flags, _ in SURFACE.values())))
ALL_TOLS = sorted(SURFACE["spectrum"][1])
# a value each flag takes wherever it is legal; the format is one the
# command emits, so only the flag itself is foreign
LEGAL_VALUES = {"gamma": "1", "j": "2", "ordering": "0,-1", "mass": "constant",
                "grid": "-1,1,5", "tol": "quad=1e-9", "only": "conformal", "seed": "3"}
FOREIGN_FLAGS = [(command, flag) for command, (flags, _) in SURFACE.items()
                 for flag in ALL_FLAGS if flag not in flags]
FOREIGN_TOLS = [(command, tol) for command, (flags, tols) in SURFACE.items() if "tol" in flags
                for tol in ALL_TOLS if tol not in tols]


class TestCommandSurface:
    def test_each_command_takes_its_own_flags(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {name: {a.dest for a in p._actions if a.dest != "help"}
                 for name, p in sub.choices.items()}
        assert flags == {name: own for name, (own, _) in SURFACE.items()}
        assert sum(map(len, flags.values())) == 24
        tols = {name: set(command.tols) for name, command in cli.COMMANDS.items()}
        assert tols == {name: own for name, (_, own) in SURFACE.items()}
        assert sum(map(len, tols.values())) == 7

    def test_two_calls_in_a_row_share_nothing(self, monkeypatch, capsys):
        # the parser is built once per process; --tol appends to a list, so
        # a list kept in the parser would carry into the next call
        seen = []
        real = cli._build_config

        def spy(args):
            seen.append((args, real(args)))
            return seen[-1][1]

        monkeypatch.setattr(cli, "_build_config", spy)
        grid = "--grid=-1,1,5"
        assert cli.main(["potential", "--gamma=0.8", "--tol", "quad=1e-9", grid]) == 0
        assert cli.main(["potential", grid]) == 0
        capsys.readouterr()
        (first, first_cfg), (second, second_cfg) = seen
        assert first.tol == ["quad=1e-9"] and first_cfg.tol == {"quad": 1e-9}
        assert first.gamma == "0.8" and first_cfg.gamma == 0.8
        assert second.tol is None and second_cfg.tol == {"quad": cli.DEFAULT_TOLERANCES["quad"]}
        assert second.gamma is None and second_cfg.gamma == 1.0
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: natpdm {command}")

    def test_output_alias(self, tmp_path, capsys):
        target = tmp_path / "map.csv"
        code, out, _ = run_cli(["map", "-o", str(target)], capsys)
        assert code == 0 and out == ""
        assert target.read_text().startswith("z_re,z_im")

    @pytest.mark.parametrize("command,flag", FOREIGN_FLAGS,
                             ids=[f"{c}-{f}" for c, f in FOREIGN_FLAGS])
    def test_foreign_flag_refused(self, command, flag, capsys):
        value = LEGAL_VALUES.get(flag, {"map": "csv"}.get(command, "json"))
        with pytest.raises(SystemExit) as exc:
            cli.main([command, f"--{flag}={value}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--{flag}" in captured.err

    @pytest.mark.parametrize("command,tol", FOREIGN_TOLS,
                             ids=[f"{c}-{t}" for c, t in FOREIGN_TOLS])
    def test_foreign_tolerance_refused(self, command, tol, tmp_path, capsys):
        code, out, err = run_cli([command, "--tol", f"{tol}=1"], capsys)
        assert code == 2 and out == ""
        assert repr(tol) in err
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tol": {tol: 1}}))
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert repr(tol) in err

    @pytest.mark.parametrize("command,flag", [("map", "gamma"), ("map", "tol"),
                                              ("verify", "grid"), ("potential", "seed")])
    def test_foreign_config_key_refused(self, command, flag, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({flag: LEGAL_VALUES[flag]}))
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert repr(flag) in err

    def test_unwritable_output_flag(self, tmp_path, capsys):
        target = tmp_path / "no_such_dir" / "x.csv"
        code, out, err = run_cli(["potential", "--grid=-1,1,5", "--output", str(target)],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith("config error") and err.count("\n") == 1
        assert str(target) in err

    def test_unwritable_output_from_config(self, tmp_path, capsys):
        target = tmp_path / "no_such_dir" / "x.json"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"output": str(target)}))
        code, out, err = run_cli(["verify", "--only", "conformal", "--config", str(cfg)],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith("config error") and err.count("\n") == 1

    @pytest.mark.parametrize("contents", [b"\xff\xfe{", b'{"seed": Infinity}',
                                          b'{"output": "a\\u0000b"}', b'{"seed": -1}'],
                             ids=["not-utf8", "seed-inf", "output-nul", "seed-negative"])
    def test_config_values_that_crashed(self, contents, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(contents)
        code, out, err = run_cli(["verify", "--only", "conformal", "--config", str(cfg)],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith("config error")

    @pytest.mark.parametrize("mass", RANGE_ENDS)
    def test_ordering_bound_gives_finite_output(self, mass, capsys):
        # the ordering terms at |eta|, |epsilon| = ORDERING_MAX and the
        # registry's range ends stay finite and warning-free
        for ordering in ("1e6,-1e6", "-1e6,1e6"):
            code, out, err = run_cli(["potential", f"--mass={mass}", "--format=json",
                                      f"--ordering={ordering}"], capsys)
            assert code == 0 and err == ""
            assert np.all(np.isfinite(np.array(json.loads(out)["Um"], dtype=float)))
            code, out, err = run_cli(["spectrum", f"--mass={mass}", "--grid=-12,12,201",
                                      f"--ordering={ordering}"], capsys)
            assert code in (0, 1) and err == ""
            assert all(math.isfinite(e) for e in json.loads(out)["energies_numeric"])

    @pytest.mark.parametrize("mass", RANGE_ENDS)
    def test_j_bound_gives_finite_output(self, mass, capsys):
        # j = J_MAX at the gamma and registry range ends: finite and warning-free
        for gamma in (cli.GAMMA_MIN, cli.GAMMA_MAX):
            code, out, err = run_cli(["potential", f"--j={cli.J_MAX!r}", f"--gamma={gamma!r}",
                                      f"--mass={mass}", "--grid=-12,12,201", "--format=json"],
                                     capsys)
            assert code == 0 and err == ""
            payload = json.loads(out)
            for name in ("V_hyp", "V_poly", "Um", "V_total"):
                assert np.all(np.isfinite(np.array(payload[name], dtype=float))), name


# value pools for the fuzzed argv vectors: legal values, range ends and
# malformed ones.  <...> names a file made in the fuzz directory
FUZZ_VALUES = {
    "gamma": ["1", "0.8", "3", "1e-8", "1e6", "0", "-1", "nan", "1e7", "x"],
    "j": ["2", "0", "1.5", "30", "-1", "inf", "x"],
    "ordering": ["0,-1", "-0.5,0", "0,0,-1", "1,1,1", "nan,0", "a,b", "1e6,-1e6",
                 "1e300,0", "0"],
    "mass": ["constant", "rational:2", "exponential-well:0.5", "rational:1e-06",
             "exponential-well:-0.999999", "constant:1000000.0", "rational:0", "rational:nan",
             "nosuch"],
    "grid": ["-12,12,201", "-2,2,41", "-1,1,5", "-1,1,3", "1,12,101", "-12,12,4", "0,0,5",
             "-1e300,1e300,11", "-1e-100,1e-100,11", "-1.7e308,0,3", "a,b,c", "-1,1"],
    "format": ["csv", "json", "xml"],
    "tol": ["quad=1e-9", "quad=1e-3", "spectrum_gate=1e-12", "eq27_vs_eq34_gate=1",
            "mass_independence_gate=1e-12", "quad=-1", "quad=nan", "nosuch=1", "quad"],
    "only": ["conformal", "algebra", "ginocchio", "natanzon", "pdmsolver", "nosuch"],
    "seed": ["0", "5", "-1", "x"],
    "config": ["<valid>", "<foreign>", "<empty>", "<tol>", "<tol-foreign>", "<seed-inf>",
               "<seed-float>", "<seed-integral-float>", "<bool>", "<output-nul>",
               "<output-unwritable>", "<bad-json>", "<not-utf8>", "<list>", "<null>",
               "<missing>"],
    "output": ["-", "<file>", "<unwritable>", "<dir>"],
}
FUZZ_FILES = {
    "<valid>": b'{"grid": "-2,2,41", "gamma": 0.9}',
    "<foreign>": b'{"gama": 3}',
    "<empty>": b"{}",
    "<tol>": b'{"tol": {"quad": 1e-9}}',
    "<tol-foreign>": b'{"tol": {"spectrum_gate": 1}}',
    "<seed-inf>": b'{"seed": Infinity}',
    "<seed-float>": b'{"seed": 1.5}',
    "<seed-integral-float>": b'{"seed": 3.0}',
    "<bool>": b'{"gamma": true, "j": false}',
    "<output-nul>": b'{"output": "a\\u0000b"}',
    "<output-unwritable>": b'{"output": "no_such_dir/x"}',
    "<bad-json>": b"{not json",
    "<not-utf8>": b"\xff\xfe{",
    "<list>": b"[1, 2]",
    "<null>": b'{"only": null}',
}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(SURFACE)))
    # mostly the command's own flags, now and then any flag at all
    flag = st.one_of(st.sampled_from(sorted(SURFACE[command][0])), st.sampled_from(ALL_FLAGS))
    pairs = draw(st.lists(flag.flatmap(
        lambda f: st.tuples(st.just(f), st.sampled_from(FUZZ_VALUES[f]))), max_size=4))
    return [command, *(f"--{f}={v}" for f, v in pairs)]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, contents in FUZZ_FILES.items():
        (root / name.strip("<>")).write_bytes(
            contents.replace(b"no_such_dir", str(root / "no_such_dir").encode()))
    return root


def _fill(arg, root):
    flag, _, value = arg.partition("=")
    if not value.startswith("<"):
        return arg
    path = {"<file>": root / "out.txt", "<unwritable>": root / "no_such_dir" / "x",
            "<dir>": root}.get(value, root / value.strip("<>"))
    return f"{flag}={path}"


class TestExitCodeContract:
    @settings(max_examples=150, deadline=None)
    @given(argv=fuzz_argv())
    def test_fuzzed_argv(self, argv, fuzz_dir):
        argv = [_fill(arg, fuzz_dir) for arg in argv]
        report_file = fuzz_dir / "out.txt"
        report_file.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in range(5)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            report = json.loads(out.getvalue() or report_file.read_text())
            gates = [g["passed"] for g in report.get("gates", [])]
            assert report.get("hard_gates_passed") is False or not all(gates)

    def test_every_library_exception_has_an_exit_code(self):
        # each exception class the package defines is one cli.main tells
        # apart by its exit code; every other refusal raises a built-in error
        defined = set()
        for info in pkgutil.iter_modules(natpdm.__path__):
            module = importlib.import_module(f"natpdm.{info.name}")
            defined |= {obj for obj in vars(module).values()
                        if isinstance(obj, type) and issubclass(obj, BaseException)
                        and obj.__module__ == module.__name__}
        assert defined == set(cli._FAILURE_EXITS) | {cli.ConfigError}

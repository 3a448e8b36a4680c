import csv
import io
import json
import math

import numpy as np
import pytest

from natpdm import cli


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


class TestSpectrum:
    def test_report_and_gates(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--gamma", "1", "--j", "2", "--grid=-11,11,901"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) >= {"gamma", "j", "ordering", "assembly_variant",
                                "energies_numeric", "energies_eq27", "energies_eq34",
                                "residuals", "best_fit_index_map", "mass_independence"}
        nums = payload["energies_numeric"]
        assert nums[0] == pytest.approx(-4.0, abs=1e-3)
        assert nums[1] == pytest.approx(-1.0, abs=1e-3)
        assert payload["energies_eq34"][0] == -4.0
        assert payload["best_fit_index_map"]["alpha"] == 2

    def test_invalid_ordering_sum(self, capsys):
        code, _, err = run_cli(["spectrum", "--ordering", "1,1,1"], capsys)
        assert code == 2
        assert "eta + epsilon + rho = -1" in err


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


class TestConfigErrors:
    @pytest.mark.parametrize("args", [
        ["potential", "--gamma", "-1"],
        ["potential", "--grid", "5,1,100"],
        ["potential", "--grid", "0,1"],
        ["potential", "--mass", "nosuch"],
        ["potential", "--assembly", "bogus"],
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
    ])
    def test_exit_code_two(self, args, capsys):
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert err.strip()

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

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(["potential", "--config", str(cfg)], capsys)
        assert code == 2

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            ["potential", "--grid=-1,1,11", "--output", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("x,m,mu,u,z")

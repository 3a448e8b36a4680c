"""Workload request pools and per-response output checks.

A workload is a pool of distinct argv lists that the closed loop cycles
through, so a run repeats each argv and can check that its report is
byte-identical to the first one. The pool comes from the seed alone.
Categorical choices (gamma = 1, mass family, ordering, output format) are
assigned by position, so every seed gives the same mix; the continuous
parameters are drawn from the seed, except at the leading anchor
positions. The accuracy metric `err_over_gate_max` is taken over the
anchors, because over seeded draws the level error alone spans 1e-10 to
2e-4. Each error component is divided by its gate (GATES), so a
component far below the others still moves the metric when it grows.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

GRID_DEFAULT = "-12,12,1201"
GRID_POTENTIAL = "-12,12,2401"
ORDERINGS = ("0,-1", "-0.5,0", "0,0")
TABLE_COLUMNS = ("x", "m", "mu", "u", "z", "V_hyp", "V_poly", "Um", "V_total")


class CheckFailed(Exception):
    pass


def _flags(**values):
    # --flag=value keeps argparse from reading negative numbers as flags
    return [f"--{name}={value}" for name, value in values.items()]


def _mass(kind, rng):
    if kind == "rational":
        return f"rational:{rng.uniform(1.5, 3.0):.3f}"
    if kind == "exponential-well":
        return f"exponential-well:{rng.uniform(0.25, 1.0):.3f}"
    return "constant"


# fixed parameters for the leading pool positions; they obey the same
# position rules as the seeded entries, so the mix stays the same
ANCHORS = (
    {"gamma": "1", "j": "2", "mass": "constant", "ordering": "0,-1"},
    {"gamma": "0.8", "j": "2", "mass": "rational:2", "ordering": "-0.5,0"},
)


def pool_params(seed, size):
    """gamma = 1 at every fourth position; mass family and ordering by position."""
    rng = random.Random(seed)
    out = []
    for p in range(size):
        if p < len(ANCHORS):
            out.append(dict(ANCHORS[p]))
            continue
        out.append({
            "gamma": "1" if p % 4 == 0 else f"{rng.uniform(0.7, 2.0):.3f}",
            "j": f"{rng.uniform(1.5, 3.0):.3f}",
            "mass": _mass(("constant", "rational", "exponential-well")[p % 3], rng),
            "ordering": ORDERINGS[(p + p // 3) % 3],
        })
    return out


def strict_json(text):
    def reject(token):
        raise CheckFailed(f"non-strict JSON token {token}")
    return json.loads(text, parse_constant=reject)


def _flag_value(argv, name):
    prefix = f"--{name}="
    for arg in argv:
        if arg.startswith(prefix):
            return arg[len(prefix):]
    return None


class _AnchoredPool:
    def err_scope(self, pool):
        return range(len(ANCHORS))


class SpectrumMix(_AnchoredPool):
    name = "spectrum-mix"
    size = 8
    # natpdm's default spectrum_gate and mass_independence_gate
    GATES = {"level_err_max": 5e-3, "mass_diff_max": 2e-3}

    def pool(self, seed):
        return [["spectrum", *_flags(**params, grid=GRID_DEFAULT)]
                for params in pool_params(seed, self.size)]

    def check(self, argv, text):
        report = strict_json(text)
        gates = report["gates"]
        if not gates or not all(g["passed"] for g in gates):
            raise CheckFailed(f"gate failed: {gates}")
        fit = report["best_fit_index_map"]
        mass_diff = report["mass_independence"]["max_diff"]
        if fit.get("max_mismatch") is None or mass_diff is None:
            raise CheckFailed("index map or mass independence not measured")
        return {"level_err_max": fit["max_mismatch"], "mass_diff_max": mass_diff}


class Potential2401(_AnchoredPool):
    name = "potential-2401"
    size = 16
    # the quadrature tolerance, also the gate of verify's mu_inversion_round_trip
    GATES = {"inversion_err_max": 1e-10}

    def pool(self, seed):
        return [["potential", *_flags(**params, grid=GRID_POTENTIAL,
                                      format=("csv", "json")[p % 2])]
                for p, params in enumerate(pool_params(seed, self.size))]

    def check(self, argv, text):
        n_rows = int(_flag_value(argv, "grid").split(",")[2])
        gamma = float(_flag_value(argv, "gamma"))
        if _flag_value(argv, "format") == "json":
            payload = strict_json(text)
            try:
                cols = {k: np.array(payload[k], dtype=float) for k in TABLE_COLUMNS}
            except TypeError as exc:  # null marks a non-finite value
                raise CheckFailed(f"non-numeric column value: {exc}") from exc
            values = np.concatenate(list(cols.values()))
        else:
            lines = text.splitlines()
            header = lines[0].split(",")
            values = np.array([line.split(",") for line in lines[1:]], dtype=float)
            if values.ndim != 2 or values.shape[1] != len(header):
                raise CheckFailed("ragged CSV table")
            cols = {name: values[:, i] for i, name in enumerate(header)}
        if cols["x"].size != n_rows:
            raise CheckFailed(f"{cols['x'].size} rows, expected {n_rows}")
        if not np.all(np.isfinite(values)):
            raise CheckFailed("non-finite value in table")
        from natpdm import ginocchio
        err = np.max(np.abs(ginocchio.mu_closed_form(gamma, cols["u"]) - cols["mu"]))
        return {"inversion_err_max": float(err)}


class VerifyAll:
    name = "verify-all"
    size = 4
    # the thresholds of verify's checks of the same names
    GATES = {"level_err_max": 1e-3, "mass_diff_max": 2e-3, "inversion_err_max": 1e-10}
    # checks whose measured value is an error against an independent reference
    ERROR_CHECKS = {
        ("pdmsolver", "poschl_teller_levels"): "level_err_max",
        ("pdmsolver", "mass_independence"): "mass_diff_max",
        ("ginocchio", "mu_inversion_round_trip"): "inversion_err_max",
    }

    def pool(self, seed):
        rng = random.Random(seed)
        return [["verify", f"--seed={rng.randrange(1_000_000)}"] for _ in range(self.size)]

    def err_scope(self, pool):
        # the error checks below do not depend on the verify seed
        return range(len(pool))

    def check(self, argv, text):
        report = strict_json(text)
        if report.get("hard_gates_passed") is not True:
            raise CheckFailed("hard gates failed")
        errs = {}
        for (module, check), metric in self.ERROR_CHECKS.items():
            found = [c["measured"] for c in report["modules"][module]["checks"]
                     if c["name"] == check]
            if len(found) != 1 or not isinstance(found[0], float) or not math.isfinite(found[0]):
                raise CheckFailed(f"{module}.{check} missing")
            errs[metric] = found[0]
        return errs


WORKLOADS = {w.name: w for w in (SpectrumMix(), Potential2401(), VerifyAll())}

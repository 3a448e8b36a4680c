"""Command-line surface: potential/map tables, spectra, and the verify pipeline.

Exit codes are a stable contract: 0 success, 1 residual-gate failure,
2 invalid configuration, 3 coordinate-inversion failure, 4 solver failure.
Reports are regression fixtures: identical configuration (including the
seed) produces byte-identical output, and CSV numbers carry 17 significant
digits.  JSON text is exactly what json.dumps(report, sort_keys=True,
indent=2) would write with nan and +-inf written as null, so it is strict
JSON (no NaN or Infinity tokens).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import conformal, ginocchio, numerics, pdmsolver, verify
from .masses import MASS_REGISTRY, NonpositiveMass, parse_mass
from .natanzon import OrderingParams
from .numerics import Grid

EXIT_OK = 0
EXIT_GATE_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_INVERSION_FAILURE = 3
EXIT_SOLVER_FAILURE = 4

# potential tables stay finite for gamma in this range; beyond it the
# closed forms overflow (gamma^2 mu, gamma^6) or lose every digit
GAMMA_MIN = 1e-8
GAMMA_MAX = 1e6
# potential tables stay finite for j up to here at the gamma and mass
# range ends; far beyond it gamma^4 j(j + 1) overflows to -inf or nan
J_MAX = 1e6

# bound on the von Roos eta and epsilon: the ordering terms scale as
# eta^2 m'^2/m^3, which stays finite over the registry masses up to here
ORDERING_MAX = 1e6

# LAPACK dstebz squares the off-diagonal entries of the spectrum matrix
# and multiplies neighbouring diagonal entries, so each entry must stay
# below sqrt(DBL_MAX).  The largest is the kinetic diagonal 1/(m h^2) at
# the registry's mass floor m = 1e-6; this is the refined spacing h at
# which it reaches sqrt(DBL_MAX)
SPACING_MIN = 1.0 / math.sqrt(1e-6 * math.sqrt(sys.float_info.max))

DEFAULT_TOLERANCES = {
    "quad": 1e-10,
    "spectrum_gate": 5e-3,
    "eq27_vs_eq34_gate": 1e-9,
    "mass_independence_gate": 2e-3,
}


# library exceptions that end potential, spectrum and verify: 3 when the
# x -> mu -> u coordinate map fails (mu quadrature or its inversion),
# 4 when a solver fails
_FAILURE_EXITS = {
    numerics.ToleranceNotMet: EXIT_INVERSION_FAILURE,
    ginocchio.InversionFailure: EXIT_INVERSION_FAILURE,
    numerics.EigensolverFailure: EXIT_SOLVER_FAILURE,
    NonpositiveMass: EXIT_SOLVER_FAILURE,
}
_FAILURES = tuple(_FAILURE_EXITS)
_FAILURE_NAMES = {EXIT_INVERSION_FAILURE: "coordinate inversion failed",
                  EXIT_SOLVER_FAILURE: "solver failure"}


def _failure_exit(exc: Exception, where: str = "") -> int:
    """Report a library failure on stderr in one line and return its exit code."""
    code = next(c for kind, c in _FAILURE_EXITS.items() if isinstance(exc, kind))
    sys.stderr.write(f"{_FAILURE_NAMES[code]}{where}: {exc}\n")
    return code


class ConfigError(ValueError):
    pass


def _number(text: str, name: str, lo: float, hi: float, kind=float):
    try:
        value = kind(text)
    except ValueError:
        raise ConfigError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {text!r}") from None
    # a nan fails both comparisons
    if not lo <= value <= hi:
        raise ConfigError(f"{name} must lie in [{lo:g}, {hi:g}], got {value}")
    return value


def _parse_ordering(text: str) -> OrderingParams:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"ordering takes 'eta,epsilon', got {text!r}")
    try:
        eta, epsilon = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"ordering must be numeric 'eta,epsilon': {exc}") from exc
    # a nan fails both comparisons
    if not (abs(eta) <= ORDERING_MAX and abs(epsilon) <= ORDERING_MAX):
        raise ConfigError(f"eta and epsilon must lie in [{-ORDERING_MAX:g}, {ORDERING_MAX:g}], "
                          f"got {text!r}")
    return OrderingParams(eta, epsilon)


def _checked_mass(text: str) -> str:
    try:
        parse_mass(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return text


def _parse_grid(text: str) -> Grid:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError("grid takes 'xmin,xmax,N'")
    try:
        return Grid(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


def _one_of(text: str, name: str, choices) -> str:
    if text not in choices:
        raise ConfigError(f"{name} must be one of {', '.join(choices)}, got {text!r}")
    return text


def _parse_tols(items, command: str) -> dict:
    """The command's tolerances: its defaults, overridden by name=value items in order."""
    out = {name: DEFAULT_TOLERANCES[name] for name in COMMANDS[command].tols}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--tol takes name=value, got {item!r}")
        name = name.strip()
        if name not in COMMANDS[command].tols:
            known = ", ".join(COMMANDS[command].tols)
            raise ConfigError(f"{command} reads no tolerance {name!r} (it reads: {known})")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise ConfigError(f"invalid tolerance value in {item!r}: {exc}") from exc
        if not 0.0 < out[name] < math.inf:
            raise ConfigError(f"tolerance {name} must be positive and finite, got {value!r}")
    return out


def _build_config(args: argparse.Namespace) -> argparse.Namespace:
    """Each flag of the command, read from the command line, else the file, else its default."""
    file_values = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        # ValueError covers malformed JSON, bytes that are not UTF-8 and
        # a NUL in the file name
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object of flag values")
        if "config" in file_values:
            raise ConfigError("config file key 'config' is refused: a config file "
                              "cannot name another")
        flags = set(vars(args)) - {"command", "config"}
        unknown = sorted(set(file_values) - flags)
        if unknown:
            raise ConfigError(f"config file keys {unknown} name no flag of {args.command} "
                              f"(known: {', '.join(sorted(flags))})")

    file_tols = file_values.get("tol", {})
    if not isinstance(file_tols, dict):
        raise ConfigError(f"config file tol must be a JSON object of name: value, "
                          f"got {file_tols!r}")
    file_tols = [f"{k}={v}" for k, v in file_tols.items()]
    cfg = argparse.Namespace()
    for name in COMMANDS[args.command].flags:
        flag, text = _FLAGS[name], getattr(args, name)
        if name == "tol":
            cfg.tol = _parse_tols([*file_tols, *(text or [])], args.command)
            continue
        if text is None:
            text = file_values.get(name, flag.default)
            # a JSON number stands for its JSON text; true and false are bools, not numbers
            if flag.number and type(text) in (int, float):
                text = json.dumps(text)
            if name in file_values and not isinstance(text, str):
                kind = "string or number" if flag.number else "string"
                raise ConfigError(f"{name} must be a JSON {kind}, got {json.dumps(text)}")
        setattr(cfg, name, None if text is None else flag.read(text))

    # only potential and spectrum take a grid, and both anchor mu at x = 0
    if "grid" in vars(cfg) and not cfg.grid.x_min <= 0.0 <= cfg.grid.x_max:
        raise ConfigError(f"grid [{cfg.grid.x_min}, {cfg.grid.x_max}] must contain "
                          f"the anchor x = 0")
    # spectrum assembles the grid and its refinement at half the spacing
    if args.command == "spectrum" and 0.5 * cfg.grid.spacing < SPACING_MIN:
        raise ConfigError(f"grid spacing {cfg.grid.spacing:g} is too fine to discretize: "
                          f"its half must be at least {SPACING_MIN:.3g}")
    # spectrum solves for floor(j) + 2 levels on the interior nodes
    if args.command == "spectrum" and cfg.grid.n_points - 2 < math.floor(cfg.j) + 2:
        raise ConfigError(f"grid has {cfg.grid.n_points - 2} interior nodes; spectrum "
                          f"at j = {cfg.j} needs at least {math.floor(cfg.j) + 2}")
    return cfg


def _emit(text: str, output: str | None) -> None:
    if output in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    # ValueError: a NUL in the file name
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot write output file {output!r}: {exc}") from exc


def _csv_text(columns: dict) -> str:
    """The columns as CSV, one per key in order, under a header of their keys."""
    # "%.17g" % v is the text of "{:.17g}".format(v), nan and inf included
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = np.column_stack(list(columns.values())).tolist()
    return ",".join(columns) + "\n" + "".join([row % tuple(values) for values in rows])


_json_str = json.encoder.encode_basestring_ascii


def _json_text(payload) -> str:
    """Every JSON report goes through here, so each one is strict JSON.

    The text is exactly what json.dumps(payload, sort_keys=True, indent=2)
    writes once nan and +-inf are replaced by null, numpy scalars by
    their Python values and arrays by lists, in one pass.  Keys are
    strings.
    """
    return _json_value(payload, "\n") + "\n"


def _json_value(obj, newline: str) -> str:
    """obj as json.dumps writes it; newline is a line break and the indent obj starts at."""
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return _json_str(obj)
    # bool before int: True is an int
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return float.__repr__(value) if math.isfinite(value) else "null"
    if isinstance(obj, np.ndarray) and not (obj.ndim == 1 and obj.dtype.kind == "f"):
        return _json_value(obj.tolist(), newline)
    inner = newline + "  "
    if isinstance(obj, dict):
        brackets = "{}"
        items = [f"{_json_str(key)}: {_json_value(obj[key], inner)}" for key in sorted(obj)]
    elif isinstance(obj, np.ndarray):
        # a float column: the float.__repr__ json writes, null where not finite
        brackets = "[]"
        items = list(map(float.__repr__, obj.tolist()))
        for i in np.flatnonzero(~np.isfinite(obj)).tolist():
            items[i] = "null"
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        items = [_json_value(v, inner) for v in obj]
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


# ---------------------------------------------------------------------------
# map


def cmd_map(cfg: argparse.Namespace) -> int:
    half = conformal.BAND_HALF_WIDTH
    re, im = np.meshgrid(np.linspace(-half, half, 21), np.linspace(-2.0, 2.0, 21), indexing="ij")
    z = np.ravel(re + 1j * im)
    # third derivative of tan peaks at the band edge; h = 1e-5 keeps the
    # truncation well under the residual gate
    res = conformal.conformality_residual(conformal.strip_to_disk, z, h=1e-5)
    w = conformal.strip_to_disk(z)
    text = _csv_text({"z_re": z.real, "z_im": z.imag, "w_re": w.real, "w_im": w.imag,
                      "cr_residual": res})
    _emit(text, cfg.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# potential


def cmd_potential(cfg: argparse.Namespace) -> int:
    try:
        table = ginocchio.potential_on_x_grid(
            cfg.gamma, cfg.j, parse_mass(cfg.mass), cfg.ordering, cfg.grid,
            tol=cfg.tol["quad"],
        )
    except _FAILURES as exc:
        return _failure_exit(exc)
    text = _json_text({**table, "gamma": cfg.gamma, "j": cfg.j, "mass": cfg.mass}) \
        if cfg.format == "json" else _csv_text(table)
    _emit(text, cfg.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(cfg: argparse.Namespace) -> int:
    try:
        report = pdmsolver.verify_spectrum(
            cfg.gamma, cfg.j, parse_mass(cfg.mass), cfg.ordering, cfg.grid,
            quad_tol=cfg.tol["quad"],
        )
    except _FAILURES as exc:
        return _failure_exit(exc)

    tol = cfg.tol
    fit = report["best_fit_index_map"]
    matched = fit["pairs"] if fit.get("status") == "MATCHED" else []
    gates = []
    if matched:
        gates.append(("index_map_mismatch", fit["max_mismatch"], tol["spectrum_gate"]))
    finite_qc = [r for r in report["residuals"]["eq27_vs_eq34"] if math.isfinite(r)]
    if finite_qc:
        gates.append(("eq27_vs_eq34", max(finite_qc), tol["eq27_vs_eq34_gate"]))
    mi = report["mass_independence"]["max_diff"]
    if mi is not None:
        gates.append(("mass_independence", mi, tol["mass_independence_gate"]))

    # coverage is the one lower bound: a run that compares no analytic
    # level with a numeric one fails instead of passing on no evidence
    report["gates"] = [{"name": "coverage", "measured": len(matched), "threshold": 1,
                        "passed": bool(matched)}] + [
        {"name": name, "measured": measured, "threshold": threshold,
         "passed": bool(measured <= threshold)}
        for name, measured, threshold in gates
    ]
    _emit(_json_text(report), cfg.output)
    return EXIT_OK if all(g["passed"] for g in report["gates"]) else EXIT_GATE_FAILURE


# ---------------------------------------------------------------------------
# verify


def cmd_verify(cfg: argparse.Namespace) -> int:
    modules = (cfg.only,) if cfg.only else verify.SUITES
    report = {"seed": cfg.seed, "modules": {}}
    all_hard = True
    for name in modules:
        rng = np.random.default_rng(cfg.seed)
        try:
            checks = verify.SUITES[name](cfg.tol, rng)
        except _FAILURES as exc:
            return _failure_exit(exc, f" in the {name} suite")
        hard_ok = all(c["passed"] for c in checks if c["kind"] == "hard")
        all_hard = all_hard and hard_ok
        report["modules"][name] = {"checks": checks, "hard_passed": hard_ok}
    report["hard_gates_passed"] = all_hard
    _emit(_json_text(report), cfg.output)
    return EXIT_OK if all_hard else EXIT_GATE_FAILURE


# ---------------------------------------------------------------------------
# argument parsing


class Flag(NamedTuple):
    options: tuple
    help: str
    # the text read when neither the command line nor the config file gives one
    default: str | None
    read: Callable[[str], object] = str
    # a config file may give the value as a JSON number instead of a string
    number: bool = False


_FLAGS = {
    "gamma": Flag(("--gamma",), f"deformation parameter gamma in [{GAMMA_MIN:g}, {GAMMA_MAX:g}]",
                  "1", lambda text: _number(text, "gamma", GAMMA_MIN, GAMMA_MAX), number=True),
    "j": Flag(("--j",), f"potential-strength label j in [0, {J_MAX:g}]", "2",
              lambda text: _number(text, "j", 0.0, J_MAX), number=True),
    "ordering": Flag(("--ordering",), f"von Roos parameters 'eta,epsilon' (rho = -1 - eta - "
                                      f"epsilon); |eta|, |epsilon| <= {ORDERING_MAX:g}",
                     "0,-1", _parse_ordering),
    "mass": Flag(("--mass",), "mass profile 'name' or 'name:param' with the param in "
                 + ", ".join(f"[{lo:g}, {hi:g}] for {name}"
                             for name, (_, (lo, hi)) in MASS_REGISTRY.items()),
                 "constant", _checked_mass),
    "grid": Flag(("--grid",), "grid 'xmin,xmax,N'", "-12,12,1201", _parse_grid),
    "format": Flag(("--format",), "output format: csv or json", None,
                   lambda text: _one_of(text, "format", ("csv", "json"))),
    "tol": Flag(("--tol",), "tolerance override, repeatable", None),
    "only": Flag(("--only",), f"restrict verify to one module suite: {', '.join(verify.SUITES)}",
                 None, lambda text: _one_of(text, "only", verify.SUITES)),
    # numpy seeds its generators from non-negative integers only
    "seed": Flag(("--seed",), "seed for sampled checks (reports embed it)", "0",
                 lambda text: _number(text, "seed", 0, math.inf, int), number=True),
    "config": Flag(("--config",), "JSON file of flag values; explicit flags win", None),
    "output": Flag(("--output", "-o"), "output file (default: stdout)", None),
}


class Command(NamedTuple):
    run: Callable[[argparse.Namespace], int]
    help: str
    flags: tuple
    tols: tuple = ()


# the one declaration of what each command reads: it takes no other flag,
# and a --tol name or config-file key outside it exits 2
COMMANDS = {
    "map": Command(cmd_map, "tabulate the band-to-disk conformal map with residuals",
                   ("config", "output")),
    "potential": Command(cmd_potential, "tabulate the potential V_hyp + Um on the physical grid",
                         ("gamma", "j", "ordering", "mass", "grid", "format", "tol",
                          "config", "output"), ("quad",)),
    "spectrum": Command(cmd_spectrum, "numeric vs analytic bound-state spectra as JSON",
                        ("gamma", "j", "ordering", "mass", "grid", "tol", "config",
                         "output"), tuple(DEFAULT_TOLERANCES)),
    "verify": Command(cmd_verify, "run the module property suites and report residuals",
                      ("tol", "only", "seed", "config", "output"),
                      ("quad", "mass_independence_gate")),
}


# built once per process: parse_args keeps its results in a new namespace
# each call and leaves the parser as it was
@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="natpdm",
        description="Natanzon-class potentials in a position-dependent-mass "
                    "background: tables, spectra, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for name in command.flags:
            flag = _FLAGS[name]
            if name == "tol":
                p.add_argument(*flag.options, action="append", metavar="NAME=VALUE",
                               help=f"{flag.help}; names: {', '.join(command.tols)}")
            else:
                p.add_argument(*flag.options, help=flag.help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = None
    try:
        cfg = _build_config(args)
        return COMMANDS[args.command].run(cfg)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG_ERROR
    except MemoryError:
        # only a grid's arrays grow with the input; a kill by the kernel's
        # OOM killer ends the process before Python can raise this
        grid = getattr(cfg, "grid", None)
        named = f"grid {grid.x_min:g},{grid.x_max:g},{grid.n_points}" if grid else "the run"
        sys.stderr.write(f"config error: {named} needs more memory than can be allocated\n")
        return EXIT_CONFIG_ERROR


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

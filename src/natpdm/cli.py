"""Command-line surface: potential/map tables, spectra, and the verify pipeline.

Exit codes are a stable contract: 0 success, 1 residual-gate failure,
2 invalid configuration, 3 coordinate-inversion failure, 4 solver failure.
Reports are regression fixtures: identical configuration (including the
seed) produces byte-identical output, CSV numbers carry 17 significant
digits, and JSON output is strict (no NaN tokens; missing values are null).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import conformal, ginocchio, natanzon, numerics, pdmsolver, verify
from .ginocchio import GinocchioSpec
from .masses import MASS_REGISTRY, parse_mass
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
    pdmsolver.NonpositiveMass: EXIT_SOLVER_FAILURE,
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


@dataclass
class RunConfig:
    gamma: float = 1.0
    j: float = 2.0
    ordering: OrderingParams = field(default_factory=lambda: natanzon.BEN_DANIEL_DUKE)
    mass: str = "constant"
    grid: Grid = field(default_factory=lambda: Grid(-12.0, 12.0, 1201))
    fmt: str | None = None
    tolerances: dict = field(default_factory=dict)
    only: str | None = None
    seed: int = 0
    output: str | None = None


def _parse_ordering(text: str) -> OrderingParams:
    parts = [p.strip() for p in text.split(",")]
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"ordering must be numeric 'eta,epsilon[,rho]': {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"ordering parameters must be finite, got {text!r}")
    if not all(abs(v) <= ORDERING_MAX for v in values[:2]):
        raise ConfigError(f"eta and epsilon must lie in [{-ORDERING_MAX:g}, {ORDERING_MAX:g}], "
                          f"got {text!r}")
    if len(values) == 2:
        return OrderingParams(eta=values[0], epsilon=values[1])
    if len(values) == 3:
        if abs(sum(values) + 1.0) > 1e-12:
            raise ConfigError(
                f"ordering parameters must satisfy eta + epsilon + rho = -1, "
                f"got sum {sum(values)}"
            )
        return OrderingParams(eta=values[0], epsilon=values[1], rho=values[2])
    raise ConfigError("ordering takes 'eta,epsilon' (rho derived) or 'eta,epsilon,rho'")


def _parse_grid(text: str) -> Grid:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError("grid takes 'xmin,xmax,N'")
    try:
        return Grid(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


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


def _build_config(args: argparse.Namespace) -> RunConfig:
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

    def pick(name, default):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in file_values:
            return file_values[name]
        return default

    cfg = RunConfig()
    try:
        cfg.gamma = float(pick("gamma", cfg.gamma))
        cfg.j = float(pick("j", cfg.j))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"gamma and j must be numeric: {exc}") from exc
    if not GAMMA_MIN <= cfg.gamma <= GAMMA_MAX:
        raise ConfigError(f"gamma must lie in [{GAMMA_MIN:g}, {GAMMA_MAX:g}], got {cfg.gamma}")
    if not 0.0 <= cfg.j < math.inf:
        raise ConfigError(f"j must be non-negative and finite, got {cfg.j}")

    ordering = pick("ordering", None)
    if ordering is not None:
        cfg.ordering = _parse_ordering(str(ordering))
    cfg.mass = str(pick("mass", cfg.mass))
    try:
        parse_mass(cfg.mass)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    grid = pick("grid", None)
    if grid is not None:
        cfg.grid = _parse_grid(str(grid))
    # only potential and spectrum take a grid, and both anchor mu at x = 0
    if not cfg.grid.x_min <= 0.0 <= cfg.grid.x_max:
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
    fmt = pick("format", None)
    if fmt is not None:
        if fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {fmt!r}")
        cfg.fmt = fmt
    file_tols = file_values.get("tol", {})
    if not isinstance(file_tols, dict):
        raise ConfigError(f"config file tol must be a JSON object of name: value, "
                          f"got {file_tols!r}")
    file_tols = [f"{k}={v}" for k, v in file_tols.items()]
    cfg.tolerances = _parse_tols([*file_tols, *(getattr(args, "tol", None) or [])],
                                 args.command)
    only = pick("only", None)
    if only is not None:
        suites = tuple(verify.SUITES)
        if only not in suites:
            raise ConfigError(f"--only must name one of {suites}, got {only!r}")
        cfg.only = only
    try:
        cfg.seed = int(pick("seed", cfg.seed))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"seed must be an integer: {exc}") from exc
    # numpy seeds its generators from non-negative integers only
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    cfg.output = pick("output", None)
    if cfg.output is not None and not isinstance(cfg.output, str):
        raise ConfigError(f"output must be a file name, got {cfg.output!r}")
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


def _csv_text(header, columns) -> str:
    row = ",".join(["{:.17g}"] * len(header)) + "\n"
    rows = np.column_stack(columns).tolist()
    return ",".join(header) + "\n" + "".join(row.format(*values) for values in rows)


def _json_text(payload) -> str:
    return json.dumps(pdmsolver.clean_json(payload), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# map


def cmd_map(cfg: RunConfig) -> int:
    half = conformal.BAND_HALF_WIDTH
    n_re, n_im, im_max = 21, 21, 2.0
    points = [complex(re, im) for re in np.linspace(-half, half, n_re)
              for im in np.linspace(-im_max, im_max, n_im)]
    # third derivative of tan peaks at the band edge; h = 1e-5 keeps the
    # truncation well under the residual gate
    res = [conformal.conformality_residual(conformal.strip_to_disk, p, h=1e-5)
           for p in points]
    z, w = np.array(points), np.array([conformal.strip_to_disk(p) for p in points])
    text = _csv_text(("z_re", "z_im", "w_re", "w_im", "cr_residual"),
                     (z.real, z.imag, w.real, w.imag, res))
    _emit(text, cfg.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# potential


def cmd_potential(cfg: RunConfig) -> int:
    try:
        table = ginocchio.potential_on_x_grid(
            cfg.gamma, cfg.j, parse_mass(cfg.mass), cfg.ordering, cfg.grid,
            tol=cfg.tolerances["quad"],
        )
    except _FAILURES as exc:
        return _failure_exit(exc)
    header = ("x", "m", "mu", "u", "z", "V_hyp", "V_poly", "Um", "V_total")
    columns = (table.x, table.m, table.mu, table.u, table.z,
               table.v_hyp, table.v_poly, table.um, table.v_total)
    if cfg.fmt == "json":
        payload = {name: col.tolist() for name, col in zip(header, columns)}
        payload.update({"gamma": cfg.gamma, "j": cfg.j, "mass": cfg.mass})
        _emit(_json_text(payload), cfg.output)
    else:
        _emit(_csv_text(header, columns), cfg.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(cfg: RunConfig) -> int:
    spec = GinocchioSpec(cfg.gamma, cfg.j)
    try:
        report = pdmsolver.verify_spectrum(
            spec, parse_mass(cfg.mass), cfg.ordering, cfg.grid,
            quad_tol=cfg.tolerances["quad"],
        )
    except _FAILURES as exc:
        return _failure_exit(exc)

    tol = cfg.tolerances
    fit = report.best_fit_index_map
    matched = fit["pairs"] if fit.get("status") == "MATCHED" else []
    gates = []
    if matched:
        gates.append(("index_map_mismatch", fit["max_mismatch"], tol["spectrum_gate"]))
    finite_qc = [r for r in report.quant_vs_closed if r is not None and math.isfinite(r)]
    if finite_qc:
        gates.append(("eq27_vs_eq34", max(finite_qc), tol["eq27_vs_eq34_gate"]))
    mi = report.mass_independence.get("max_diff")
    if mi is not None:
        gates.append(("mass_independence", mi, tol["mass_independence_gate"]))

    payload = report.to_dict()
    payload["seed"] = cfg.seed
    # coverage is the one lower bound: a run that compares no analytic
    # level with a numeric one fails instead of passing on no evidence
    payload["gates"] = [{"name": "coverage", "measured": len(matched), "threshold": 1,
                         "passed": bool(matched)}] + [
        {"name": name, "measured": measured, "threshold": threshold,
         "passed": bool(measured <= threshold)}
        for name, measured, threshold in gates
    ]
    _emit(_json_text(payload), cfg.output)
    return EXIT_OK if all(g["passed"] for g in payload["gates"]) else EXIT_GATE_FAILURE


# ---------------------------------------------------------------------------
# verify


def cmd_verify(cfg: RunConfig) -> int:
    modules = (cfg.only,) if cfg.only else verify.SUITES
    report = {"seed": cfg.seed, "modules": {}}
    all_hard = True
    for name in modules:
        rng = np.random.default_rng(cfg.seed)
        try:
            checks = verify.SUITES[name](cfg.tolerances, rng)
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


# each flag's option strings and argparse keywords
_FLAGS = {
    "gamma": (("--gamma",), dict(type=float, help=f"deformation parameter gamma in "
                                                f"[{GAMMA_MIN:g}, {GAMMA_MAX:g}]")),
    "j": (("--j",), dict(type=float, help="potential-strength label j >= 0")),
    "ordering": (("--ordering",), dict(
        help=f"von Roos parameters 'eta,epsilon' (rho derived) or 'eta,epsilon,rho' with "
             f"sum -1; |eta|, |epsilon| <= {ORDERING_MAX:g}")),
    "mass": (("--mass",), dict(
        help="mass profile 'name' or 'name:param' with the param in "
             + ", ".join(f"[{lo:g}, {hi:g}] for {name}"
                         for name, (_, (lo, hi)) in MASS_REGISTRY.items()))),
    "grid": (("--grid",), dict(help="grid 'xmin,xmax,N'")),
    "format": (("--format",), dict(choices=("csv", "json"), help="output format")),
    "tol": (("--tol",), dict(action="append", metavar="NAME=VALUE",
                             help="tolerance override, repeatable")),
    "only": (("--only",), dict(help="restrict verify to one module suite")),
    "seed": (("--seed",), dict(type=int, help="seed for sampled checks (reports embed it)")),
    "config": (("--config",), dict(help="JSON file of flag values; explicit flags win")),
    "output": (("--output", "-o"), dict(help="output file (default: stdout)")),
}


class Command(NamedTuple):
    run: Callable[[RunConfig], int]
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
                        ("gamma", "j", "ordering", "mass", "grid", "tol", "seed",
                         "config", "output"), tuple(DEFAULT_TOLERANCES)),
    "verify": Command(cmd_verify, "run the module property suites and report residuals",
                      ("tol", "only", "seed", "config", "output"),
                      ("quad", "mass_independence_gate")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="natpdm",
        description="Natanzon-class potentials in a position-dependent-mass "
                    "background: tables, spectra, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            option_strings, kwargs = _FLAGS[flag]
            if flag == "tol":
                kwargs = dict(kwargs, help=f"{kwargs['help']}; names: {', '.join(command.tols)}")
            p.add_argument(*option_strings, default=None, **kwargs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command].run(_build_config(args))
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG_ERROR


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

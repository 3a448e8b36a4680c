"""Construction core for the energy-linear hypergeometric potential family.

Six real parameters (c0, p0, q0, a_c, a_p, a_q) fix coefficients that are
linear in the energy, c = -c0 E + a_c and so on.  From them follow the
quadratic R(z) = p0 z^2 + (4 c0 - p0 - q0) z + q0, the generating function
S(z) = 4 z^2 (1-z)^2 / R(z) that pins the coordinate map through
z'(x)^2 = 2 m(x) S(z(x)), the closed-form potential on z in [0, 1], the
von Roos ordering corrections, and the quantization identity whose roots
in E are the bound-state energies: every level is scanned in one array
and polished in one bisection call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import GroupLabels
from .masses import MassProfile
from .numerics import Grid, bisect

__all__ = [
    "RZero",
    "BranchViolation",
    "StiffBlowup",
    "NatanzonParams",
    "EnergyCoeffs",
    "OrderingParams",
    "BEN_DANIEL_DUKE",
    "CoordinateMap",
    "coeffs_at_energy",
    "r_polynomial",
    "generating_function",
    "natanzon_potential",
    "mass_correction_terms",
    "quantization_residual",
    "default_energy_bracket",
    "solve_spectrum",
    "solve_coordinate_map",
    "labels_for_level",
]


#: |residual| that counts as an exact root at a scan node, and the gap
#: kept below E = 0
_ROOT_TOL = 1e-12


class RZero(ZeroDivisionError):
    """R(z) vanished where the construction needs it positive."""


class BranchViolation(ValueError):
    """A radicand of the quantization identity is negative at this energy."""


class StiffBlowup(RuntimeError):
    """Coordinate-map integration lost finiteness near z in {0, 1}."""


@dataclass(frozen=True)
class NatanzonParams:
    """The six construction parameters; coefficients are linear in E."""

    c0: float
    p0: float
    q0: float
    a_c: float
    a_p: float
    a_q: float

    @property
    def discriminant(self) -> float:
        """Delta = (4 c0 - p0 - q0)^2 - 4 p0 q0, independent of the energy shifts."""
        return (4.0 * self.c0 - self.p0 - self.q0) ** 2 - 4.0 * self.p0 * self.q0


@dataclass(frozen=True)
class EnergyCoeffs:
    """Coefficient triple at one energy, with the shifted aliases t, r."""

    E: float
    c: float
    p: float
    q: float

    @property
    def t(self) -> float:
        return self.p + 1.0

    @property
    def r(self) -> float:
        return self.q + 2.0


@dataclass(frozen=True)
class OrderingParams:
    """von Roos ambiguity parameters with eta + epsilon + rho = -1."""

    eta: float
    epsilon: float
    rho: float | None = None

    def __post_init__(self) -> None:
        if self.rho is None:
            object.__setattr__(self, "rho", -1.0 - self.eta - self.epsilon)
        elif abs(self.eta + self.epsilon + self.rho + 1.0) > 1e-12:
            raise ValueError(
                f"ordering parameters must satisfy eta + epsilon + rho = -1, "
                f"got sum {self.eta + self.epsilon + self.rho}"
            )


BEN_DANIEL_DUKE = OrderingParams(eta=0.0, epsilon=-1.0)


def coeffs_at_energy(params: NatanzonParams, energy: float) -> EnergyCoeffs:
    """Evaluate the energy-linear coefficients at one energy."""
    return EnergyCoeffs(
        E=energy,
        c=-params.c0 * energy + params.a_c,
        p=-params.p0 * energy + params.a_p,
        q=-params.q0 * energy + params.a_q,
    )


def r_polynomial(params: NatanzonParams, z):
    """R(z) = p0 z^2 + (4 c0 - p0 - q0) z + q0."""
    return params.p0 * z * z + (4.0 * params.c0 - params.p0 - params.q0) * z + params.q0


def generating_function(params: NatanzonParams, z):
    """S(z) = 4 z^2 (1 - z)^2 / R(z); R must be positive where evaluated."""
    r = r_polynomial(params, z)
    if np.any(np.asarray(r) <= 0.0):
        raise RZero("R(z) <= 0 inside the working interval: invalid parameter set")
    return 4.0 * z * z * (1.0 - z) ** 2 / r


def _generating_function_dz(params: NatanzonParams, z):
    r = r_polynomial(params, z)
    rp = 2.0 * params.p0 * z + (4.0 * params.c0 - params.p0 - params.q0)
    num = 4.0 * z * z * (1.0 - z) ** 2
    nump = 8.0 * z * (1.0 - z) * (1.0 - 2.0 * z)
    return (nump * r - num * rp) / (r * r)


def natanzon_potential(params: NatanzonParams, z):
    """Closed-form potential on z, with the z(z-1) pole cancelled analytically.

    The bracketed 1/(z(z-1)) singular factor is multiplied out against
    its squared companion before evaluation, so nothing here divides by
    z(z-1); the only genuine singularities left are the zeros of R.
    """
    z = np.asarray(z, dtype=float) if np.ndim(z) else float(z)
    r = r_polynomial(params, z)
    if np.any(np.asarray(r) <= 0.0):
        raise RZero("R(z) <= 0 at the requested points")
    num = params.a_p * z * z \
        - (params.a_p + params.a_q - 4.0 * params.a_c + 1.0) * z \
        + params.a_q + 2.0
    pole_factor = z * (z - 1.0)
    bracket_linear = (4.0 * params.c0 - params.q0) * (2.0 * z - 1.0) + params.p0
    delta = params.discriminant
    return num / r \
        + params.p0 * pole_factor ** 2 / r ** 2 \
        + bracket_linear * pole_factor / r ** 2 \
        - 1.25 * delta * pole_factor ** 2 / r ** 3


def mass_correction_terms(mass: MassProfile, ordering: OrderingParams, x):
    """The two mass-derivative correction terms (Vm, Um).

    Vm = m'^2/(8 m^3) [(1+2 eta)^2 + 4 eps (1+eta)] - eps m''/(4 m^2)
    Um = [(4 (1+2 eta)^2 + 16 eps (1+eta) + 5)/32] m'^2/m^3
         - (2 eps + 1)/8 * m''/m^2

    Both vanish identically for constant mass.
    """
    m = np.asarray(mass.m(x), dtype=float)
    mp = np.asarray(mass.m_prime(x), dtype=float)
    mpp = np.asarray(mass.m_double_prime(x), dtype=float)
    eta, eps = ordering.eta, ordering.epsilon
    sq = (1.0 + 2.0 * eta) ** 2
    cross = eps * (1.0 + eta)
    vm = mp * mp / (8.0 * m ** 3) * (sq + 4.0 * cross) - eps * mpp / (4.0 * m * m)
    um = (4.0 * sq + 16.0 * cross + 5.0) / 32.0 * mp * mp / m ** 3 \
        - (2.0 * eps + 1.0) / 8.0 * mpp / (m * m)
    return vm, um


def _radicands(params: NatanzonParams, energy: float):
    co = coeffs_at_energy(params, energy)
    return co.q + 2.0, co.p + 1.0, 4.0 * co.c + 1.0


def quantization_residual(params: NatanzonParams, energy, n,
                          form: str = "branch_rule"):
    """Residual of the quantization identity at (E, n), elementwise.

    form='branch_rule' evaluates sqrt(p+1) + sqrt(q+2) - sqrt(4c+1)
    - (2n+1), the sign assignment under which the identity is monotone
    in E and reproduces the closed-form spectrum.  form='verbatim'
    evaluates sqrt(q+2) - sqrt(p+1) - sqrt(4c+1) - (2n+1), kept for
    transparency; each square root is taken nonnegative either way.
    energy and n may be arrays that broadcast against each other.
    """
    if form not in ("branch_rule", "verbatim"):
        raise ValueError(f"unknown form {form!r}")
    rad_q, rad_p, rad_c = _radicands(params, energy)
    if np.any((rad_q < 0.0) | (rad_p < 0.0) | (rad_c < 0.0)):
        raise BranchViolation(
            f"negative radicand at E={energy}: q+2={rad_q}, p+1={rad_p}, 4c+1={rad_c}"
        )
    sq, sp, sc = np.sqrt(rad_q), np.sqrt(rad_p), np.sqrt(rad_c)
    if form == "branch_rule":
        return sp + sq - sc - (2.0 * n + 1.0)
    return sq - sp - sc - (2.0 * n + 1.0)


def default_energy_bracket(params: NatanzonParams) -> tuple:
    """Bound-state search window: negative energies bounded by the p-scale."""
    span = (math.sqrt(max(params.a_p + 1.0, 0.0)) + 1.0) ** 2
    return (-span, -_ROOT_TOL)


def _feasible_bracket(params: NatanzonParams, bracket) -> tuple | None:
    # each radicand is affine in E: -k0 E + k1 >= 0 caps the interval
    lo, hi = float(bracket[0]), float(bracket[1])
    for k0, k1 in ((params.q0, params.a_q + 2.0),
                   (params.p0, params.a_p + 1.0),
                   (4.0 * params.c0, 4.0 * params.a_c + 1.0)):
        if k0 > 0.0:
            hi = min(hi, k1 / k0)
        elif k0 < 0.0:
            lo = max(lo, k1 / k0)
        elif k1 < 0.0:
            return None
    if lo >= hi:
        return None
    pad = 1e-12 * (hi - lo)
    return lo + pad, hi - pad


def solve_spectrum(params: NatanzonParams, n_max: int) -> np.ndarray:
    """Roots E_n of the branch-rule quantization identity for n = 0..n_max.

    The default bracket is scanned on a uniform 64-cell subdivision, all
    levels in one array.  A level takes the first scan node where its
    residual is within _ROOT_TOL of zero; failing that, its lowest sign
    change is polished by one bisection call shared by all levels.
    Levels with no root inside the bracket are reported as NaN; the
    identity itself contains no mass profile, so neither does this
    function.
    """
    energies = np.full(n_max + 1, np.nan)
    feasible = _feasible_bracket(params, default_energy_bracket(params))
    if feasible is None:
        return energies
    grid = np.linspace(*feasible, 65)
    levels = np.arange(n_max + 1)
    vals = quantization_residual(params, grid, levels[:, None])
    hit = np.abs(vals) <= _ROOT_TOL
    change = vals[:, :-1] * vals[:, 1:] < 0.0
    exact = hit.any(axis=1)
    energies[exact] = grid[hit.argmax(axis=1)[exact]]
    polish = ~exact & change.any(axis=1)
    cell = change.argmax(axis=1)[polish]
    energies[polish] = bisect(lambda e: quantization_residual(params, e, levels[polish]),
                              grid[cell], grid[cell + 1])
    return energies


def labels_for_level(params: NatanzonParams, energy: float, n: int) -> GroupLabels:
    """Attach discrete-series labels to one quantization level.

    Under the branch rule the radicals identify delta = sqrt(q+2) -
    sqrt(p+1) and 2 j0 = sqrt(q+2) + sqrt(p+1); the Casimir eigenvalue
    is the energy-linear c, and j solves c = j(j+1).
    """
    rad_q, rad_p, rad_c = _radicands(params, energy)
    if rad_q < 0.0 or rad_p < 0.0:
        raise BranchViolation(f"negative radicand at E={energy}")
    sq, sp = math.sqrt(rad_q), math.sqrt(rad_p)
    c = coeffs_at_energy(params, energy).c
    if c + 0.25 < 0.0:
        raise BranchViolation(f"c + 1/4 < 0 at E={energy}")
    return GroupLabels(
        j=-0.5 + math.sqrt(c + 0.25),
        j0=0.5 * (sq + sp),
        n=n,
        c=c,
        delta=sq - sp,
    )


@dataclass(frozen=True)
class CoordinateMap:
    """Monotone coordinate map z(x) in [0, 1] built by ODE integration.

    Between the stored nodes z is a cubic Hermite interpolant; z''
    follows from differentiating z'^2 = 2 m S(z) once:
    z'' = m' sqrt(S/(2m)) + m dS/dz.
    """

    params: NatanzonParams
    mass: MassProfile
    xs: np.ndarray
    zs: np.ndarray
    dzs: np.ndarray

    def _hermite(self, x):
        x = np.asarray(x, dtype=float)
        step = self.xs[1] - self.xs[0]
        i = np.clip(((x - self.xs[0]) / step).astype(int), 0, self.xs.size - 2)
        t = (x - self.xs[i]) / step
        t2 = t * t
        t3 = t2 * t
        h00 = 2.0 * t3 - 3.0 * t2 + 1.0
        h10 = t3 - 2.0 * t2 + t
        h01 = -2.0 * t3 + 3.0 * t2
        h11 = t3 - t2
        return h00 * self.zs[i] + h10 * step * self.dzs[i] \
            + h01 * self.zs[i + 1] + h11 * step * self.dzs[i + 1]

    def z(self, x):
        return np.clip(self._hermite(x), 0.0, 1.0)

    def z_double_prime(self, x):
        zv = self.z(x)
        inside = (zv > 0.0) & (zv < 1.0)
        zv_safe = np.where(inside, zv, 0.5)
        s = generating_function(self.params, zv_safe)
        m = self.mass.m(x)
        mp = self.mass.m_prime(x)
        val = mp * np.sqrt(s / (2.0 * m)) + m * _generating_function_dz(self.params, zv_safe)
        return np.where(inside, val, 0.0)


def _map_rhs(params, mass, x, z):
    z = np.asarray(z, dtype=float)
    inside = (z > 0.0) & (z < 1.0)
    z_safe = np.where(inside, z, 0.5)
    s = generating_function(params, z_safe)
    val = np.sqrt(2.0 * mass.m(x) * s)
    return np.where(inside, val, 0.0)  # z = 0 and z = 1 are fixed points


def solve_coordinate_map(params: NatanzonParams, mass: MassProfile,
                         x0: float | None = None, z0: float = 0.5,
                         grid: Grid | None = None) -> CoordinateMap:
    """Integrate dz/dx = +sqrt(2 m(x) S(z)) through (x0, z0), both directions.

    Fixed-step RK4 with step = grid spacing / 4, anchored mid-interval by
    default because the right-hand side is singular-slow at both ends;
    the iterate is clamped to [0, 1] so the fixed points are never
    crossed.
    """
    if grid is None:
        grid = Grid(-6.0, 6.0, 1201)
    if x0 is None:
        x0 = 0.5 * (grid.x_min + grid.x_max)
    if not 0.0 <= z0 <= 1.0:
        raise ValueError(f"z0 must lie in [0, 1], got {z0}")
    mass.require_positive(grid.points)
    step = grid.spacing / 4.0

    def rhs(x, z):
        return float(_map_rhs(params, mass, x, z))

    def march(direction: int):
        h = direction * step
        x, z = float(x0), float(z0)
        xs, zs = [], []
        n_steps = int(math.ceil(abs((grid.x_max if direction > 0 else grid.x_min) - x0) / step))
        for _ in range(n_steps):
            k1 = rhs(x, z)
            k2 = rhs(x + 0.5 * h, z + 0.5 * h * k1)
            k3 = rhs(x + 0.5 * h, z + 0.5 * h * k2)
            k4 = rhs(x + h, z + h * k3)
            z = z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not math.isfinite(z):
                raise StiffBlowup(f"integration lost finiteness near x = {x}")
            z = min(max(z, 0.0), 1.0)
            x += h
            xs.append(x)
            zs.append(z)
        return xs, zs

    xs_fwd, zs_fwd = march(+1)
    xs_bwd, zs_bwd = march(-1)
    xs = np.array(xs_bwd[::-1] + [x0] + xs_fwd)
    zs = np.array(zs_bwd[::-1] + [z0] + zs_fwd)
    dzs = np.array([_map_rhs(params, mass, x, z) for x, z in zip(xs, zs)], dtype=float)
    return CoordinateMap(params=params, mass=mass, xs=xs, zs=zs, dzs=dzs)

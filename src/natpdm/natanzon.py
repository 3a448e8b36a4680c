"""Construction core for the energy-linear hypergeometric potential family.

Six real parameters (c0, p0, q0, a_c, a_p, a_q) fix coefficients that are
linear in the energy, c = -c0 E + a_c and so on.  From them follow the
quadratic R(z) = p0 z^2 + (4 c0 - p0 - q0) z + q0, the generating function
S(z) = 4 z^2 (1-z)^2 / R(z) that pins the coordinate map through
z'(x)^2 = 2 m(x) S(z(x)), the closed-form potential on z in [0, 1], the
von Roos ordering corrections, and the quantization identity whose roots
in E are the bound-state energies: every level is scanned in one array
and polished in one numerics.newton_bisect call.

The map separates in the logit s = ln(z/(1 - z)): with mu = int sqrt(2 m)
dx it reads dmu = sqrt(R(sigma(s)))/2 ds, sigma(s) = 1/(1 + e^-s), a
bounded right side.  So z(x) needs mu(x) from masses.travel_coordinate
(one quadrature over the cells between sorted points, whose work grows
with the number of points), one table of G(s), the integral of the right
side, and one newton_bisect solve of G(s) = mu(x), with G' the right side.
When q0 = 0, G is bounded below: z reaches 0 at a finite x, the fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import GroupLabels
from .masses import MassProfile, travel_coordinate
from .numerics import integrate, newton_bisect

__all__ = [
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
    """Coefficient triple at one energy."""

    c: float
    p: float
    q: float


@dataclass(frozen=True)
class OrderingParams:
    """von Roos ambiguity parameters; rho = -1 - eta - epsilon follows from them."""

    eta: float
    epsilon: float

    @property
    def rho(self) -> float:
        return -1.0 - self.eta - self.epsilon


BEN_DANIEL_DUKE = OrderingParams(eta=0.0, epsilon=-1.0)


def coeffs_at_energy(params: NatanzonParams, energy: float) -> EnergyCoeffs:
    """Evaluate the energy-linear coefficients at one energy."""
    return EnergyCoeffs(
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
        raise ZeroDivisionError("R(z) <= 0 inside the working interval: invalid parameter set")
    return 4.0 * z * z * (1.0 - z) ** 2 / r


def natanzon_potential(params: NatanzonParams, z):
    """Closed-form potential on z, with the z(z-1) pole cancelled analytically.

    The bracketed 1/(z(z-1)) singular factor is multiplied out against
    its squared companion before evaluation, so nothing here divides by
    z(z-1); the only genuine singularities left are the zeros of R.
    """
    z = np.asarray(z, dtype=float) if np.ndim(z) else float(z)
    r = r_polynomial(params, z)
    if np.any(np.asarray(r) <= 0.0):
        raise ZeroDivisionError("R(z) <= 0 at the requested points")
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


def quantization_residual(params: NatanzonParams, energy, n):
    """Residual of the quantization identity at (E, n), elementwise.

    Evaluates the branch rule sqrt(p+1) + sqrt(q+2) - sqrt(4c+1) - (2n+1),
    the sign assignment under which the identity is monotone in E and
    reproduces the closed-form spectrum; each square root is taken
    nonnegative.  energy and n may be arrays that broadcast against each
    other.
    """
    rad_q, rad_p, rad_c = _radicands(params, energy)
    if np.any((rad_q < 0.0) | (rad_p < 0.0) | (rad_c < 0.0)):
        raise ValueError(
            f"negative radicand at E={energy}: q+2={rad_q}, p+1={rad_p}, 4c+1={rad_c}"
        )
    return np.sqrt(rad_p) + np.sqrt(rad_q) - np.sqrt(rad_c) - (2.0 * n + 1.0)


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
    change is polished by one newton_bisect call shared by all levels,
    with the residual's exact E-derivative (each radicand is affine in E).
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
    cell, n = change.argmax(axis=1)[polish], levels[polish]

    def slope(e, _):
        rad_q, rad_p, rad_c = _radicands(params, e)
        return (2.0 * params.c0 / np.sqrt(rad_c) - 0.5 * params.p0 / np.sqrt(rad_p)
                - 0.5 * params.q0 / np.sqrt(rad_q))

    energies[polish] = newton_bisect(lambda e, i: quantization_residual(params, e, n[i]), slope,
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
        raise ValueError(f"negative radicand at E={energy}")
    sq, sp = math.sqrt(rad_q), math.sqrt(rad_p)
    c = coeffs_at_energy(params, energy).c
    if c + 0.25 < 0.0:
        raise ValueError(f"c + 1/4 < 0 at E={energy}")
    return GroupLabels(
        j=-0.5 + math.sqrt(c + 0.25),
        j0=0.5 * (sq + sp),
        n=n,
        c=c,
        delta=sq - sp,
    )


#: logit range tabulated for the map, where the logistic z is neither 0
#: nor 1 in double, and its step, the width of one inversion cell
_S_MIN, _S_MAX = -710.0, 37.0
_S_STEP = 0.0625
#: quadrature tolerance of the map, for both mu(x) and G(s)
_MAP_TOL = 1e-12


def _logistic(s):
    """sigma(s) = 1/(1 + e^-s), nondecreasing after rounding; 0 where e^-s overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-s))


def _half_root_r(params: NatanzonParams, s):
    """dmu/ds = sqrt(R(sigma(s)))/2, bounded on the whole line."""
    r = r_polynomial(params, _logistic(s))
    if np.any(r < 0.0):
        raise ZeroDivisionError("R(z) < 0 inside [0, 1]: invalid parameter set")
    return 0.5 * np.sqrt(r)


@dataclass(frozen=True)
class CoordinateMap:
    """Monotone coordinate map z(x) in [0, 1] through z(x0) = z0.

    The logit s = ln(z/(1 - z)) obeys dmu = sqrt(R(sigma(s)))/2 ds with
    mu = int_x0^x sqrt(2 m) dx.  G, the integral of the right side from
    s0 = logit(z0), is tabulated at the nodes s; z(x) solves G(s) = mu(x).
    """

    params: NatanzonParams
    mass: MassProfile
    x0: float
    s: np.ndarray
    g: np.ndarray
    anchor: int

    def z(self, x):
        """z at every x, from one travel_coordinate tabulation of mu(x); a scalar x gives a float.

        A non-finite x raises ValueError.
        """
        z = self.z_at_mu(travel_coordinate(self.mass, np.ravel(x), self.x0, _MAP_TOL))
        return float(z[0]) if np.ndim(x) == 0 else z.reshape(np.shape(x))

    def z_at_mu(self, mu: np.ndarray) -> np.ndarray:
        """z with G(logit z) = mu for every mu of a 1-d array, in one newton_bisect call.

        A mu below the table, left of the fold where R(0) = 0 bounds G
        below, gives z = 0; one above it gives z = 1.
        """
        cell = np.searchsorted(self.g, mu, side="right") - 1
        inside = (cell >= 0) & (cell < self.s.size - 1)
        k = cell[inside]
        # G was summed outward from the anchor node, so each cell's table
        # values are its near end plus or minus one cell integral: f starts
        # from that end and gives both ends the exact floats of the table
        near = np.where(k >= self.anchor, k, k + 1)
        g_near, s_near, target = self.g[near], self.s[near], mu[inside]
        s = newton_bisect(
            lambda v, i: g_near[i] + integrate(lambda t: _half_root_r(self.params, t),
                                               s_near[i], v, _MAP_TOL) - target[i],
            lambda v, i: _half_root_r(self.params, v), self.s[k], self.s[k + 1])
        z = np.where(cell < 0, 0.0, 1.0)
        z[inside] = _logistic(s)
        return z


def solve_coordinate_map(params: NatanzonParams, mass: MassProfile,
                         x0: float, z0: float) -> CoordinateMap:
    """The map with z'(x)^2 = 2 m(x) S(z(x)), z' >= 0, through (x0, z0).

    G is tabulated once, by one quadrature over cells of width _S_STEP
    that start at s0 = logit(z0) and cover [_S_MIN, _S_MAX].  z0 must lie
    in the open interval (0, 1): z = 0 and z = 1 are fixed points of the
    equation and define no map.
    """
    if not 0.0 < z0 < 1.0:
        raise ValueError(f"z0 must lie in the open interval (0, 1), got {z0}")
    s0 = math.log(z0) - math.log1p(-z0)
    # a z0 below sigma(_S_MIN) starts the table at s0 itself
    anchor = max(math.ceil((s0 - _S_MIN) / _S_STEP), 0)
    s = s0 + _S_STEP * np.arange(-anchor, math.ceil((_S_MAX - s0) / _S_STEP) + 1)
    cells = integrate(lambda t: _half_root_r(params, t), s[:-1], s[1:], _MAP_TOL)
    g = np.concatenate([-np.cumsum(cells[:anchor][::-1])[::-1], [0.0],
                        np.cumsum(cells[anchor:])])
    return CoordinateMap(params=params, mass=mass, x0=float(x0), s=s, g=g, anchor=anchor)

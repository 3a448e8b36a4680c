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
dx it reads dmu = sqrt(R(sigma(s)))/2 ds, sigma(s) = 1/(1 + e^-s), whose
right side integrates in closed form to G(s).  So z(x) takes mu(x) from
masses.travel_coordinate, the one quadrature, and one newton_bisect solve
of G(s) = G(s0) + mu(x).  When q0 = 0, G is bounded below: z reaches 0 at
a finite x, the fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import GroupLabels
from .masses import MassProfile, travel_coordinate
from .numerics import newton_bisect

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
    "solve_spectrum",
    "solve_coordinate_map",
    "labels_for_level",
]


#: the gap kept below E = 0
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


def _radicand_lines(params: NatanzonParams) -> tuple:
    """(k0, k1) of each radicand -k0 E + k1: q + 2, p + 1 and 4c + 1."""
    return ((params.q0, params.a_q + 2.0), (params.p0, params.a_p + 1.0),
            (4.0 * params.c0, 4.0 * params.a_c + 1.0))


def _radicands(params: NatanzonParams, energy):
    # each from its own line: taken through c, 4c + 1 near its zero keeps
    # only the digits of c0 E that survive the sum with a_c
    return tuple(-k0 * energy + k1 for k0, k1 in _radicand_lines(params))


def quantization_residual(params: NatanzonParams, energy, n):
    """Residual of the quantization identity at (E, n), elementwise.

    Evaluates the branch rule sqrt(p+1) + sqrt(q+2) - sqrt(4c+1) - (2n+1),
    the sign assignment that reproduces the closed-form spectrum on the
    Ginocchio slice, where the residual is monotone in E for E < 0; each
    square root is taken nonnegative.  energy and n may be arrays that
    broadcast against each other.
    """
    rad_q, rad_p, rad_c = _radicands(params, energy)
    if np.any((rad_q < 0.0) | (rad_p < 0.0) | (rad_c < 0.0)):
        raise ValueError(
            f"negative radicand at E={energy}: q+2={rad_q}, p+1={rad_p}, 4c+1={rad_c}"
        )
    return np.sqrt(rad_p) + np.sqrt(rad_q) - np.sqrt(rad_c) - (2.0 * n + 1.0)


def _root_window(params: NatanzonParams) -> tuple | None:
    """Bound-state window below E = 0 where no radicand is negative; None where it is empty.

    Each radicand is affine in E, -k0 E + k1 >= 0.  One with k0 > 0 caps
    the top; the window starts at the highest zero of one with k0 < 0, or
    where none has one, (sqrt(a_p + 1) + 1)^2 below E = 0.  Each end moves
    inwards by 1e-12 of its own size, so a radicand zero there rounds to
    no negative value and a wide window keeps its top.
    """
    hi, zeros = -_ROOT_TOL, []
    for k0, k1 in _radicand_lines(params):
        if k0 > 0.0:
            hi = min(hi, k1 / k0)
        elif k0 < 0.0:
            zeros.append(k1 / k0)
        elif k1 < 0.0:
            return None
    lo = max(zeros) if zeros else -(math.sqrt(max(params.a_p + 1.0, 0.0)) + 1.0) ** 2
    lo, hi = lo + 1e-12 * abs(lo), hi - 1e-12 * abs(hi)
    return (lo, hi) if lo < hi else None


def solve_spectrum(params: NatanzonParams, n_max: int) -> np.ndarray:
    """Roots E_n of the branch-rule quantization identity for n = 0..n_max.

    The root window is scanned on a uniform 64-cell subdivision, all
    levels in one array.  Each level's lowest cell whose ends do not share
    a sign, a zero at a node included, is polished by one newton_bisect
    call shared by all levels, with the residual's exact E-derivative
    (each radicand is affine in E); a root on a node comes back as the
    lowest float of the run of zeros through it.  Levels with no root
    inside the window are reported as NaN; the identity itself contains no
    mass profile, so neither does this function.
    """
    energies = np.full(n_max + 1, np.nan)
    window = _root_window(params)
    if window is None:
        return energies
    grid = np.linspace(*window, 65)
    levels = np.arange(n_max + 1)
    vals = quantization_residual(params, grid, levels[:, None])
    change = vals[:, :-1] * vals[:, 1:] <= 0.0
    polish = change.any(axis=1)
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
    is the energy-linear c, and j solves c = j(j+1): 2j + 1 = sqrt(4c + 1).
    """
    rad_q, rad_p, rad_c = _radicands(params, energy)
    if rad_q < 0.0 or rad_p < 0.0 or rad_c < 0.0:
        raise ValueError(f"negative radicand at E={energy}")
    sq, sp = math.sqrt(rad_q), math.sqrt(rad_p)
    return GroupLabels(
        j=-0.5 + math.sqrt(rad_c / 4.0),
        j0=0.5 * (sq + sp),
        n=n,
        c=coeffs_at_energy(params, energy).c,
        delta=sq - sp,
    )


#: quadrature tolerance of mu(x)
_MAP_TOL = 1e-12


def _logistic(s):
    """sigma(s) = 1/(1 + e^-s), nondecreasing after rounding; 0 where e^-s overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-s))


def _log_term(k: float, t, log_w, r, delta: float):
    """sqrt(k)/2 ln|2 sqrt(k R) + t| / w, 0 at k = 0, where (2 sqrt(k R))^2 - t^2 = -w^2 Delta.

    A negative t cancels the sum, so there it is w^2 |Delta| / (2 sqrt(k R) + |t|); t
    changes sign on (0, 1) only where Delta < 0, so only there is ln|Delta| kept.
    """
    if k == 0.0:
        return 0.0
    far = np.log(2.0 * np.sqrt(k * r) + np.abs(t))
    near = log_w - far + (math.log(-delta) if delta < 0.0 else 0.0)
    return 0.5 * math.sqrt(k) * np.where(t < 0.0, near, far - log_w)


def _map_integral(params: NatanzonParams, s):
    """G(s) = int sqrt(R(sigma(s)))/2 ds in closed form, up to a constant.

    ds = dz/(z(1 - z)) splits G into one logarithm per end of [0, 1] and
    one for R's leading term (Gradshteyn & Ryzhik 2.26), b = 4 c0 - p0 - q0:
        G =   sqrt(c0)   ln|4 sqrt(c0 R) + 8 c0 - (2 p0 + b)(1 - z)| / (1 - z)
            - sqrt(q0)/2 ln|2 sqrt(q0 R) + 2 q0 + b z| / z
            - sqrt(p0)/2 ln|2 sqrt(p0 R) + 2 p0 z + b|,
    the last -sqrt(-p0)/2 arctan2(2 p0 z + b, 2 sqrt(-p0 R)) for p0 < 0.
    z, 1 - z and their logarithms are each taken from s, so neither end
    rounds away; G(-inf) is finite where q0 = 0 and G(inf) where c0 = 0.
    """
    z, w = _logistic(s), _logistic(-s)
    c0, p0, q0, delta = params.c0, params.p0, params.q0, params.discriminant
    r = q0 * w + 4.0 * c0 * z - p0 * z * w  # R, precise at both ends
    b = 4.0 * c0 - p0 - q0
    g = _log_term(4.0 * c0, 8.0 * c0 - (2.0 * p0 + b) * w, -np.logaddexp(0.0, s), r, delta) \
        - _log_term(q0, 2.0 * q0 + b * z, -np.logaddexp(0.0, -s), r, delta)
    if p0 < 0.0:
        return g - 0.5 * math.sqrt(-p0) * np.arctan2(2.0 * p0 * z + b, 2.0 * np.sqrt(-p0 * r))
    return g - _log_term(p0, 2.0 * p0 * z + b, 0.0, r, delta)


@dataclass(frozen=True)
class CoordinateMap:
    """Monotone z(x) = sigma(s) in [0, 1], G(s) = G(s0) + int_x0^x sqrt(2 m) dx, z0 = sigma(s0)."""

    params: NatanzonParams
    mass: MassProfile
    x0: float
    s0: float

    def z(self, x):
        """z at every x, from one travel_coordinate tabulation of mu(x); a scalar x gives a float.

        A non-finite x raises ValueError.
        """
        z = self.z_at_mu(travel_coordinate(self.mass, np.ravel(x), self.x0, _MAP_TOL))
        return float(z[0]) if np.ndim(x) == 0 else z.reshape(np.shape(x))

    def z_at_mu(self, mu: np.ndarray) -> np.ndarray:
        """z with G(logit z) = G(s0) + mu for every mu of a 1-d array, in one newton_bisect call.

        Each bracket ends at s0 +- w, w doubled from 1 until G passes its target,
        and starts at s0 +- w/2, or s0.  A mu that reaches a fold, where G is
        finite, gives that end.
        """
        g0, g_min, g_max = _map_integral(self.params, np.array([self.s0, -np.inf, np.inf]))
        target = g0 + mu
        inside = (g_min < target) & (target < g_max)
        g, side = target[inside], np.sign(mu[inside])
        near, far = np.full_like(g, self.s0), self.s0 + side
        while np.any(short := side * (_map_integral(self.params, far) - g) < 0.0):
            near[short], far[short] = far[short], self.s0 + 2.0 * (far[short] - self.s0)
        s = newton_bisect(lambda v, i: _map_integral(self.params, v) - g[i],
                          lambda v, i: 0.5 * np.sqrt(r_polynomial(self.params, _logistic(v))),
                          np.minimum(near, far), np.maximum(near, far))
        z = np.where(target <= g_min, 0.0, 1.0)
        z[inside] = _logistic(s)
        return z


def solve_coordinate_map(params: NatanzonParams, mass: MassProfile,
                         x0: float, z0: float) -> CoordinateMap:
    """The map with z'(x)^2 = 2 m(x) S(z(x)), z' >= 0, through (x0, z0).

    z0 must lie in (0, 1): z = 0 and z = 1 are fixed points of the equation.
    A set with R < 0 somewhere in [0, 1], or with a double root of R there,
    where G jumps, raises ZeroDivisionError.
    """
    if not 0.0 < z0 < 1.0:
        raise ValueError(f"z0 must lie in the open interval (0, 1), got {z0}")
    c0, p0, q0 = params.c0, params.p0, params.q0
    # R's least value on [0, 1] is q0, 4 c0, or -Delta/(4 p0) at a convex R's vertex
    vertex_inside = p0 > 0.0 and 0.0 <= p0 + q0 - 4.0 * c0 <= 2.0 * p0
    if min(c0, q0) < 0.0 or (vertex_inside and params.discriminant >= 0.0) \
            or c0 == p0 == q0 == 0.0:
        raise ZeroDivisionError("R(z) < 0 or a double root of R in [0, 1]: invalid parameter set")
    return CoordinateMap(params, mass, float(x0), math.log(z0) - math.log1p(-z0))

"""The Ginocchio specialization: a two-parameter (gamma, j) family.

The construction parameters collapse to c0 = 1/(4 gamma^4), a_c = -1/4,
p0 = (1 - gamma^2)/gamma^4, a_p = (j + 1/2)^2 - 1, q0 = 0, a_q = -7/4.
The coordinate map is known only implicitly: the dimensionless travel
coordinate mu = integral sqrt(2 m) dx has a closed form in the auxiliary
variable u (where the construction variable is z = tanh^2 u), and u(mu)
is recovered numerically by bisection on the closed form.

Note on symbols: the hyperbolic closed forms reuse one letter for the
integration variable; here it is always called u, keeping z for the
construction variable in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .masses import MassProfile
from .natanzon import NatanzonParams, OrderingParams, mass_correction_terms
from .numerics import Grid

__all__ = [
    "IndexOutOfRange",
    "GinocchioSpec",
    "ASSEMBLY_VARIANTS",
    "params_for",
    "mu_closed_form",
    "mass_integral",
    "invert_mu",
    "v_hyperbolic",
    "y_of_u",
    "v_polynomial",
    "spectrum_closed_form",
    "PotentialTable",
    "potential_on_x_grid",
]

#: how the tabulated total potential is assembled from the hyperbolic
#: closed form and the mass-correction terms
ASSEMBLY_VARIANTS = ("v_plus_um", "v_minus_um", "v_plus_um_vm", "v_only")


class IndexOutOfRange(ValueError):
    """Level index outside 0..floor(j)."""


@dataclass(frozen=True)
class GinocchioSpec:
    """Deformation parameter gamma > 0 and potential-strength label j >= 0."""

    gamma: float
    j: float

    def __post_init__(self) -> None:
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.j < 0.0:
            raise ValueError(f"j must be non-negative, got {self.j}")


def params_for(gamma: float, j: float) -> NatanzonParams:
    """Construction parameters of the (gamma, j) member."""
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    g2 = gamma * gamma
    g4 = g2 * g2
    return NatanzonParams(
        c0=1.0 / (4.0 * g4),
        p0=(1.0 - g2) / g4,
        q0=0.0,
        a_c=-0.25,
        a_p=(j + 0.5) ** 2 - 1.0,
        a_q=-1.75,
    )


def _bounded_terms(gamma: float, u):
    """(|u|, e, w, q) with e = exp(-|u|), w = 1 - e^2 and q = sqrt(w^2 + 4 gamma^2 e^2).

    With D = sqrt(gamma^2 + sinh^2 u) these give |sinh u|/D = w/q and
    1/D = 2 e/q.  Every factor lies in a bounded range, so the closed
    forms built on them stay finite for every finite u, where sinh^2 u
    itself overflows past |u| ~ 355.
    """
    a = np.abs(u)
    e = np.exp(-a)
    w = -np.expm1(-2.0 * a)
    return a, e, w, np.sqrt(w * w + 4.0 * gamma * gamma * e * e)


def mu_closed_form(gamma: float, u):
    """Closed-form antiderivative of the mass integral in the u variable.

    mu(u) = arctanh(sinh u / D)/gamma^2 + sqrt(gamma^2-1)/gamma^2 *
    arctan(sqrt(gamma^2-1) sinh u / D) with D = sqrt(gamma^2 + sinh^2 u);
    for gamma < 1 the second term continues to an arctanh with real
    coefficients, and at gamma = 1 it vanishes so mu = u.  Odd and
    strictly increasing in u for every gamma > 0.
    """
    g2 = gamma * gamma
    a, _, w, q = _bounded_terms(gamma, u)
    # arctanh(|sinh u|/D) = ln((D + |sinh u|)/gamma) = |u| + ln((q + w)/(2 gamma))
    out = (a + np.log((q + w) / (2.0 * gamma))) / g2
    if gamma > 1.0:
        k = math.sqrt(g2 - 1.0)
        out = out + k / g2 * np.arctan(k * w / q)
    elif gamma < 1.0:
        # real continuation of the gamma > 1 arctan term via atan(ix) = i atanh(x)
        k = math.sqrt(1.0 - g2)
        out = out - k / g2 * np.arctanh(k * w / q)
    return np.copysign(out, u)


def mass_integral(gamma: float, z: float) -> float:
    """Travel coordinate as the quadrature (1/2 gamma^2) int_0^z ds sqrt(1 - g^2 + g^2/s)/(1-s).

    The integrand carries an s^(-1/2) endpoint singularity at s = 0, so
    the quadrature runs under the s = t^2 substitution.  Agrees with the
    closed form through mu_closed_form(gamma, arctanh(sqrt(z))).
    """
    if not 0.0 <= z < 1.0:
        raise ValueError(f"z must lie in [0, 1), got {z}")
    if z == 0.0:
        return 0.0
    g2 = gamma * gamma

    def integrand(s):
        return math.sqrt(1.0 - g2 + g2 / s) / (1.0 - s)

    return numerics.integrate(integrand, 0.0, z, 1e-10, sqrt_singularity="lower") / (2.0 * g2)


def invert_mu(gamma: float, mu):
    """u with mu_closed_form(gamma, u) = mu, elementwise, by bisection.

    mu is odd in u, so only |mu| is bracketed and the sign restored.
    mu' lies between 1/gamma and 1/gamma^2, so u lies in
    [0, |mu| max(1, gamma^2)]; an upper end that rounding leaves short of
    its target is doubled.  All brackets are then halved together until
    their two ends are adjacent floats.  A scalar mu gives a float; a mu
    with no finite u, such as a non-finite one, raises ValueError.
    """
    mu = np.asarray(mu, dtype=float)
    if gamma == 1.0:
        u = mu  # mu(u) = u exactly at gamma = 1
    else:
        target = np.abs(mu)
        lo = np.zeros_like(target)
        hi = target * max(1.0, gamma * gamma)
        while np.any(short := mu_closed_form(gamma, hi) < target):
            hi = np.where(short, 2.0 * hi, hi)
        # mu(lo) < target <= mu(hi) holds throughout, so a bracket already
        # down to adjacent floats is left unchanged by one more step
        while np.any((lo < (mid := 0.5 * (lo + hi))) & (mid < hi)):
            below = mu_closed_form(gamma, mid) < target
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        u = np.copysign(hi, mu)
    if not np.all(np.isfinite(u)):
        raise ValueError("no finite u solves mu_closed_form(gamma, u) = mu")
    return float(u) if np.ndim(u) == 0 else u


def v_hyperbolic(gamma: float, j: float, u):
    """Hyperbolic form of the potential in the u variable.

    All gamma-deformation terms carry (gamma^2 - 1) factors, so at
    gamma = 1 the potential collapses to -j(j+1)/cosh^2 u.  Evaluated
    through r = 1/(gamma^2 + sinh^2 u), which lies in [0, 1/gamma^2].
    """
    g2 = gamma * gamma
    _, e, _, q = _bounded_terms(gamma, u)
    r = (2.0 * e / q) ** 2
    return -g2 * g2 * (j * (j + 1.0) - g2 + 1.0) * r \
        - 0.75 * g2 * g2 * (3.0 * g2 - 1.0) * (g2 - 1.0) * r ** 2 \
        + 1.25 * g2 ** 3 * (g2 - 1.0) ** 2 * r ** 3


def y_of_u(gamma: float, u):
    """y = sinh u / sqrt(gamma^2 + sinh^2 u), odd, with range (-1, 1)."""
    _, _, w, q = _bounded_terms(gamma, u)
    return np.copysign(w / q, u)


def v_polynomial(gamma: float, j: float, y):
    """Polynomial form of the potential in the y variable."""
    y2 = np.asarray(y) ** 2 if np.ndim(y) else float(y) ** 2
    g2 = gamma * gamma
    bracket = -g2 * j * (j + 1.0) + (1.0 - g2) / 4.0 * (
        2.0 - (7.0 - g2) * y2 + 5.0 * (1.0 - g2) * y2 * y2
    )
    return bracket * (1.0 - y2)


def spectrum_closed_form(gamma: float, j: float, n: int) -> float:
    """Closed-form level, verbatim: -[sqrt((1-g^2)(2n+1/2)^2 + g^2 (j+1/2)^2) - (2n+1/2)]^2.

    Valid for integer n in 0..floor(j); raises IndexOutOfRange beyond
    that, and ValueError if the radicand leaves the reals (possible for
    gamma > 1 at large n).
    """
    if n < 0 or n > math.floor(j):
        raise IndexOutOfRange(f"n must lie in 0..{math.floor(j)}, got {n}")
    g2 = gamma * gamma
    half_odd = 2.0 * n + 0.5
    radicand = (1.0 - g2) * half_odd ** 2 + g2 * (j + 0.5) ** 2
    if radicand < 0.0:
        raise ValueError(f"radicand {radicand} < 0: closed form leaves the reals")
    return -(math.sqrt(radicand) - half_odd) ** 2


@dataclass(frozen=True)
class PotentialTable:
    """Sampled potential assembly on a physical grid."""

    gamma: float
    j: float
    assembly: str
    x: np.ndarray
    m: np.ndarray
    mu: np.ndarray
    u: np.ndarray
    z: np.ndarray
    v_hyp: np.ndarray
    v_poly: np.ndarray
    um: np.ndarray
    vm: np.ndarray
    v_total: np.ndarray


def potential_on_x_grid(gamma: float, j: float, mass: MassProfile,
                        ordering: OrderingParams, grid: Grid,
                        assembly: str = "v_plus_um", tol: float = 1e-10) -> PotentialTable:
    """Tabulate the full position-dependent-mass potential on a grid.

    mu by cumulative per-cell quadrature of sqrt(2 m) to tolerance tol,
    anchored at x = 0; u from one inversion of the whole mu column; then
    the hyperbolic form plus the selected combination of mass-correction
    terms.  The default assembly v_hyp + Um is the one whose spectra stay
    mass independent.
    """
    if assembly not in ASSEMBLY_VARIANTS:
        raise ValueError(f"assembly must be one of {ASSEMBLY_VARIANTS}, got {assembly!r}")
    if not grid.x_min <= 0.0 <= grid.x_max:
        raise ValueError(f"anchor x = 0 outside grid [{grid.x_min}, {grid.x_max}]")
    pts = grid.points
    mass.require_positive(pts)

    def speed(x):
        return math.sqrt(2.0 * float(mass.m(x)))

    cell = np.empty(grid.n_points)
    cell[0] = 0.0
    for i in range(1, grid.n_points):
        cell[i] = numerics.integrate(speed, pts[i - 1], pts[i], tol)
    mu = np.cumsum(cell)
    mu -= mu[0] + numerics.integrate(speed, pts[0], 0.0, tol)

    u = invert_mu(gamma, mu)
    # tanh^2 rounds to 1.0 for |u| beyond ~19; the exact value is < 1,
    # so round toward the open interval instead
    z = np.minimum(np.tanh(u) ** 2, np.nextafter(1.0, 0.0))
    vhyp = v_hyperbolic(gamma, j, u)
    vpoly = v_polynomial(gamma, j, y_of_u(gamma, u))
    vm, um = mass_correction_terms(mass, ordering, pts)
    if assembly == "v_plus_um":
        vtot = vhyp + um
    elif assembly == "v_minus_um":
        vtot = vhyp - um
    elif assembly == "v_plus_um_vm":
        vtot = vhyp + um + vm
    else:
        vtot = vhyp.copy()
    return PotentialTable(
        gamma=gamma, j=j, assembly=assembly, x=pts, m=np.asarray(mass.m(pts), dtype=float),
        mu=mu, u=u, z=z, v_hyp=vhyp, v_poly=vpoly, um=um, vm=vm, v_total=vtot,
    )

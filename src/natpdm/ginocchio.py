"""The Ginocchio specialization: a two-parameter (gamma, j) family.

The construction parameters collapse to c0 = 1/(4 gamma^4), a_c = -1/4,
p0 = (1 - gamma^2)/gamma^4, a_p = (j + 1/2)^2 - 1, q0 = 0, a_q = -7/4.
The coordinate map is known only implicitly: the dimensionless travel
coordinate mu = integral sqrt(2 m) dx has a closed form in the auxiliary
variable u (where the construction variable is z = tanh^2 u), and u(mu)
is recovered by numerics.newton_bisect on the closed form with its exact
derivative.  A table takes its mu column, anchored at x = 0, from
masses.travel_coordinate: one quadrature call over its grid cells, whose
work grows with the number of points.  It inverts that whole column in
one invert_mu call.

Note on symbols: the hyperbolic closed forms reuse one letter for the
integration variable; here it is always called u, keeping z for the
construction variable in [0, 1].
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics
from .masses import MassProfile, travel_coordinate
from .natanzon import NatanzonParams, OrderingParams, mass_correction_terms
from .numerics import Grid

__all__ = [
    "QUAD_TOL",
    "InversionFailure",
    "params_for",
    "mu_closed_form",
    "mass_integral",
    "invert_mu",
    "v_hyperbolic",
    "y_of_u",
    "v_polynomial",
    "spectrum_closed_form",
    "potential_on_x_grid",
]

#: quadrature tolerance of a table's mu column (masses.travel_coordinate)
QUAD_TOL = 1e-10


class InversionFailure(ValueError):
    """No finite u solves mu_closed_form(gamma, u) = mu."""


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
    # w rounds to 1 from |u| ~ 19 on; the clip keeps 2 |u| from
    # overflowing near the double range
    w = -np.expm1(-2.0 * np.minimum(a, 400.0))
    return a, e, w, np.sqrt(w * w + 4.0 * gamma * gamma * e * e)


def mu_closed_form(gamma: float, u):
    """Closed-form antiderivative of the mass integral in the u variable.

    mu(u) = arctanh(sinh u / D)/gamma^2 + sqrt(gamma^2-1)/gamma^2 *
    arctan(sqrt(gamma^2-1) sinh u / D) with D = sqrt(gamma^2 + sinh^2 u);
    for gamma < 1 the second term continues to an arctanh with real
    coefficients, and at gamma = 1 it vanishes so mu = u.  Odd and
    strictly increasing in u for every gamma > 0.  Where mu passes the
    double range, as |u|/gamma^2 does at small gamma, it is +-inf.
    """
    g2 = gamma * gamma
    a, _, w, q = _bounded_terms(gamma, u)
    # arctanh(|sinh u|/D) = ln((D + |sinh u|)/gamma) = |u| + ln((q + w)/(2 gamma))
    with np.errstate(over="ignore"):
        out = (a + np.log((q + w) / (2.0 * gamma))) / g2
    if gamma > 1.0:
        k = math.sqrt(g2 - 1.0)
        out = out + k / g2 * np.arctan(k * w / q)
    elif gamma < 1.0:
        # real continuation of the gamma > 1 arctan term via atan(ix) = i atanh(x)
        k = math.sqrt(1.0 - g2)
        out = out - k / g2 * np.arctanh(k * w / q)
    return np.copysign(out, u)


def mass_integral(gamma: float, z):
    """Travel coordinate as the quadrature (1/2 gamma^2) int_0^z ds sqrt(1 - g^2 + g^2/s)/(1-s).

    The integrand carries an s^(-1/2) endpoint singularity at s = 0,
    which the substitution s = t^2 removes: the quadrature runs over
    [0, sqrt z] on the bounded 2 sqrt(g^2 + (1 - g^2) t^2)/(1 - t^2).
    Elementwise in z, all in one quadrature call; a scalar z gives a
    float.  Agrees with the closed form through mu_closed_form(gamma,
    arctanh(sqrt(z))).
    """
    z = np.asarray(z, dtype=float)
    if not np.all((0.0 <= z) & (z < 1.0)):
        raise ValueError(f"z must lie in [0, 1), got {z}")
    g2 = gamma * gamma

    def integrand(t):
        return 2.0 * np.sqrt(g2 + (1.0 - g2) * t * t) / (1.0 - t * t)

    return numerics.integrate(integrand, 0.0, np.sqrt(z), 1e-10) / (2.0 * g2)


def _mu_prime(gamma: float, u):
    """mu'(u) = sqrt(gamma^2 + (1 - gamma^2) tanh^2 u)/gamma^2, the exact derivative of mu.

    Written as q/((1 + e^2) gamma^2) in the bounded terms, so it neither
    cancels at large gamma nor overflows at large |u|.
    """
    _, e, _, q = _bounded_terms(gamma, u)
    return q / ((1.0 + e * e) * (gamma * gamma))


def invert_mu(gamma: float, mu):
    """u with mu_closed_form(gamma, u) = mu, elementwise.

    mu is odd, so t = |mu| is inverted by one numerics.newton_bisect call
    on f = mu_closed_form(gamma, .) - t with its derivative _mu_prime, and
    the sign restored.  mu' lies in [1/gamma, 1/gamma^2], so the bracket
    [0, 2 t max(1, gamma^2)] holds the root unless rounding near u = 0
    leaves mu short of t there, where its end is doubled.  mu, convex in
    u >= 0 for gamma < 1 and concave above, is approached from one side by
    Newton from u = gamma t.  Each |u| is the upper end of an adjacent-float
    sign change of f.  gamma = 1 gives u = mu.  A scalar mu gives a float;
    a non-finite mu, or one whose bracket overflows, raises InversionFailure.
    """
    mu = np.asarray(mu, dtype=float)
    t = np.abs(mu).ravel()
    with np.errstate(over="ignore"):
        hi = 2.0 * t * max(1.0, gamma * gamma)
        while gamma != 1.0 and np.any(short := mu_closed_form(gamma, hi) < t):
            hi = np.where(short, 2.0 * hi, hi)
    # mu(u) = u exactly at gamma = 1; elsewhere a bracket that overflows is refused
    if not np.all(np.isfinite(mu if gamma == 1.0 else hi)):
        raise InversionFailure("no finite u solves mu_closed_form(gamma, u) = mu")
    u = mu if gamma == 1.0 else np.copysign(numerics.newton_bisect(
        lambda v, i: mu_closed_form(gamma, v) - t[i], lambda v, i: _mu_prime(gamma, v),
        0.0, hi, gamma * t).reshape(mu.shape), mu)
    return float(u) if u.ndim == 0 else u


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

    Valid for integer n in 0..floor(j); raises ValueError beyond that,
    and where the radicand leaves the reals (possible for gamma > 1 at
    large n).
    """
    if n < 0 or n > math.floor(j):
        raise ValueError(f"n must lie in 0..{math.floor(j)}, got {n}")
    g2 = gamma * gamma
    half_odd = 2.0 * n + 0.5
    radicand = (1.0 - g2) * half_odd ** 2 + g2 * (j + 0.5) ** 2
    if radicand < 0.0:
        raise ValueError(f"radicand {radicand} < 0: closed form leaves the reals")
    return -(math.sqrt(radicand) - half_odd) ** 2


def potential_on_x_grid(gamma: float, j: float, mass: MassProfile,
                        ordering: OrderingParams, grid: Grid) -> dict:
    """Tabulate the full position-dependent-mass potential on a grid.

    mu from travel_coordinate, anchored at x = 0, to tolerance QUAD_TOL; u
    from one inversion of the whole mu column; then the total V_hyp + Um,
    the hyperbolic form plus the von Roos mass term Um, whose bound
    levels do not depend on the mass.  Returns the columns `natpdm
    potential` prints, in print order, as arrays keyed by their printed
    names: x, m, mu, u, z, V_hyp, V_poly, Um, V_total.
    """
    pts = grid.points
    # a mu past the double range comes out inf or nan; invert_mu rejects it
    mu = travel_coordinate(mass, pts, 0.0, QUAD_TOL)
    u = invert_mu(gamma, mu)
    # tanh^2 rounds to 1.0 for |u| beyond ~19; the exact value is < 1,
    # so round toward the open interval instead
    z = np.minimum(np.tanh(u) ** 2, np.nextafter(1.0, 0.0))
    vhyp = v_hyperbolic(gamma, j, u)
    _, um = mass_correction_terms(mass, ordering, pts)
    return {"x": pts, "m": np.asarray(mass.m(pts), dtype=float), "mu": mu, "u": u, "z": z,
            "V_hyp": vhyp, "V_poly": v_polynomial(gamma, j, y_of_u(gamma, u)),
            "Um": um, "V_total": vhyp + um}

"""The Ginocchio specialization: a two-parameter (gamma, j) family.

The construction parameters collapse to c0 = 1/(4 gamma^4), a_c = -1/4,
p0 = (1 - gamma^2)/gamma^4, a_p = (j + 1/2)^2 - 1, q0 = 0, a_q = -7/4.
The coordinate map is known only implicitly: the dimensionless travel
coordinate mu = integral sqrt(2 m) dx has a closed form in the auxiliary
variable u (where the construction variable is z = tanh^2 u), and u(mu)
is recovered numerically: Newton's method on the closed form, each point
on its own, then a one-float check that the root is bracketed, and a
narrow bisection for the points the check leaves.  A table takes its mu
column, anchored at x = 0, from masses.travel_coordinate: one quadrature
call over its grid cells, whose work grows with the number of points.
It inverts that whole column in one invert_mu call.

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
    "IndexOutOfRange",
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

class IndexOutOfRange(ValueError):
    """Level index outside 0..floor(j)."""


class InversionFailure(ValueError):
    """No finite u solves mu_closed_form(gamma, u) = mu."""


# Newton on mu(u) = t freezes a point one step after its step falls
# below _FREEZE (|u| + 1), or below mu's rounding noise; _NEWTON_STEPS
# only bounds a point that does neither
_FREEZE = 2.0 ** -26
_NEWTON_STEPS = 64
# mu_closed_form's rounding noise, in u, stays below _NOISE (|u| + mu/mu'
# + max(1, gamma^-2)): its logarithm is off by about eps absolutely near
# u = 0, for gamma < 1 its two terms, each near 1/gamma^2, cancel, and for
# large gamma its arctan term, near pi/(2 gamma), outweighs u/gamma^2
_NOISE = 2.0 ** -49
# where that noise spans more than _MIN_SHRINK of the bracket from zero,
# a narrow bracket would save fewer halvings than Newton costs
_MIN_SHRINK = 2.0 ** -8
# brackets whose halvings differ only in their low _GROUP_BITS bits
# share a numerics.bisect call
_GROUP_BITS = 4
# one mu_closed_form call on this many points costs about what it costs
# on one point (about 1.2 times, 20 us, on a 2-vCPU x86-64 host)
_CALL_POINTS = 256


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


def _noise(gamma: float, u, t, slope):
    """A bound on mu_closed_form's rounding noise near u, in units of u.

    t is about mu(u) and slope about mu'(u): a relative error in mu
    moves u by that error times t/slope.
    """
    return _NOISE * (np.abs(u) + t / slope + max(1.0, 1.0 / (gamma * gamma)))


def _newton(gamma: float, t: np.ndarray):
    """Newton iterates for mu(u) = t > 0 from u = gamma t, with each point's last step and slope.

    mu is convex in u >= 0 for gamma < 1 and concave for gamma > 1, and
    mu'(0) = 1/gamma, so the iterates approach the root from one side.
    Each point stops on its own, one step after a step below _FREEZE
    (|u| + 1) or below the noise, so its iterates never depend on
    another point's.
    """
    u = gamma * t
    step = np.zeros_like(t)
    slope = np.ones_like(t)
    small = np.zeros(t.size, dtype=bool)
    live = np.arange(t.size)
    for _ in range(_NEWTON_STEPS):
        if not live.size:
            break
        v = u[live]
        d = _mu_prime(gamma, v)
        s = (mu_closed_form(gamma, v) - t[live]) / d
        u[live], step[live], slope[live] = v - s, s, d
        done = small[live]  # their previous step was small: this was the one more
        small[live] = np.abs(s) <= np.maximum(_FREEZE * (np.abs(v) + 1.0),
                                              _noise(gamma, v, t[live], d))
        live = live[~done & np.isfinite(s)]
    return u, step, slope


def _bisect(gamma: float, t: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """numerics.bisect on mu(u) - t over brackets with mu(lo) < t <= mu(hi).

    Each step of numerics.bisect costs about one call's overhead, which
    a small batch cannot spread.  So a batch of n brackets first takes d
    = log2(_CALL_POINTS/n) halvings per mu_closed_form call: it
    evaluates the 2^d - 1 midpoints of all d levels below each bracket
    at once and keeps the leaf whose ancestors all send bisect its way.
    Those are the midpoints numerics.bisect computes, so every bracket
    ends on the float numerics.bisect alone ends it on, whatever the
    batch.
    """
    depth = (_CALL_POINTS // max(t.size, 1)).bit_length() - 1
    # below 2^1023 no two ends sum past the double range, so 0.5 (lo + hi)
    # is the midpoint numerics.bisect takes
    if depth >= 2 and np.all(hi < 2.0 ** 1023):
        leaf = np.arange(2 ** depth)[:, None]
        shift = np.arange(depth, 0, -1)
        # the d midpoints bisect visits on its way to [leaf, leaf + 1], and
        # whether it keeps its lo end there (goes right) on that way
        visit = (leaf >> shift << shift) + (1 << (shift - 1))
        right = (visit <= leaf)[:, :, None]
        cols = np.arange(t.size)
        while np.any((lo < (mid := 0.5 * (lo + hi))) & (mid < hi)):
            tree = np.empty((2 ** depth + 1, t.size))
            tree[0], tree[-1] = lo, hi
            for s in (1 << np.arange(depth - 1, -1, -1)).tolist():
                tree[s::2 * s] = 0.5 * (tree[:-s:2 * s] + tree[2 * s::2 * s])
            below = mu_closed_form(gamma, tree) < t
            k = np.argmax(np.all(below[visit] == right, axis=1), axis=0)
            lo, hi = tree[k, cols], tree[k + 1, cols]
    return numerics.bisect(lambda v: mu_closed_form(gamma, v) - t, lo, hi)


def _from_zero(gamma: float, t: np.ndarray):
    """Root of mu(u) = t > 0 bisected from [0, t max(1, gamma^2)].

    mu' lies between 1/gamma and 1/gamma^2, so the root lies in that
    bracket; an upper end that rounding leaves short is doubled.
    """
    hi = t * max(1.0, gamma * gamma)
    while np.any(short := mu_closed_form(gamma, hi) < t):
        hi = np.where(short, 2.0 * hi, hi)
    return _bisect(gamma, t, np.zeros_like(t), hi)


def invert_mu(gamma: float, mu):
    """u with mu_closed_form(gamma, u) = mu, elementwise.

    mu is odd in u, so only t = |mu| is inverted and the sign restored.
    Each |u| returned is the upper end of an adjacent-float sign change of
    f = mu_closed_form(gamma, .) - t, as numerics.bisect returns it, and
    depends on its own t only:
      - Newton runs from u = gamma t, each point stopping on its own;
      - the settle check evaluates f at the Newton point and at its
        neighbouring float towards the root: where f changes sign
        between them, the upper float is the answer;
      - any other point gets a bracket reaching from that neighbour past
        its last Newton step and mu's rounding noise.  Brackets that hold
        the sign change are bisected, in one call per group of brackets
        needing about the same number of halvings;
      - a point whose bracket fails, or whose rounding noise spans its
        whole bracket from zero, is bisected from [0, t max(1,
        gamma^2)], where mu' in [1/gamma, 1/gamma^2] puts the root.
    gamma = 1 gives u = mu exactly.  A scalar mu gives a float; a mu
    with no finite u, such as a non-finite one or one whose bracket
    overflows, raises InversionFailure.
    """
    mu = np.asarray(mu, dtype=float)
    if not np.all(np.isfinite(mu)):
        raise InversionFailure("no finite u solves mu_closed_form(gamma, u) = mu")
    if gamma == 1.0:
        u = mu  # mu(u) = u exactly at gamma = 1
    else:
        t = np.abs(mu).ravel()
        u = np.zeros_like(t)  # t = 0 has its root at u = 0
        # an overflowing bracket from zero leaves u = inf, rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            hi0 = t * max(1.0, gamma * gamma)
            # the root lies below hi0 and mu' >= 1/max(gamma, gamma^2), which
            # bounds the noise there; where it spans the bracket from zero,
            # Newton is skipped
            newton = (t > 0.0) & (_noise(gamma, hi0, t, 1.0 / max(gamma, gamma * gamma))
                                  < _MIN_SHRINK * hi0)
            idx = np.flatnonzero(newton)
            ti = t[idx]
            un, step, slope = _newton(gamma, ti)
            below = mu_closed_form(gamma, un) < ti
            nb = np.nextafter(un, np.where(below, np.inf, -np.inf))
            nb_below = mu_closed_form(gamma, nb) < ti
            settled = below != nb_below
            u[idx[settled]] = np.where(below, nb, un)[settled]
            # the neighbour is one end of the bracket: its lo end if f < 0 there
            rest = ~settled
            idx, ti, end, end_is_lo = idx[rest], ti[rest], nb[rest], nb_below[rest]
            width = np.abs(step[rest]) + _noise(gamma, end, ti, slope[rest])
            lo = np.where(end_is_lo, end, np.maximum(end - width, 0.0))
            hi = np.where(end_is_lo, end + width, end)
            held = (mu_closed_form(gamma, np.where(end_is_lo, hi, lo)) < ti) != end_is_lo
            # about log2 of a bracket's width in floats: the halvings it needs
            group = np.frexp((hi - lo) / np.spacing(hi))[1] >> _GROUP_BITS
            for g in sorted(set(group[held].tolist())):
                mine = held & (group == g)
                u[idx[mine]] = _bisect(gamma, ti[mine], lo[mine], hi[mine])
            lost = (t > 0.0) & ~newton
            lost[idx[~held]] = True
            if np.any(lost):
                u[lost] = _from_zero(gamma, t[lost])
        u = np.copysign(u.reshape(mu.shape), mu)
    if not np.all(np.isfinite(u)):
        raise InversionFailure("no finite u solves mu_closed_form(gamma, u) = mu")
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


def potential_on_x_grid(gamma: float, j: float, mass: MassProfile,
                        ordering: OrderingParams, grid: Grid,
                        tol: float = 1e-10) -> dict:
    """Tabulate the full position-dependent-mass potential on a grid.

    mu from travel_coordinate, anchored at x = 0, to tolerance tol; u
    from one inversion of the whole mu column; then the total V_hyp + Um,
    the hyperbolic form plus the von Roos mass term Um, whose bound
    levels do not depend on the mass.  Returns the columns `natpdm
    potential` prints, in print order, as arrays keyed by their printed
    names: x, m, mu, u, z, V_hyp, V_poly, Um, V_total.
    """
    pts = grid.points
    # a mu past the double range comes out inf or nan; invert_mu rejects it
    mu = travel_coordinate(mass, pts, 0.0, tol)
    u = invert_mu(gamma, mu)
    # tanh^2 rounds to 1.0 for |u| beyond ~19; the exact value is < 1,
    # so round toward the open interval instead
    z = np.minimum(np.tanh(u) ** 2, np.nextafter(1.0, 0.0))
    vhyp = v_hyperbolic(gamma, j, u)
    _, um = mass_correction_terms(mass, ordering, pts)
    return {"x": pts, "m": np.asarray(mass.m(pts), dtype=float), "mu": mu, "u": u, "z": z,
            "V_hyp": vhyp, "V_poly": v_polynomial(gamma, j, y_of_u(gamma, u)),
            "Um": um, "V_total": vhyp + um}

"""Differential realization of the su(1,1) ladder algebra and its checks.

The generators act on functions e^{i m phi} u(x) of a single angular
sector m:

    J0 u = m u
    J+/- u = (+/- h(x) d/dx +/- g(x) + f(x) m + c(x)) u,   sector m -> m +/- 1

with f = (1 + a xi^2)/(1 - a xi^2) and c = delta xi/(1 - a xi^2) built
from a monotone map xi(x), and the weight g carrying the mass-profile
term.  With the canonical multiplier h = xi/xi' the commutation relations
close exactly and the quadratic invariant has a closed form; this module
applies the operators to sampled test functions and reports the residuals
instead of assuming any of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .masses import MassProfile, constant_mass
from .numerics import Grid, grid_derivative

__all__ = [
    "SmoothMap",
    "tanh_map",
    "Su11Realization",
    "GroupLabels",
    "labels_from_j",
    "SectorFunction",
    "gaussian_sector_function",
    "sample_coefficients",
    "ladder_step",
    "constraint_residuals",
    "commutator_residual",
    "casimir_residual",
    "allowed_j0",
]

_SINGULAR_TOL = 1e-13
#: stencil-margin nodes dropped at each end before a residual's sup-norm
_TRIM = 10


class SmoothMap(NamedTuple):
    """Scalar map with its first two derivatives; all three callables vectorised."""

    value: Callable
    deriv: Callable
    deriv2: Callable


def tanh_map() -> SmoothMap:
    """xi(x) = tanh x with closed-form derivatives."""
    return SmoothMap(
        value=np.tanh,
        deriv=lambda x: 1.0 / np.cosh(x) ** 2,
        deriv2=lambda x: -2.0 * np.tanh(x) / np.cosh(x) ** 2,
    )


@dataclass(frozen=True)
class Su11Realization:
    """The data fixing one differential realization.

    The multiplier in front of d/dx is the canonical h = xi/xi'.
    """

    xi: SmoothMap
    a: float = 1.0
    delta: float = 0.0


@dataclass(frozen=True)
class GroupLabels:
    """Discrete-series representation data: c = j(j+1), j0 = n + 1/2 + sqrt(c + 1/4)."""

    j: float
    j0: float
    n: int
    c: float
    delta: float


def allowed_j0(n: int, c: float) -> float:
    """Allowed J0 eigenvalue for level n in the representation with Casimir c."""
    if n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n}")
    disc = c + 0.25
    if disc < 0.0:
        raise ValueError(f"c + 1/4 = {disc} < 0")
    return n + 0.5 + math.sqrt(disc)


def labels_from_j(j: float, n: int, delta: float) -> GroupLabels:
    """Labels for the representation with Casimir eigenvalue j(j+1)."""
    c = j * (j + 1.0)
    return GroupLabels(j=j, j0=allowed_j0(n, c), n=n, c=c, delta=delta)


@dataclass(frozen=True)
class SectorFunction:
    """u(x) sampled on a grid, tagged with its angular sector m."""

    grid: Grid
    sector: float
    values: np.ndarray

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def gaussian_sector_function(grid: Grid, sector: float) -> SectorFunction:
    """Gaussian test function exp(-x^2/(2 w^2)), w = 0.35, supported away from the edges.

    The width keeps the support inside |tanh x| <= 0.9, clear of the
    1 - xi^2 poles of the closed forms.
    """
    u = np.exp(-0.5 * (grid.points / 0.35) ** 2)
    return SectorFunction(grid=grid, sector=float(sector), values=u)


class Coefficients(NamedTuple):
    """xi, xi', xi'' and the realization's coefficients, sampled on one set of points."""

    xi: np.ndarray
    xp: np.ndarray
    xpp: np.ndarray
    f: np.ndarray
    c: np.ndarray
    h: np.ndarray
    g: np.ndarray | None


def sample_coefficients(realization: Su11Realization, x,
                        mass: MassProfile | None = None) -> Coefficients:
    """xi, xi', xi'', f, c, h = xi/xi' and g at x, sampled once; singular points refused.

    f = (1 + a xi^2)/(1 - a xi^2) and c = delta xi/(1 - a xi^2).  Given a mass,
    g = (2 - xi^2)/(1 - xi^2) - 3 xi xi''/(2 xi'^2) + m' xi/(2 m xi'); without
    one g is None, and points where xi^2 = 1 are accepted.
    """
    xi, xp, xpp = (d(x) for d in realization.xi)
    denom = 1.0 - realization.a * xi * xi
    # only g has poles at xi^2 = 1, so without a mass they are not singular
    one_minus = 1.0 - xi * xi if mass is not None else 1.0
    for values, what in ((denom, "1 - a*xi^2"), (one_minus, "1 - xi^2"), (xp, "xi'")):
        if np.any(np.abs(values) < _SINGULAR_TOL):
            raise ZeroDivisionError(f"{what} = 0 on the requested points")
    g = None
    if mass is not None:
        g = (2.0 - xi * xi) / one_minus - 1.5 * xi * xpp / (xp * xp) \
            + 0.5 * mass.m_prime(x) * xi / (mass.m(x) * xp)
    return Coefficients(xi, xp, xpp, f=(1.0 + realization.a * xi * xi) / denom,
                        c=realization.delta * xi / denom, h=xi / xp, g=g)


def constraint_residuals(realization: Su11Realization, grid: Grid):
    """Pointwise residuals of the two multiplier constraints.

    res_a = f^2 - h f',  res_b = h c' - f c, with derivatives from the
    fourth-order grid stencils.  Both are reported, not asserted: with
    the canonical h the second vanishes identically while the first is
    the constant 1.
    """
    s = sample_coefficients(realization, grid.points)
    fp = grid_derivative(s.f, grid.spacing, order=1)
    cp = grid_derivative(s.c, grid.spacing, order=1)
    return s.f * s.f - s.h * fp, s.h * cp - s.f * s.c


def ladder_step(s: Coefficients, sign: float, psi: SectorFunction) -> SectorFunction:
    """J+ (sign 1.0) or J- (sign -1.0): u -> sign (h u' + g u) + (f m + c) u, m -> m + sign.

    s is sampled on psi's grid with a mass; u' is the fourth-order stencil.
    """
    u = psi.values
    up = grid_derivative(u, psi.grid.spacing, order=1)
    return SectorFunction(psi.grid, psi.sector + sign,
                          sign * (s.h * up + s.g * u) + (s.f * psi.sector + s.c) * u)


def _relative_sup(values: np.ndarray, scale: float) -> float:
    """max |values| / scale, without the stencil margin at each end."""
    if values.size > 2 * _TRIM:
        values = values[_TRIM:-_TRIM]
    return float(np.max(np.abs(values))) / scale


def commutator_residual(realization: Su11Realization, psi: SectorFunction):
    """Sup-norm residuals of the two commutation relations, relative to ||psi||.

    res1 checks [J+, J-] + 2 J0, res2 the worse of [J0, J+/-] -/+ J+/-,
    with the constant-mass weight g.  The stencil margin is trimmed
    before taking the sup: two operator applications widen the boundary
    error band.
    """
    scale = psi.sup_norm()
    if scale == 0.0:
        return 0.0, 0.0
    s = sample_coefficients(realization, psi.grid.points, constant_mass())
    jp = ladder_step(s, 1.0, psi)
    jm = ladder_step(s, -1.0, psi)
    comm = ladder_step(s, 1.0, jm).values - ladder_step(s, -1.0, jp).values \
        + 2.0 * psi.sector * psi.values
    res1 = _relative_sup(comm, scale)

    j0psi = SectorFunction(psi.grid, psi.sector, psi.sector * psi.values)
    res2 = 0.0
    for jpm, sign in ((jp, 1.0), (jm, -1.0)):
        resid = (psi.sector + sign) * jpm.values - ladder_step(s, sign, j0psi).values \
            - sign * jpm.values
        res2 = max(res2, _relative_sup(resid, scale))
    return res1, res2


def casimir_residual(realization: Su11Realization, labels: GroupLabels,
                     psi: SectorFunction, mass: MassProfile | None = None) -> float:
    """Sup-norm mismatch between the composed and the closed-form invariant.

    The composition J0^2 - J0 - J+J- is applied through the sampled
    ladder operators; the closed form is the second-order operator with
    the xi/xi' coefficients and the (delta, j0) tail.  Requires a = 1
    and a test function living in the j0 sector.
    """
    if realization.a != 1.0:
        raise ValueError("closed-form invariant requires a = 1")
    if psi.sector != labels.j0:
        raise ValueError(f"psi sector {psi.sector} != j0 {labels.j0}")
    scale = psi.sup_norm()
    if scale == 0.0:
        return 0.0
    s = sample_coefficients(realization, psi.grid.points,
                            constant_mass() if mass is None else mass)
    dx, u, j0, delta = psi.grid.spacing, psi.values, labels.j0, realization.delta

    composed = j0 * j0 * u - j0 * u - ladder_step(s, 1.0, ladder_step(s, -1.0, psi)).values

    xi, xp, h, g = s.xi, s.xp, s.h, s.g
    gp = grid_derivative(g, dx, order=1)
    up = grid_derivative(u, dx, order=1)
    upp = grid_derivative(u, dx, order=2)
    one_minus = 1.0 - xi * xi
    closed = h ** 2 * upp \
        + h * (2.0 * g - xi * s.xpp / xp ** 2 - 2.0 * xi ** 2 / one_minus) * up \
        + (h * gp + g * g - (1.0 + xi * xi) / one_minus * g
           - xi * (delta + 2.0 * j0 * xi) * (2.0 * j0 + delta * xi) / one_minus ** 2) * u

    return _relative_sup(composed - closed, scale)

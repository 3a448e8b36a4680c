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
from typing import Callable

import numpy as np

from .masses import MassProfile, constant_mass
from .numerics import Grid, grid_derivative

__all__ = [
    "SingularPoint",
    "SectorMismatch",
    "NegativeDiscriminant",
    "SmoothMap",
    "tanh_map",
    "Su11Realization",
    "GroupLabels",
    "labels_from_j",
    "SectorFunction",
    "gaussian_sector_function",
    "su11_functions",
    "constraint_residuals",
    "g_weight",
    "ladder_apply",
    "commutator_residual",
    "casimir_residual",
    "allowed_j0",
]

_SINGULAR_TOL = 1e-13
#: stencil-margin nodes dropped at each end before a residual's sup-norm
_TRIM = 10


class SingularPoint(ZeroDivisionError):
    """Evaluation hit a zero of 1 - a*xi^2 or of xi'."""


class SectorMismatch(ValueError):
    """The sampled function is not in the angular sector the operation needs."""


class NegativeDiscriminant(ValueError):
    """c + 1/4 < 0: no real discrete-series label exists."""


@dataclass(frozen=True)
class SmoothMap:
    """Scalar map with its first two derivatives; all three callables vectorised."""

    value: Callable
    deriv: Callable
    deriv2: Callable

    def __call__(self, x):
        return self.value(x)


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

    def h_at(self, x):
        xp = self.xi.deriv(x)
        if np.any(np.asarray(np.abs(xp)) < _SINGULAR_TOL):
            raise SingularPoint("xi'(x) = 0: canonical multiplier xi/xi' undefined")
        return self.xi(x) / xp


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
        raise NegativeDiscriminant(f"c + 1/4 = {disc} < 0")
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


def su11_functions(realization: Su11Realization, x):
    """The pair (f, c) = ((1 + a xi^2)/(1 - a xi^2), delta xi/(1 - a xi^2))."""
    xi = realization.xi(x)
    denom = 1.0 - realization.a * xi * xi
    if np.any(np.asarray(np.abs(denom)) < _SINGULAR_TOL):
        raise SingularPoint("1 - a*xi^2 = 0 on the requested points")
    f = (1.0 + realization.a * xi * xi) / denom
    c = realization.delta * xi / denom
    return f, c


def constraint_residuals(realization: Su11Realization, grid: Grid):
    """Pointwise residuals of the two multiplier constraints.

    res_a = f^2 - h f',  res_b = h c' - f c, with derivatives from the
    fourth-order grid stencils.  Both are reported, not asserted: with
    the canonical h the second vanishes identically while the first is
    the constant 1.
    """
    x = grid.points
    f, c = su11_functions(realization, x)
    h = realization.h_at(x)
    fp = grid_derivative(f, grid.spacing, order=1)
    cp = grid_derivative(c, grid.spacing, order=1)
    res_a = f * f - h * fp
    res_b = h * cp - f * c
    return res_a, res_b


def g_weight(realization: Su11Realization, mass: MassProfile, x):
    """The first-order weight (2 - xi^2)/(1 - xi^2) - 3 xi xi''/(2 xi'^2) + m' xi/(2 m xi')."""
    xi = realization.xi(x)
    xp = realization.xi.deriv(x)
    xpp = realization.xi.deriv2(x)
    one_minus = 1.0 - xi * xi
    if np.any(np.asarray(np.abs(one_minus)) < _SINGULAR_TOL):
        raise SingularPoint("xi^2 = 1 on the requested points")
    if np.any(np.asarray(np.abs(xp)) < _SINGULAR_TOL):
        raise SingularPoint("xi'(x) = 0 on the requested points")
    m = mass.m(x)
    mp = mass.m_prime(x)
    return (2.0 - xi * xi) / one_minus - 1.5 * xi * xpp / (xp * xp) \
        + 0.5 * mp * xi / (m * xp)


def ladder_apply(realization: Su11Realization, which: str, psi: SectorFunction,
                 mass: MassProfile | None = None) -> SectorFunction:
    """Apply J+, J- or J0 to a sampled single-sector function.

    J0 is index bookkeeping (multiplication by the sector); J+/- shift
    the sector by one and act on u with the first-order operator, using
    fourth-order stencils for u'.
    """
    if which not in ("J+", "J-", "J0"):
        raise ValueError(f"which must be 'J+', 'J-' or 'J0', got {which!r}")
    if mass is None:
        mass = constant_mass()
    x = psi.grid.points
    u = psi.values
    m_sector = psi.sector
    if which == "J0":
        return SectorFunction(psi.grid, m_sector, m_sector * u)
    f, c = su11_functions(realization, x)
    g, h = g_weight(realization, mass, x), realization.h_at(x)
    up = grid_derivative(u, psi.grid.spacing, order=1)
    common = (f * m_sector + c) * u
    if which == "J+":
        return SectorFunction(psi.grid, m_sector + 1.0, h * up + g * u + common)
    return SectorFunction(psi.grid, m_sector - 1.0, -h * up - g * u + common)


def _interior(values: np.ndarray) -> np.ndarray:
    if values.size <= 2 * _TRIM:
        return values
    return values[_TRIM:-_TRIM]


def commutator_residual(realization: Su11Realization, psi: SectorFunction):
    """Sup-norm residuals of the two commutation relations, relative to ||psi||.

    res1 checks [J+, J-] + 2 J0, res2 the worse of [J0, J+/-] -/+ J+/-,
    with the constant-mass weight g.  The stencil margin is trimmed
    before taking the sup: two operator applications widen the boundary
    error band.
    """
    if psi.sup_norm() == 0.0:
        return 0.0, 0.0
    scale = psi.sup_norm()
    jp = ladder_apply(realization, "J+", psi)
    jm = ladder_apply(realization, "J-", psi)
    jpjm = ladder_apply(realization, "J+", jm)
    jmjp = ladder_apply(realization, "J-", jp)
    comm = jpjm.values - jmjp.values + 2.0 * psi.sector * psi.values
    res1 = float(np.max(np.abs(_interior(comm)))) / scale

    j0psi = ladder_apply(realization, "J0", psi)
    res2 = 0.0
    for which, jpm, sign in (("J+", jp, 1.0), ("J-", jm, -1.0)):
        j0_after = (psi.sector + sign) * jpm.values
        after_j0 = ladder_apply(realization, which, j0psi).values
        resid = j0_after - after_j0 - sign * jpm.values
        res2 = max(res2, float(np.max(np.abs(_interior(resid)))) / scale)
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
        raise SectorMismatch(f"psi sector {psi.sector} != j0 {labels.j0}")
    if psi.sup_norm() == 0.0:
        return 0.0
    if mass is None:
        mass = constant_mass()
    x = psi.grid.points
    dx = psi.grid.spacing
    u = psi.values
    j0 = labels.j0
    delta = realization.delta

    jm = ladder_apply(realization, "J-", psi, mass)
    jpjm = ladder_apply(realization, "J+", jm, mass)
    composed = j0 * j0 * u - j0 * u - jpjm.values

    xi = realization.xi(x)
    xp = realization.xi.deriv(x)
    xpp = realization.xi.deriv2(x)
    g = g_weight(realization, mass, x)
    gp = grid_derivative(g, dx, order=1)
    up = grid_derivative(u, dx, order=1)
    upp = grid_derivative(u, dx, order=2)
    one_minus = 1.0 - xi * xi
    closed = (xi / xp) ** 2 * upp \
        + (xi / xp) * (2.0 * g - xi * xpp / xp ** 2 - 2.0 * xi ** 2 / one_minus) * up \
        + ((xi / xp) * gp + g * g - (1.0 + xi * xi) / one_minus * g
           - xi * (delta + 2.0 * j0 * xi) * (2.0 * j0 + delta * xi) / one_minus ** 2) * u

    diff = composed - closed
    return float(np.max(np.abs(_interior(diff)))) / psi.sup_norm()

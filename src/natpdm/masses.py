"""Position-dependent mass profiles m(x) > 0 with first and second derivatives.

The built-in registry holds the profiles used throughout the verification
pipeline: all are smooth, bounded, strictly positive, and keep the travel
coordinate mu(x) = integral of sqrt(2 m) a bijection of the real line.
travel_coordinate is the one place that integrates sqrt(2 m): the
Ginocchio table and the general coordinate map both read mu from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numerics

__all__ = [
    "MassProfile",
    "NonpositiveMass",
    "constant_mass",
    "rational_mass",
    "exponential_well_mass",
    "MASS_REGISTRY",
    "parse_mass",
    "travel_coordinate",
]


#: |x| past which every registry profile equals its asymptote in double
#: (m = 1, m' = m'' = 0).  Each profile clips x there, so x * x stays
#: finite for every finite x, and m, m' and m'' keep the values of the
#: unclipped formulas wherever those are finite.
_X_FAR = 1e150


def _clipped(x):
    return np.clip(np.asarray(x, dtype=float), -_X_FAR, _X_FAR)


class NonpositiveMass(ValueError):
    """The mass profile is not strictly positive on the working domain."""


@dataclass(frozen=True)
class MassProfile:
    """Dimensionless mass m(x) (m0 = 1) with its derivatives.

    The callables must accept scalars and numpy arrays alike.
    """

    m: Callable
    m_prime: Callable
    m_double_prime: Callable
    label: str = "custom"

    def require_positive(self, x) -> np.ndarray:
        """m(x) as a float array; raises NonpositiveMass unless every value is positive."""
        m = np.asarray(self.m(x), dtype=float)
        if np.any(m <= 0.0):
            raise NonpositiveMass(f"mass profile {self.label!r} is not positive everywhere")
        return m


def constant_mass(value: float = 1.0) -> MassProfile:
    """m(x) = value."""
    if value <= 0.0:
        raise NonpositiveMass(f"constant mass must be positive, got {value}")
    v = float(value)
    return MassProfile(
        m=lambda x: v * np.ones_like(np.asarray(x, dtype=float)),
        m_prime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        m_double_prime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        label="constant" if v == 1.0 else f"constant:{v}",
    )


def rational_mass(a: float = 2.0) -> MassProfile:
    """m(x) = (a + x^2)/(1 + x^2), positive for a > 0, tending to 1 at infinity."""
    if a <= 0.0:
        raise NonpositiveMass(f"rational mass needs a > 0, got {a}")
    a = float(a)

    def m(x):
        x = _clipped(x)
        return (a + x * x) / (1.0 + x * x)

    # the powers of 1 + x^2 overflow to inf past |x| ~ 1e51 (cube) and
    # ~ 1e77 (square), which rounds m' and m'' to their asymptote 0
    def m_prime(x):
        x = _clipped(x)
        with np.errstate(over="ignore"):
            return 2.0 * x * (1.0 - a) / (1.0 + x * x) ** 2

    def m_double_prime(x):
        x = _clipped(x)
        with np.errstate(over="ignore"):
            return 2.0 * (1.0 - a) * (1.0 - 3.0 * x * x) / (1.0 + x * x) ** 3

    return MassProfile(m, m_prime, m_double_prime, label=f"rational:{a}")


def exponential_well_mass(b: float = 0.5) -> MassProfile:
    """m(x) = 1 + b * exp(-x^2), positive for b > -1."""
    if b <= -1.0:
        raise NonpositiveMass(f"exponential-well mass needs b > -1, got {b}")
    b = float(b)

    def m(x):
        x = _clipped(x)
        return 1.0 + b * np.exp(-x * x)

    def m_prime(x):
        x = _clipped(x)
        return -2.0 * b * x * np.exp(-x * x)

    def m_double_prime(x):
        x = _clipped(x)
        return 2.0 * b * (2.0 * x * x - 1.0) * np.exp(-x * x)

    return MassProfile(m, m_prime, m_double_prime, label=f"exponential-well:{b}")


#: name -> (factory, closed range of its parameter).  At both ends of
#: each range the potential and spectrum output stays finite and free of
#: floating-point warnings (m >= 1e-6, m' and m'' up to about 1e6); a
#: parameter near 1e-300 or 1e300 under- or overflows m^3 in the
#: mass-correction terms.
MASS_REGISTRY = {
    "constant": (constant_mass, (1e-6, 1e6)),
    "rational": (rational_mass, (1e-6, 1e6)),
    "exponential-well": (exponential_well_mass, (-0.999999, 1e6)),
}


def parse_mass(text: str) -> MassProfile:
    """Build a registry profile from 'name' or 'name:param' syntax.

    Raises ValueError for an unknown name or a parameter outside the
    name's registry range (non-finite parameters included).
    """
    name, _, param = text.partition(":")
    name = name.strip()
    if name not in MASS_REGISTRY:
        known = ", ".join(sorted(MASS_REGISTRY))
        raise ValueError(f"unknown mass profile {name!r} (known: {known})")
    factory, (lo, hi) = MASS_REGISTRY[name]
    if not param:
        return factory()
    value = float(param)
    if not lo <= value <= hi:
        raise ValueError(f"{name} mass parameter must lie in [{lo:g}, {hi:g}], got {param!r}")
    return factory(value)


def travel_coordinate(mass: MassProfile, x, x0: float, tol: float) -> np.ndarray:
    """mu(x) = int_x0^x sqrt(2 m) dt at every point of a non-empty 1-d x.

    One numerics.integrate call takes the cells between neighbouring
    sorted points and the interval from the first of them to x0, checking
    m > 0 at every node; their cumulative sum less that interval gives mu.
    So the work grows with the number of points, not points times span.
    mu is exactly 0.0 at every point equal to x0.  A point where that
    difference has the sign opposite to x - x0, which only the anchor
    interval's quadrature error can cause, gets 0.0 too, so mu stays
    monotone; every other point keeps the difference.  tol is the
    quadrature's acceptance threshold, not an error bound: a panel is
    accepted at |err| <= 15 tol (1 + |I|), with that threshold halved per
    level, so a long cell can end further off than tol (2.9e-9 on
    [0, 8.25] at tol 1e-10 for exponential-well:0.5).  A non-finite x
    raises ValueError; a mu past the double range is inf or nan.
    """
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    # the last interval runs from the first point to the anchor x0
    cells = numerics.integrate(lambda t: np.sqrt(2.0 * mass.require_positive(t)),
                               np.append(xs[:-1], xs[0]), np.append(xs[1:], x0), tol)
    with np.errstate(over="ignore", invalid="ignore"):
        mu = np.cumsum(np.concatenate(([0.0], cells[:-1]))) - cells[-1]
    # the sum less the anchor interval leaves that interval's quadrature
    # error at x0 itself (-2.7e-13 at x = 0 on a 2401-point rational:2
    # table); x0 and the points that error puts on the wrong side of 0 get 0
    below, above = np.searchsorted(xs, x0, "left"), np.searchsorted(xs, x0, "right")
    mu[:below] = np.minimum(mu[:below], 0.0)
    mu[below:above] = 0.0
    mu[above:] = np.maximum(mu[above:], 0.0)
    return mu[np.argsort(order)]

"""Position-dependent mass profiles m(x) > 0 with first and second derivatives.

The built-in registry holds the profiles used throughout the verification
pipeline: all are smooth, bounded, strictly positive, and keep the travel
coordinate mu(x) = integral of sqrt(2 m) a bijection of the real line.
"""

from __future__ import annotations

import math
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
    "mass_from_callable",
    "MASS_REGISTRY",
    "parse_mass",
]


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

    def require_positive(self, x) -> None:
        if np.any(np.asarray(self.m(x)) <= 0.0):
            raise NonpositiveMass(f"mass profile {self.label!r} is not positive everywhere")


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
        x = np.asarray(x, dtype=float)
        return (a + x * x) / (1.0 + x * x)

    def m_prime(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * x * (1.0 - a) / (1.0 + x * x) ** 2

    def m_double_prime(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * (1.0 - a) * (1.0 - 3.0 * x * x) / (1.0 + x * x) ** 3

    return MassProfile(m, m_prime, m_double_prime, label=f"rational:{a}")


def exponential_well_mass(b: float = 0.5) -> MassProfile:
    """m(x) = 1 + b * exp(-x^2), positive for b > -1."""
    if b <= -1.0:
        raise NonpositiveMass(f"exponential-well mass needs b > -1, got {b}")
    b = float(b)

    def m(x):
        x = np.asarray(x, dtype=float)
        return 1.0 + b * np.exp(-x * x)

    def m_prime(x):
        x = np.asarray(x, dtype=float)
        return -2.0 * b * x * np.exp(-x * x)

    def m_double_prime(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * b * (2.0 * x * x - 1.0) * np.exp(-x * x)

    return MassProfile(m, m_prime, m_double_prime, label=f"exponential-well:{b}")


def mass_from_callable(m: Callable, label: str = "custom") -> MassProfile:
    """Wrap a bare m(x) callable; derivatives come from finite differences with step 1e-3."""
    return MassProfile(
        m=m,
        m_prime=lambda x: numerics.derivative(m, x, order=1, h=1e-3),
        m_double_prime=lambda x: numerics.derivative(m, x, order=2, h=1e-3),
        label=label,
    )


MASS_REGISTRY = {
    "constant": constant_mass,
    "rational": rational_mass,
    "exponential-well": exponential_well_mass,
}


def parse_mass(text: str) -> MassProfile:
    """Build a registry profile from 'name' or 'name:param' syntax."""
    name, _, param = text.partition(":")
    name = name.strip()
    if name not in MASS_REGISTRY:
        known = ", ".join(sorted(MASS_REGISTRY))
        raise ValueError(f"unknown mass profile {name!r} (known: {known})")
    factory = MASS_REGISTRY[name]
    if not param:
        return factory()
    value = float(param)
    if not math.isfinite(value):
        raise ValueError(f"mass parameter must be finite, got {param!r}")
    return factory(value)

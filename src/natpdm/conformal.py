"""Elementary conformal mappings: vertical strip -> right half-plane -> unit disk.

The pipeline composes a rotation-dilation, the exponential map, and a
linear-fractional transformation; the composite equals tan(z) on the band
|Re z| <= pi/4 and carries the band onto the closed unit disk.  The square
root that follows (with its cut along the positive real axis) turns the
disk radius [0, 1] into an arc of the unit circle, which is the coordinate
change the potential construction runs on.

Also provides Moebius maps from three-point data and a finite-difference
Cauchy-Riemann diagnostic for checking that a map is analytic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "BAND_HALF_WIDTH",
    "DegeneratePoints",
    "PoleAtMinusOne",
    "PoleAtMinusI",
    "MobiusCoeffs",
    "rotate_dilate",
    "exp_map",
    "halfplane_to_disk",
    "disk_to_halfplane",
    "strip_to_disk",
    "sqrt_principal_sheet",
    "xi_of_z",
    "mobius_from_three_points",
    "cross_ratio",
    "conformality_residual",
]

BAND_HALF_WIDTH = math.pi / 4.0


class DegeneratePoints(ValueError):
    """Coincident anchor points cannot determine a Moebius map."""


class PoleAtMinusOne(ZeroDivisionError):
    """The half-plane-to-disk map has its pole at Z = -1."""


class PoleAtMinusI(ZeroDivisionError):
    """The disk-to-half-plane map has its pole at w = -i."""


POINT_AT_INFINITY = complex(math.inf, math.inf)


def rotate_dilate(z: complex) -> complex:
    """Rotate by pi/2 and dilate by 2: z -> 2iz."""
    return 2j * complex(z)


def exp_map(z: complex) -> complex:
    """Exponential map; |result| = exp(Re z), arg(result) = Im z."""
    return cmath.exp(complex(z))


def halfplane_to_disk(z: complex) -> complex:
    """(1/i)(Z - 1)/(Z + 1): right half-plane Re Z > 0 onto the unit disk."""
    z = complex(z)
    if z == -1:
        raise PoleAtMinusOne("Z = -1 is the pole of the half-plane-to-disk map")
    return (z - 1.0) / (1j * (z + 1.0))


def disk_to_halfplane(w: complex) -> complex:
    """Inverse map (1 + iw)/(1 - iw): unit disk back onto Re Z > 0."""
    w = complex(w)
    if w == -1j:
        raise PoleAtMinusI("w = -i is the pole of the disk-to-half-plane map")
    return (1.0 + 1j * w) / (1.0 - 1j * w)


def strip_to_disk(z: complex) -> complex:
    """Composite band map: rotate-dilate, exponentiate, send to the disk.

    Equals tan(z); the band |Re z| <= pi/4 lands on the closed unit disk
    with f(+-pi/4) = +-1 and f(i*inf) = i.
    """
    return halfplane_to_disk(exp_map(rotate_dilate(z)))


def sqrt_principal_sheet(w: complex) -> complex:
    """Square root on the sheet arg w in [0, 2*pi), cut along arg w = 0.

    w = 0 is the branch point; positive reals stay positive reals.
    """
    w = complex(w)
    if w == 0:
        return 0j
    theta = cmath.phase(w)
    if theta < 0.0:
        theta += 2.0 * math.pi
    return math.sqrt(abs(w)) * cmath.exp(0.5j * theta)


def xi_of_z(z) -> complex:
    """Unit-circle image (1 + i sqrt(z))/(1 - i sqrt(z)) of z in [0, 1].

    The square root uses the principal sheet with the cut along the
    positive real axis, so real z >= 0 takes the nonnegative root and
    |xi| = 1 exactly on the real segment.
    """
    t = sqrt_principal_sheet(z)
    return (1.0 + 1j * t) / (1.0 - 1j * t)


@dataclass(frozen=True)
class MobiusCoeffs:
    """Coefficients of w = (a z + b)/(c z + d), determined up to scale."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c == 0:
            raise DegeneratePoints("a*d - b*c = 0: map is degenerate")

    def __call__(self, z: complex) -> complex:
        if cmath.isinf(z):
            return self.a / self.c if self.c != 0 else POINT_AT_INFINITY
        den = self.c * z + self.d
        if den == 0:
            return POINT_AT_INFINITY
        return (self.a * z + self.b) / den

    def inverse(self) -> "MobiusCoeffs":
        return MobiusCoeffs(self.d, -self.b, -self.c, self.a)

    def compose(self, other: "MobiusCoeffs") -> "MobiusCoeffs":
        """self after other, i.e. the matrix product of the coefficient matrices."""
        return MobiusCoeffs(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


def _basis_coeffs(z1: complex, z2: complex, z3: complex) -> MobiusCoeffs:
    # the unique map sending (z1, z2, z3) -> (0, 1, infinity); an infinite
    # anchor drops its vanishing difference pair (projective convention)
    if cmath.isinf(z1):
        return MobiusCoeffs(0.0, z2 - z3, 1.0, -z3)
    if cmath.isinf(z2):
        return MobiusCoeffs(1.0, -z1, 1.0, -z3)
    if cmath.isinf(z3):
        return MobiusCoeffs(1.0, -z1, 0.0, z2 - z1)
    return MobiusCoeffs(z2 - z3, -z1 * (z2 - z3), z2 - z1, -z3 * (z2 - z1))


def _check_distinct(points) -> None:
    pts = [complex(p) for p in points]
    for i in range(len(pts)):
        for k in range(i + 1, len(pts)):
            if pts[i] == pts[k] or (cmath.isinf(pts[i]) and cmath.isinf(pts[k])):
                raise DegeneratePoints(f"anchor points {pts[i]} and {pts[k]} coincide")


def mobius_from_three_points(z1, z2, z3, w1, w2, w3) -> MobiusCoeffs:
    """The Moebius map sending z_k -> w_k for k = 1, 2, 3.

    Built from the cross-ratio identity: both triples are sent to
    (0, 1, infinity) and the two basis maps are composed.
    """
    _check_distinct((z1, z2, z3))
    _check_distinct((w1, w2, w3))
    to_basis_z = _basis_coeffs(complex(z1), complex(z2), complex(z3))
    to_basis_w = _basis_coeffs(complex(w1), complex(w2), complex(w3))
    return to_basis_w.inverse().compose(to_basis_z)


def cross_ratio(z, z1, z2, z3) -> complex:
    """Cross ratio (z, z1; z2, z3), i.e. the image of z under the basis map."""
    return _basis_coeffs(complex(z1), complex(z2), complex(z3))(complex(z))


def conformality_residual(map_fn: Callable[[complex], complex], at: complex,
                          h: float = 1e-4) -> float:
    """Largest Cauchy-Riemann residual of map_fn near ``at``.

    Central differences along the real and imaginary axes give u_x, v_x,
    u_y, v_y; the residual is max(|u_x - v_y|, |u_y + v_x|).  Near zero
    for analytic maps, order one for maps that are not (complex
    conjugation scores 2).
    """
    at = complex(at)
    fx = (map_fn(at + h) - map_fn(at - h)) / (2.0 * h)
    fy = (map_fn(at + 1j * h) - map_fn(at - 1j * h)) / (2.0 * h)
    return max(abs(fx.real - fy.imag), abs(fy.real + fx.imag))

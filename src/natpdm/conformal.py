"""Elementary conformal mappings: vertical strip -> right half-plane -> unit disk.

The pipeline composes a rotation-dilation, the exponential map, and a
linear-fractional transformation; the composite equals tan(z) on the band
|Re z| <= pi/4 and carries the band onto the closed unit disk.  The square
root that follows (with its cut along the positive real axis) turns the
disk radius [0, 1] into an arc of the unit circle, which is the coordinate
change the potential construction runs on.

Also provides Moebius maps from three-point data, in homogeneous
coordinates, and a finite-difference Cauchy-Riemann diagnostic for checking
that a map is analytic.  Every map acts elementwise on a scalar or array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "BAND_HALF_WIDTH",
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


def _complex(z):
    # a scalar gives an np.complex128, which is a complex; an array stays one
    return np.asarray(z, dtype=complex)[()]


def _quotient(num, den):
    # quiet, as Python complex division is on nan and overflow; c / 0 is infinite
    with np.errstate(all="ignore"):
        return num / den


def rotate_dilate(z):
    """Rotate by pi/2 and dilate by 2: z -> 2iz."""
    return 2j * _complex(z)


def exp_map(z):
    """Exponential map; |result| = exp(Re z), arg(result) = Im z; OverflowError on overflow."""
    z = _complex(z)
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.exp(z)
    if np.any(np.isinf(w) & np.isfinite(z)):
        raise OverflowError("math range error")
    return w


def halfplane_to_disk(z):
    """(1/i)(Z - 1)/(Z + 1): right half-plane Re Z > 0 onto the unit disk."""
    z = _complex(z)
    if np.any(z == -1):
        raise ZeroDivisionError("Z = -1 is the pole of the half-plane-to-disk map")
    return _quotient(z - 1.0, 1j * (z + 1.0))


def disk_to_halfplane(w):
    """Inverse map (1 + iw)/(1 - iw): unit disk back onto Re Z > 0."""
    w = _complex(w)
    if np.any(w == -1j):
        raise ZeroDivisionError("w = -i is the pole of the disk-to-half-plane map")
    return _quotient(1.0 + 1j * w, 1.0 - 1j * w)


def strip_to_disk(z):
    """Composite band map: rotate-dilate, exponentiate, send to the disk.

    Equals tan(z); the band |Re z| <= pi/4 lands on the closed unit disk
    with f(+-pi/4) = +-1 and f(i*inf) = i.
    """
    return halfplane_to_disk(exp_map(rotate_dilate(z)))


def sqrt_principal_sheet(w):
    """Square root on the sheet arg w in [0, 2*pi), cut along arg w = 0.

    w = 0 is the branch point; positive reals stay positive reals.
    """
    w = _complex(w)
    return np.sqrt(np.abs(w)) * np.exp(0.5j * (np.angle(w) % (2.0 * math.pi)))


def xi_of_z(z):
    """Unit-circle image (1 + i sqrt(z))/(1 - i sqrt(z)) of z in [0, 1].

    The square root uses the principal sheet with the cut along the
    positive real axis, so real z >= 0 takes the nonnegative root and
    |xi| = 1 exactly on the real segment.
    """
    t = sqrt_principal_sheet(z)
    return _quotient(1.0 + 1j * t, 1.0 - 1j * t)


def _homogeneous(z):
    # z -> (z, 1); a z with an infinite part (as c / 0 gives) is the one
    # point at infinity, (1, 0), as in C99 Annex G
    at_infinity = np.isinf(z)
    return np.where(at_infinity, 1.0 + 0j, z), np.where(at_infinity, 0.0, 1.0)


@dataclass(frozen=True)
class MobiusCoeffs:
    """Coefficients of w = (a z + b)/(c z + d), determined up to scale."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self) -> None:
        # coefficients are defined up to scale, and a*d - b*c of small ones
        # underflows: test it on the coefficients over their largest modulus
        coeffs = (self.a, self.b, self.c, self.d)
        scale = max(map(abs, coeffs))
        a, b, c, d = (x / scale for x in coeffs) if scale else coeffs
        if a * d - b * c == 0:
            raise ValueError("a*d - b*c = 0: map is degenerate")

    def __call__(self, z):
        p, q = _homogeneous(_complex(z))
        return _quotient(self.a * p + self.b * q, self.c * p + self.d * q)

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


def _basis_coeffs(z1, z2, z3) -> MobiusCoeffs:
    # z -> [z z1][z2 z3] / ([z z3][z2 z1]) sends (z1, z2, z3) to (0, 1, infinity).
    # [u v] = p_u q_v - p_v q_u is 0 exactly when u and v coincide, and then so is
    # a*d - b*c, which MobiusCoeffs refuses.  In Python complex, finite anchors give
    # z2 - z3, -z1 (z2 - z3), z2 - z1, -z3 (z2 - z1) bit for bit.
    (p1, p2, p3), (q1, q2, q3) = map(np.ndarray.tolist, _homogeneous(np.array([z1, z2, z3])))
    d23, d21 = p2 * q3 - p3 * q2, p2 * q1 - p1 * q2
    return MobiusCoeffs(q1 * d23, -p1 * d23, q3 * d21, -p3 * d21)


def mobius_from_three_points(z1, z2, z3, w1, w2, w3) -> MobiusCoeffs:
    """The Moebius map sending z_k -> w_k for k = 1, 2, 3.

    Built from the cross-ratio identity: both triples are sent to
    (0, 1, infinity) and the two basis maps are composed.
    """
    return _basis_coeffs(w1, w2, w3).inverse().compose(_basis_coeffs(z1, z2, z3))


def cross_ratio(z, z1, z2, z3):
    """Cross ratio (z, z1; z2, z3), i.e. the image of z under the basis map."""
    return _basis_coeffs(z1, z2, z3)(z)


def conformality_residual(map_fn: Callable, at, h: float = 1e-4):
    """Largest Cauchy-Riemann residual of map_fn near ``at``.

    Central differences along the real and imaginary axes give u_x, v_x,
    u_y, v_y; the residual is max(|u_x - v_y|, |u_y + v_x|).  Near zero
    for analytic maps, order one for maps that are not (complex
    conjugation scores 2).  Elementwise in ``at``, for a map_fn that is too.
    """
    at = _complex(at)
    fx = (map_fn(at + h) - map_fn(at - h)) / (2.0 * h)
    fy = (map_fn(at + 1j * h) - map_fn(at - 1j * h)) / (2.0 * h)
    return np.maximum(np.abs(fx.real - fy.imag), np.abs(fy.real + fx.imag))

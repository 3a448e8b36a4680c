#!/usr/bin/env python3
"""Walk the band-to-disk mapping pipeline step by step.

The vertical band |Re z| <= pi/4 is rotated and dilated (z -> 2iz),
exponentiated onto the right half-plane, and sent into the unit disk by a
linear-fractional map.  The composite is tan(z).  A square root with a cut
along the positive real axis then produces the unit-circle transform
xi(z) = (1 + i sqrt(z))/(1 - i sqrt(z)) that carries the construction
variable z in [0, 1] onto an arc of the unit circle.
"""

import cmath
import math

import numpy as np

from natpdm import conformal

print("Step-by-step pipeline for a few band points")
print(f"{'z':>22} {'2iz':>22} {'exp(2iz)':>24} {'disk image w':>24} {'tan z':>24}")
for z in (0.5 + 0.3j, -0.7 + 1.0j, 0.785 + 0.0j, 0.0 + 2.0j):
    rot = conformal.rotate_dilate(z)
    half = conformal.exp_map(rot)
    w = conformal.halfplane_to_disk(half)
    print(f"{z!s:>22} {rot!s:>22} {half!s:>24.24} {w!s:>24.24} {cmath.tan(z)!s:>24.24}")

# every map acts elementwise on arrays: one call per point set
print("\nComposite equals tan on 1000 random band points:")
rng = np.random.default_rng(0)
pts = rng.uniform(-math.pi / 4, math.pi / 4, 1000) + 1j * rng.uniform(-2, 2, 1000)
worst = np.max(np.abs(conformal.strip_to_disk(pts) - np.tan(pts)))
print(f"  max |strip_to_disk - tan| = {worst:.3e}")

print("\nAnchor correspondences of the half-plane-to-disk map:")
for Z, label in ((1j, "+i"), (-1j, "-i"), (0.0, "0")):
    print(f"  Z = {label:>2}  ->  w = {conformal.halfplane_to_disk(Z)}")

print("\nThe band boundary lands on the unit circle, the real segment on [-1, 1]:")
edge = np.max(np.abs(np.abs(conformal.strip_to_disk(math.pi / 4 + 1j * np.linspace(-2, 2, 41)))
                     - 1.0))
seg = np.max(np.abs(conformal.strip_to_disk(np.linspace(-math.pi / 4, math.pi / 4, 41)).imag))
print(f"  max ||w| - 1| on Re z = pi/4 : {edge:.3e}")
print(f"  max |Im w| on the real segment: {seg:.3e}")

print("\nUnit-circle transform of the segment [0, 1]:")
for z in (0.0, 0.25, 0.5, 1.0):
    xi = conformal.xi_of_z(z)
    print(f"  z = {z:4.2f}  ->  xi = {xi:.6f}   |xi| - 1 = {abs(xi) - 1.0:+.2e}")

print("\nCauchy-Riemann residuals (finite differences, h = 1e-4):")
for name, fn, at in (("exp", cmath.exp, 0.3 + 0.2j),
                     ("strip_to_disk", conformal.strip_to_disk, 0.1 + 0.5j),
                     ("conjugation", lambda q: q.conjugate(), 0.3 + 0.2j)):
    res = conformal.conformality_residual(fn, at, 1e-4)
    print(f"  {name:>14} at {at}: {res:.3e}")

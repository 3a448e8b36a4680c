#!/usr/bin/env python3
"""Residuals of the ladder-operator realization, measured, not assumed.

The operators J+/- = e^{+-i phi}(+-h d/dx +- g + f J0 + c) with the
canonical multiplier h = xi/xi' close the su(1,1) relations and reproduce
the closed-form quadratic invariant.  All of that is checked here by
applying the sampled operators to Gaussian test functions.

One detail worth seeing in numbers: the first multiplier constraint
f^2 - h f' evaluates to the constant 1 (not 0), for any value of a.  The
companion constraint h c' - f c does vanish identically.
"""

import numpy as np

from natpdm import algebra
from natpdm.masses import exponential_well_mass
from natpdm.numerics import Grid

grid = Grid(-3.0, 3.0, 2401)
realization = algebra.Su11Realization(xi=algebra.tanh_map(), a=1.0, delta=1.5)
labels = algebra.labels_from_j(j=1.0, n=0, delta=1.5)
psi = algebra.gaussian_sector_function(grid, sector=labels.j0)

print(f"realization: xi = tanh, a = 1, delta = {realization.delta}")
print(f"labels: j = {labels.j}, j0 = {labels.j0}, Casimir c = {labels.c}")
print()

res1, res2 = algebra.commutator_residual(realization, psi)
print(f"[J+, J-] + 2 J0 residual          : {res1:.3e}")
print(f"[J0, J+/-] -/+ J+/- residual      : {res2:.3e}")

cas = algebra.casimir_residual(realization, labels, psi)
print(f"composed vs closed-form invariant : {cas:.3e}")
cas_m = algebra.casimir_residual(realization, labels, psi,
                                 mass=exponential_well_mass(0.5))
print(f"  ... with a varying mass profile : {cas_m:.3e}")

cgrid = Grid(-1.5, 1.5, 1501)
res_a, res_b = algebra.constraint_residuals(realization, cgrid)
print()
print(f"first constraint f^2 - h f'  : mean {np.mean(res_a):+.12f}, "
      f"std {np.std(res_a):.2e}   <- constant 1, not 0")
print(f"second constraint h c' - f c : max |.| {np.max(np.abs(res_b)):.2e}")

#!/usr/bin/env python3
"""Three expressions for one potential, and the mass corrections.

The closed form on the construction variable z, the hyperbolic form in u,
and the polynomial form in y = sinh u / sqrt(gamma^2 + sinh^2 u) all
describe the same potential.  The table below shows the three columns
agreeing across the deformation parameter, and the von Roos correction
terms for a position-dependent mass.
"""

import numpy as np

from natpdm import ginocchio, natanzon
from natpdm.masses import rational_mass
from natpdm.natanzon import BEN_DANIEL_DUKE, OrderingParams

J = 2.0

print("Pointwise agreement of the three forms (j = 2):")
print(f"{'gamma':>6} {'u':>5} {'closed on z':>14} {'hyperbolic':>14} {'polynomial':>14}")
for gamma in (0.8, 1.0, 1.5):
    params = ginocchio.params_for(gamma, J)
    for u in (0.4, 1.0, 2.0):
        z = np.tanh(u) ** 2
        v1 = natanzon.natanzon_potential(params, z)
        v2 = ginocchio.v_hyperbolic(gamma, J, u)
        v3 = ginocchio.v_polynomial(gamma, J, ginocchio.y_of_u(gamma, u))
        print(f"{gamma:6.2f} {u:5.2f} {v1:14.10f} {v2:14.10f} {v3:14.10f}")

print("\nAt gamma = 1 everything collapses to the -j(j+1)/cosh^2 u well.")

print("\nvon Roos corrections for m(x) = (2 + x^2)/(1 + x^2):")
mass = rational_mass(2.0)
print(f"{'x':>5} {'ordering':>14} {'Vm':>12} {'Um':>12}")
for ordering, tag in ((BEN_DANIEL_DUKE, "BenDaniel-Duke"),
                      (OrderingParams(0.0, 0.0), "eta=eps=0")):
    for x in (0.0, 0.7, 1.5):
        vm, um = natanzon.mass_correction_terms(mass, ordering, x)
        print(f"{x:5.2f} {tag:>14} {float(vm):12.6f} {float(um):12.6f}")

print("\nAssembled total (hyperbolic form + Um) on a short grid:")
from natpdm.numerics import Grid

table = ginocchio.potential_on_x_grid(0.9, J, mass, BEN_DANIEL_DUKE,
                                      Grid(-2.0, 2.0, 9))
print(f"{'x':>6} {'m':>8} {'mu':>9} {'u':>9} {'z':>8} {'V_total':>12}")
for x, m, mu, u, z, v in zip(*(table[k] for k in ("x", "m", "mu", "u", "z", "V_total"))):
    print(f"{x:6.2f} {m:8.4f} {mu:9.4f} {u:9.4f} {z:8.4f} {v:12.6f}")

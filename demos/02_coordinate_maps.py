#!/usr/bin/env python3
"""The implicit coordinate map: travel coordinate and its inversion, two ways.

The construction variable z is known only implicitly.  Both routes below
start from the dimensionless travel coordinate mu = int sqrt(2m) dx and
invert it:

  1. against the closed-form Ginocchio mu(u), with z = tanh^2 u;
  2. against G(s) = int sqrt(R(sigma(s)))/2 ds, the general Natanzon form
     of z'^2 = 2 m S(z) in the logit s = ln(z/(1 - z)).  G is elementary
     for every parameter set, one logarithm per end of [0, 1] and one
     term for R's leading coefficient, so the only quadrature left is mu.

Both are exercised here and checked against each other and against the
closed form available at gamma = 1.
"""

import math

import numpy as np

from natpdm import ginocchio, natanzon
from natpdm.masses import constant_mass, rational_mass
from natpdm.numerics import Grid

print("Closed-form travel coordinate vs direct quadrature of the mass integral")
print(f"{'gamma':>6} {'z':>5} {'quadrature':>14} {'closed form':>14} {'diff':>10}")
for gamma in (0.5, 1.0, 2.0):
    for z in (0.2, 0.5, 0.8):
        quad = ginocchio.mass_integral(gamma, z)
        closed = ginocchio.mu_closed_form(gamma, math.atanh(math.sqrt(z)))
        print(f"{gamma:6.2f} {z:5.2f} {quad:14.10f} {closed:14.10f} {abs(quad-closed):10.2e}")

print("\nMonotone inversion round trips (u -> mu -> u):")
for gamma in (0.5, 1.3, 2.0):
    worst = max(abs(ginocchio.invert_mu(gamma, ginocchio.mu_closed_form(gamma, u)) - u)
                for u in (-2.0, -0.5, 0.5, 2.0))
    print(f"  gamma = {gamma}:  max round-trip error {worst:.2e}")

print("\nClosed-form G(s) route at gamma = 1, unit mass: z(x) = tanh^2(sqrt(2) x + 1/2)")
params = ginocchio.params_for(1.0, 2.0)
cmap = natanzon.solve_coordinate_map(params, constant_mass(), x0=0.0,
                                     z0=math.tanh(0.5) ** 2)
xs = np.linspace(-0.2, 1.8, 6)
print(f"{'x':>6} {'z (G(s) inverted)':>20} {'closed form':>16} {'diff':>10}")
for x in xs:
    closed = math.tanh(math.sqrt(2.0) * x + 0.5) ** 2
    got = float(cmap.z(x))
    print(f"{x:6.2f} {got:20.12f} {closed:16.12f} {abs(got-closed):10.2e}")

print("\nSame map for a position-dependent mass (the two routes must agree):")
mass = rational_mass(2.0)
grid = Grid(-3.0, 3.0, 601)
table = ginocchio.potential_on_x_grid(0.8, 2.0, mass, natanzon.BEN_DANIEL_DUKE, grid)
x, z = table["x"], table["z"]
# anchor the map on the forward branch: x = 0 is the z = 0 fold of the
# table, and z = 0 is a fixed point of the map equation, so the anchor
# must sit to its right
idx = int(np.argmin(np.abs(grid.points - 1.0)))
cmap2 = natanzon.solve_coordinate_map(ginocchio.params_for(0.8, 2.0), mass,
                                      x0=float(grid.points[idx]), z0=float(z[idx]))
sel = (x > 0.2) & (x < 2.5)
diff = np.max(np.abs(cmap2.z(x[sel]) - z[sel]))
print(f"  max |z_G - z_u| on the forward branch: {diff:.2e}")
print(f"  left of the fold the map stays at z = 0: "
      f"{bool(np.all(cmap2.z(x[x < 0.0]) == 0.0))}")

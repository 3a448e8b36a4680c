#!/usr/bin/env python3
"""Numerical adjudication of the analytic spectra.

The quantization identity sqrt(p+1) + sqrt(q+2) - sqrt(4c+1) = 2n + 1 and
the closed-form level expression should describe the bound states of the
position-dependent-mass Hamiltonian with the potential V_hyp + Um.  The
finite-difference eigensolver decides: it knows nothing of the algebraic
construction, it just diagonalizes the flux-form discretization.

Note the index bookkeeping: at gamma = 1 the numeric spectrum is
-(j - n)^2 while the printed closed form gives -(j - 2n)^2: eq. 34's
2n + 1/2 is the derived level n' + 1/2 at n' = 2n, so closed-form level n
is compared with numeric level 2n.
"""

from natpdm import pdmsolver
from natpdm.masses import constant_mass
from natpdm.natanzon import BEN_DANIEL_DUKE
from natpdm.numerics import Grid

report = pdmsolver.verify_spectrum(1.0, 2.0, constant_mass(), BEN_DANIEL_DUKE,
                                   Grid(-11.0, 11.0, 1201))

ordering = report["ordering"]
print(f"gamma = {report['gamma']}, j = {report['j']}")
print(f"ordering (eta, eps, rho) = ({ordering['eta']}, {ordering['epsilon']}, {ordering['rho']})")
print()
print("numeric bound states      :", [f"{e:+.6f}" for e in report["energies_numeric"]])
print("quantization-identity roots:", [f"{e:+.6f}" if e == e else "missing"
                                       for e in report["energies_eq27"]])
print("closed-form levels (verbatim):", [f"{e:+.6f}" for e in report["energies_eq34"]])
print()
fit = report["best_fit_index_map"]
print(f"index map (eq. 34): numeric-n = 2 * analytic-n; worst mismatch "
      f"{fit['max_mismatch']:.2e} over {len(fit['pairs'])} pair(s)")
print()
mi = report["mass_independence"]
print(f"mass independence, {mi['mass']} vs {mi['partner_mass']}:")
print("  partner bound states:", [f"{e:+.6f}" for e in mi["partner_energies"]])
print("  level-by-level drift:", [f"{d:.2e}" for d in mi["level_diffs"]])
print()
print("two-grid convergence estimates:", [f"{c:.1e}" for c in report["convergence_estimates"]])

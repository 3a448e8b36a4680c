#!/usr/bin/env python3
"""Numerical adjudication of the analytic spectra.

The quantization identity sqrt(p+1) + sqrt(q+2) - sqrt(4c+1) = 2n + 1 and
the closed-form level expression should describe the bound states of the
position-dependent-mass Hamiltonian with the potential V_hyp + Um.  The
finite-difference eigensolver decides: it knows nothing of the algebraic
construction, it just diagonalizes the flux-form discretization.

Note the index bookkeeping: at gamma = 1 the numeric spectrum is
-(j - n)^2 while the printed closed form gives -(j - 2n)^2, so the
best-fit map pairs closed-form level n with numeric level 2n.
"""

from natpdm import pdmsolver
from natpdm.ginocchio import GinocchioSpec
from natpdm.masses import constant_mass
from natpdm.natanzon import BEN_DANIEL_DUKE
from natpdm.numerics import Grid

report = pdmsolver.verify_spectrum(
    GinocchioSpec(gamma=1.0, j=2.0), constant_mass(), BEN_DANIEL_DUKE,
    Grid(-11.0, 11.0, 1201),
)

print(f"gamma = {report.gamma}, j = {report.j}")
print(f"ordering (eta, eps, rho) = {report.ordering}")
print()
print("numeric bound states      :", [f"{e:+.6f}" for e in report.energies_numeric])
print("quantization-identity roots:", [f"{e:+.6f}" if e == e else "missing"
                                       for e in report.energies_eq_quant])
print("closed-form levels (verbatim):", [f"{e:+.6f}" for e in report.energies_closed_form])
print()
fit = report.best_fit_index_map
print(f"best-fit index map: numeric-n = {fit['alpha']} * analytic-n "
      f"({fit['status']}, worst mismatch {fit['max_mismatch']:.2e})")
print()
mi = report.mass_independence
print(f"mass independence, {mi['mass']} vs {mi['partner_mass']}:")
print("  partner bound states:", [f"{e:+.6f}" for e in mi["partner_energies"]])
print("  level-by-level drift:", [f"{d:.2e}" for d in mi["level_diffs"]])
print()
print("two-grid convergence estimates:", [f"{c:.1e}" for c in report.convergence_estimates])

"""Acceptance gate: every criterion at its stated tolerance and runtime.

Each test prints one PASS line (visible with pytest -s); a failed
assertion marks the criterion failed.
"""

import cmath
import json
import math
import time

import numpy as np
import pytest

from natpdm import algebra, cli, conformal, ginocchio, natanzon, numerics, pdmsolver
from natpdm.masses import constant_mass, rational_mass
from natpdm.natanzon import BEN_DANIEL_DUKE
from natpdm.numerics import Grid


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE-{number} PASS: {text}", flush=True)


def test_criterion_1_conformal_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(12345)

    zs = rng.uniform(-math.pi / 4, math.pi / 4, 1000) + 1j * rng.uniform(-2.0, 2.0, 1000)
    tan_err = max(abs(conformal.strip_to_disk(complex(z)) - cmath.tan(complex(z)))
                  for z in zs)
    assert tan_err <= 1e-12

    triple_err = max(
        abs(conformal.halfplane_to_disk(1j) - 1.0),
        abs(conformal.halfplane_to_disk(-1j) + 1.0),
        abs(conformal.halfplane_to_disk(0.0) - 1j),
    )
    assert triple_err <= 1e-15

    xi_err = max(abs(abs(conformal.xi_of_z(float(z))) - 1.0)
                 for z in np.linspace(0.0, 1.0, 1001))
    assert xi_err <= 1e-12

    cr_err = max(
        conformal.conformality_residual(cmath.exp, 0.3 + 0.2j, 1e-4),
        conformal.conformality_residual(conformal.strip_to_disk, 0.1 + 0.5j, 1e-4),
        max(conformal.conformality_residual(conformal.strip_to_disk, complex(z), 2e-5)
            for z in zs[:50] * 0.9),
    )
    assert cr_err <= 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"conformal suite (tan err {tan_err:.2e}, xi err {xi_err:.2e}, "
               f"CR {cr_err:.2e}, {elapsed:.2f}s)")


def test_criterion_2_mass_integral_consistency():
    start = time.perf_counter()
    worst = 0.0
    for gamma in (0.5, 0.8, 1.0, 1.5, 2.0):
        for z in np.linspace(0.1, 0.9, 9):
            closed = ginocchio.mu_closed_form(gamma, math.atanh(math.sqrt(z)))
            worst = max(worst, abs(closed - ginocchio.mass_integral(gamma, float(z))))
    assert worst <= 1e-8

    rt = max(abs(ginocchio.invert_mu(g, ginocchio.mu_closed_form(g, u0)) - u0)
             for g in (0.5, 0.8, 1.0, 1.5, 2.0) for u0 in (-2.5, -1.0, 0.4, 1.7, 3.0))
    assert rt <= 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, f"closed form vs quadrature {worst:.2e}, inversion round trip "
               f"{rt:.2e} ({elapsed:.2f}s)")


def test_criterion_3_potential_equivalence():
    start = time.perf_counter()
    u = np.concatenate([np.linspace(-3.0, -0.02, 300), np.linspace(0.02, 3.0, 300)])
    worst = 0.0
    for gamma in (0.8, 1.0, 1.5):
        params = ginocchio.params_for(gamma, 2.0)
        v_closed = natanzon.natanzon_potential(params, np.tanh(u) ** 2)
        v_hyp = ginocchio.v_hyperbolic(gamma, 2.0, u)
        worst = max(worst, float(np.max(np.abs(v_closed - v_hyp))))
    assert worst <= 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(3, f"general potential vs hyperbolic form, max dev {worst:.2e} "
               f"({elapsed:.2f}s)")


def test_criterion_4_poschl_teller_reduction():
    start = time.perf_counter()
    report = pdmsolver.verify_spectrum(
        1.0, 2.0, constant_mass(), BEN_DANIEL_DUKE, Grid(-12.0, 12.0, 2001),
    )
    nums = report["energies_numeric"]
    assert len(nums) >= 2
    assert abs(nums[0] + 4.0) <= 1e-3
    assert abs(nums[1] + 1.0) <= 1e-3
    assert report["energies_eq34"] == pytest.approx([-4.0, 0.0, -4.0])
    # closed-form level n is numeric level 2n, and n -> n does not fit
    fit = report["best_fit_index_map"]
    assert fit["pairs"]
    assert all(p["numeric_n"] == 2 * p["analytic_n"] and p["mismatch"] <= 0.05
               for p in fit["pairs"])
    assert report["residuals"]["numeric_vs_eq34_matrix"][1][1] > 0.05

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(4, f"numeric spectrum {nums} vs closed form, index map n->2n "
               f"({elapsed:.1f}s)")


def test_criterion_5_analytic_self_consistency():
    start = time.perf_counter()
    compared = 0
    for gamma in (0.8, 1.2):
        params = ginocchio.params_for(gamma, 2.0)
        roots = natanzon.solve_spectrum(params, 2)
        for n in range(3):
            closed = ginocchio.spectrum_closed_form(gamma, 2.0, n)
            if math.isfinite(roots[n]):
                assert abs(roots[n] - closed) <= 1e-9
                compared += 1
    assert compared >= 2  # the ground state exists on both sides for each gamma

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(5, f"quantization roots equal closed form on {compared} shared levels "
               f"({elapsed:.2f}s)")


def test_criterion_6_mass_independence():
    start = time.perf_counter()
    report = pdmsolver.verify_spectrum(
        1.0, 2.0, constant_mass(), BEN_DANIEL_DUKE, Grid(-12.0, 12.0, 2001),
    )
    diffs = report["mass_independence"]["level_diffs"]
    assert len(diffs) >= 2
    assert max(diffs) <= 2e-3

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(6, f"level-by-level mass independence, max diff {max(diffs):.2e} "
               f"({elapsed:.1f}s)")


def test_criterion_7_algebra_residuals():
    start = time.perf_counter()
    grid = Grid(-3.0, 3.0, 2401)
    realization = algebra.Su11Realization(xi=algebra.tanh_map(), a=1.0, delta=1.5)
    labels = algebra.labels_from_j(j=1.0, n=0, delta=1.5)
    psi = algebra.gaussian_sector_function(grid, sector=labels.j0)

    res1, res2 = algebra.commutator_residual(realization, psi)
    assert res2 <= 1e-6
    cas = algebra.casimir_residual(realization, labels, psi)
    assert cas <= 1e-6

    cgrid = Grid(-1.5, 1.5, 1501)
    res_a, res_b = algebra.constraint_residuals(realization, cgrid)
    assert float(np.max(np.abs(res_b))) <= 1e-8
    assert float(np.std(res_a)) <= 1e-8
    constant_value = float(np.mean(res_a))

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(7, f"ladder residuals {res1:.1e}/{res2:.1e}, casimir {cas:.1e}, "
               f"first-constraint constant = {constant_value:.12f} ({elapsed:.2f}s)")


def test_criterion_8_discretization_quality():
    start = time.perf_counter()
    unit = constant_mass()

    box = Grid(0.0, 1.0, 501)
    hms = []
    for g in (box, box.refined(), box.refined().refined()):
        hms.append(pdmsolver.assemble_hamiltonian(unit, np.zeros(g.n_points),
                                                  BEN_DANIEL_DUKE, g))
    eigs = numerics.lowest_eigenvalues(hms, 4)
    exact = np.array([(k * math.pi) ** 2 / 2.0 for k in range(1, 5)])
    box_err = float(np.max(np.abs((4.0 * eigs[1] - eigs[0]) / 3.0 - exact)))
    assert box_err <= 1e-4

    ratios = (eigs[0] - eigs[1]) / (eigs[1] - eigs[2])
    orders = np.log2(np.abs(ratios))
    assert np.all((orders >= 1.8) & (orders <= 2.2))

    osc = Grid(-10.0, 10.0, 1001)
    hm = pdmsolver.assemble_hamiltonian(unit, 0.5 * osc.points ** 2, BEN_DANIEL_DUKE, osc)
    osc_f = osc.refined()
    hm_f = pdmsolver.assemble_hamiltonian(unit, 0.5 * osc_f.points ** 2,
                                          BEN_DANIEL_DUKE, osc_f)
    energies, _ = pdmsolver.richardson(*numerics.lowest_eigenvalues([hm, hm_f], 4))
    osc_err = float(np.max(np.abs(energies - (np.arange(4) + 0.5))))
    assert osc_err <= 1e-4

    # the discrete energy identity of the flux form, with f = 0 on both walls:
    # f.Hf = sum_i w_{i+1/2} (f_{i+1} - f_i)^2 / (2 h^2) + sum_i (ordering_i + V_i) f_i^2,
    # with 1/m at the cell midpoints as w and the von Roos ordering terms
    # written out from the operator
    grid = Grid(-3.0, 3.0, 101)
    eta, eps = 0.2, -0.7
    mass = rational_mass(2.0)
    hm = pdmsolver.assemble_hamiltonian(mass, np.sin(grid.points),
                                        natanzon.OrderingParams(eta, eps), grid)
    dense = np.diag(hm.diagonal) + np.diag(hm.offdiagonal, 1) + np.diag(hm.offdiagonal, -1)
    x, h = grid.points, grid.spacing
    w = 1.0 / mass.m(0.5 * (x[:-1] + x[1:]))
    xi = x[1:-1]
    m, mp, mpp = mass.m(xi), mass.m_prime(xi), mass.m_double_prime(xi)
    on_node = ((1.0 + eps) * mpp / (4.0 * m * m)
               - (eta * (eta + eps + 1.0) + eps + 1.0) * mp * mp / (2.0 * m ** 3) + np.sin(xi))
    energy_err = 0.0
    for f in np.random.default_rng(8).standard_normal((20, xi.size)):
        walls = np.concatenate(([0.0], f, [0.0]))
        kinetic = w * np.diff(walls) ** 2 / (2.0 * h * h)
        terms = np.concatenate([kinetic, on_node * f * f])
        energy_err = max(energy_err, abs(f @ dense @ f - terms.sum()) / np.abs(terms).sum())
    assert energy_err <= 1e-13

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(8, f"box err {box_err:.1e}, oscillator err {osc_err:.1e}, orders "
               f"{[f'{o:.2f}' for o in orders]}, energy identity {energy_err:.1e} "
               f"({elapsed:.1f}s)")


def test_criterion_9_verify_determinism(tmp_path):
    start = time.perf_counter()
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli.main(["verify", "--seed", "5", "--output", str(first)]) == 0
    assert cli.main(["verify", "--seed", "5", "--output", str(second)]) == 0
    b1, b2 = first.read_bytes(), second.read_bytes()
    assert b1 == b2
    json.loads(b1.decode())  # strict JSON

    elapsed = time.perf_counter() - start
    _report(9, f"verify report byte-identical across runs, {len(b1)} bytes "
               f"({elapsed:.1f}s)")

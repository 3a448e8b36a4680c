"""The verify suites: seeded property checks, one suite per module.

SUITES is the only registry of suite names; the CLI takes both its
--only choices and its verify loop from it.  Each suite takes a mapping
of tolerances by name and a seeded numpy Generator and returns a list of
checks.  A check is a dict with name, kind ("hard" gates the exit code,
"info" is reported only), measured value, threshold and passed flag.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np

from . import algebra, conformal, ginocchio, natanzon, numerics, pdmsolver
from .masses import constant_mass, exponential_well_mass, rational_mass
from .natanzon import OrderingParams
from .numerics import Grid

__all__ = ["SUITES"]


def _check(name, measured, threshold=None, kind="hard", passed=None):
    if passed is None and threshold is not None:
        passed = bool(measured <= threshold)
    return {"name": name, "kind": kind, "measured": measured,
            "threshold": threshold, "passed": passed}


def conformal_suite(tol, rng) -> list:
    checks = []
    half = conformal.BAND_HALF_WIDTH

    pts = rng.uniform(-half, half, 1000) + 1j * rng.uniform(-2.0, 2.0, 1000)
    tan_err = np.max(np.abs(conformal.strip_to_disk(pts) - np.tan(pts)))
    checks.append(_check("strip_to_disk_equals_tan", float(tan_err), 1e-12))

    anchor_err = np.max(np.abs(conformal.halfplane_to_disk(np.array([1j, -1j, 0.0]))
                               - np.array([1.0, -1.0, 1j])))
    checks.append(_check("halfplane_anchor_points", float(anchor_err), 1e-15))

    xi_err = np.max(np.abs(np.abs(conformal.xi_of_z(np.linspace(0.0, 1.0, 201))) - 1.0))
    checks.append(_check("xi_unit_modulus_on_segment", float(xi_err), 1e-12))

    r = np.sqrt(rng.uniform(0.0, 1.0, 100)) * 0.999
    th = rng.uniform(0.0, 2.0 * math.pi, 100)
    ws = r * np.exp(1j * th)
    rt_err = np.max(np.abs(conformal.halfplane_to_disk(conformal.disk_to_halfplane(ws)) - ws))
    checks.append(_check("disk_halfplane_round_trip", float(rt_err), 1e-12))

    # pinned probes at h = 1e-4; random band points take a smaller step
    # because the truncation error scales with the local third derivative
    cr_pts = rng.uniform(-half * 0.9, half * 0.9, 20) + 1j * rng.uniform(-1.5, 1.5, 20)
    cr_err = max(np.max(conformal.conformality_residual(conformal.strip_to_disk, cr_pts, 2e-5)),
                 conformal.conformality_residual(cmath.exp, 0.3 + 0.2j, 1e-4),
                 conformal.conformality_residual(conformal.strip_to_disk, 0.1 + 0.5j, 1e-4))
    checks.append(_check("cauchy_riemann_residual", float(cr_err), 1e-8))

    zt = (2.0 + 1j, -1.0 + 2j, 0.5 - 1.5j)
    wt = (0.0, 1.0 + 1j, 3.0 - 1j)
    mob = conformal.mobius_from_three_points(*zt, *wt)
    probes = rng.uniform(-2, 2, 50) + 1j * rng.uniform(-2, 2, 50)
    cross_err = np.max(np.abs(conformal.cross_ratio(mob(probes), *mob(np.array(zt)))
                              - conformal.cross_ratio(probes, *zt)))
    checks.append(_check("mobius_preserves_cross_ratio", float(cross_err), 1e-10))

    seg = conformal.strip_to_disk(np.linspace(-half, half, 101))
    seg_err = np.max(np.maximum(np.abs(seg.imag), np.abs(seg.real) - 1.0))
    checks.append(_check("real_segment_to_real_diameter", float(seg_err), 1e-10))

    edge = conformal.strip_to_disk(np.array([[-half], [half]]) + 1j * np.linspace(-2.0, 2.0, 81))
    edge_err = np.max(np.abs(np.abs(edge) - 1.0))
    checks.append(_check("band_boundary_to_unit_circle", float(edge_err), 1e-10))
    return checks


def algebra_suite(tol, rng) -> list:
    checks = []
    grid = Grid(-3.0, 3.0, 2401)
    realization = algebra.Su11Realization(xi=algebra.tanh_map(), a=1.0, delta=1.5)
    labels = algebra.labels_from_j(j=1.0, n=0, delta=1.5)
    psi = algebra.gaussian_sector_function(grid, sector=labels.j0)

    res1, res2 = algebra.commutator_residual(realization, psi)
    checks.append(_check("commutator_plus_minus", res1, 1e-6))
    checks.append(_check("commutator_j0_ladder", res2, 1e-6))

    cas = algebra.casimir_residual(realization, labels, psi)
    checks.append(_check("casimir_closed_vs_composed", cas, 1e-6))

    cas_m = algebra.casimir_residual(realization, labels, psi,
                                     mass=exponential_well_mass(0.5))
    checks.append(_check("casimir_with_varying_mass", cas_m, 1e-6))

    cgrid = Grid(-1.5, 1.5, 1501)
    res_a, res_b = algebra.constraint_residuals(realization, cgrid)
    checks.append(_check("constraint_b_vanishes", float(np.max(np.abs(res_b))), 1e-8))
    checks.append(_check("constraint_a_is_constant", float(np.std(res_a)), 1e-8))
    checks.append(_check("constraint_a_constant_value", float(np.mean(res_a)),
                         kind="info", passed=True))

    no_delta = algebra.Su11Realization(xi=algebra.tanh_map(), a=1.0, delta=0.0)
    _, res_b0 = algebra.constraint_residuals(no_delta, cgrid)
    checks.append(_check("constraint_b_delta_zero", float(np.max(np.abs(res_b0))), 1e-12))
    return checks


def natanzon_suite(tol, rng) -> list:
    checks = []
    params = ginocchio.params_for(0.8, 2.0)

    e1, e2, alpha = -3.0, -0.5, 0.3
    mixed = natanzon.coeffs_at_energy(params, alpha * e1 + (1 - alpha) * e2)
    c1 = natanzon.coeffs_at_energy(params, e1)
    c2 = natanzon.coeffs_at_energy(params, e2)
    lin_err = max(
        abs(mixed.c - (alpha * c1.c + (1 - alpha) * c2.c)),
        abs(mixed.p - (alpha * c1.p + (1 - alpha) * c2.p)),
        abs(mixed.q - (alpha * c1.q + (1 - alpha) * c2.q)),
    )
    checks.append(_check("energy_linearity", float(lin_err), 1e-12))

    shifted = dataclasses.replace(params, a_c=params.a_c + 5.0, a_p=params.a_p - 2.0)
    checks.append(_check("discriminant_shift_invariance",
                         abs(params.discriminant - shifted.discriminant), 0.0,
                         passed=params.discriminant == shifted.discriminant))

    u = np.concatenate([np.linspace(-3.0, -0.05, 120), np.linspace(0.05, 3.0, 120)])
    eq_err = 0.0
    for gamma in (0.8, 1.0, 1.5):
        p = ginocchio.params_for(gamma, 2.0)
        v_nat = natanzon.natanzon_potential(p, np.tanh(u) ** 2)
        v_hyp = ginocchio.v_hyperbolic(gamma, 2.0, u)
        eq_err = max(eq_err, float(np.max(np.abs(v_nat - v_hyp))))
    checks.append(_check("closed_potential_matches_hyperbolic", eq_err, 1e-10))

    cmap = natanzon.solve_coordinate_map(ginocchio.params_for(1.0, 2.0), constant_mass(),
                                         x0=0.0, z0=math.tanh(0.5) ** 2)
    xs = np.linspace(-0.2, 1.9, 40)
    # each map call costs about the same whatever its point count: one
    # call for z and one for the four shifted copies of the derivative
    z = cmap.z(xs)
    ident_err = float(np.max(np.abs(
        numerics.derivative(cmap.z, xs, h=1e-4) ** 2
        - 2.0 * natanzon.generating_function(cmap.params, z))))
    checks.append(_check("generating_identity_residual", ident_err, 1e-8))
    closed_err = float(np.max(np.abs(z - np.tanh(math.sqrt(2.0) * xs + 0.5) ** 2)))
    checks.append(_check("map_matches_closed_form", closed_err, 1e-8))

    gparams = ginocchio.params_for(1.0, 2.0)
    lbl = natanzon.labels_for_level(gparams, -4.0, 0)
    co = natanzon.coeffs_at_energy(gparams, -4.0)
    book_err = max(
        abs((lbl.delta - 2 * lbl.j0) ** 2 / 4.0 - 1.0 - co.p),
        abs((lbl.delta + 2 * lbl.j0) ** 2 / 4.0 - 2.0 - co.q),
        abs(lbl.j0 - (lbl.n + 0.5 + math.sqrt(co.c + 0.25))),
    )
    checks.append(_check("discrete_series_bookkeeping", float(book_err), 1e-12))
    return checks


def ginocchio_suite(tol, rng) -> list:
    checks = []
    gammas = (0.5, 0.8, 1.0, 1.5, 2.0)
    zs = np.linspace(0.1, 0.9, 9)

    # one array call per gamma for each closed form, quadrature and inversion
    u_of_z = np.arctanh(np.sqrt(zs))
    quad_err = max(float(np.max(np.abs(ginocchio.mu_closed_form(g, u_of_z)
                                       - ginocchio.mass_integral(g, zs))))
                   for g in gammas)
    checks.append(_check("mass_integral_vs_closed_form", quad_err, 1e-8))

    u0 = np.array([-2.0, -0.8, 0.8, 2.0])
    rt_err = max(float(np.max(np.abs(ginocchio.invert_mu(g, ginocchio.mu_closed_form(g, u0))
                                     - u0)))
                 for g in gammas)
    checks.append(_check("mu_inversion_round_trip", rt_err, 1e-10))

    us = np.linspace(-5.0, 5.0, 201)
    mono_ok = all(np.all(np.diff(ginocchio.mu_closed_form(g, us)) > 0.0) for g in gammas)
    odd_err = max(float(np.max(np.abs(ginocchio.mu_closed_form(g, us)
                                      + ginocchio.mu_closed_form(g, -us))))
                  for g in gammas)
    checks.append(_check("mu_monotone_increasing", 0.0 if mono_ok else 1.0, 0.5,
                         passed=mono_ok))
    checks.append(_check("mu_odd_in_u", odd_err, 1e-12))

    uu = np.linspace(-4.0, 4.0, 161)
    form_resid = {g: float(np.max(np.abs(
        ginocchio.v_hyperbolic(g, 2.0, uu)
        - ginocchio.v_polynomial(g, 2.0, ginocchio.y_of_u(g, uu))))) for g in gammas}
    checks.append(_check("hyperbolic_vs_polynomial_gamma1", form_resid[1.0], 1e-12))
    checks.append(_check("hyperbolic_vs_polynomial_table", max(form_resid.values()),
                         kind="info", passed=True))

    pt_err = max(abs(ginocchio.spectrum_closed_form(1.0, 2.0, n) + (2.0 - 2.0 * n) ** 2)
                 for n in (0, 1, 2))
    checks.append(_check("closed_spectrum_gamma1_collapse", pt_err, 1e-12))
    neg_ok = ginocchio.spectrum_closed_form(1.0, 2.0, 0) < 0.0
    checks.append(_check("closed_spectrum_negative_below_half_j",
                         0.0 if neg_ok else 1.0, 0.5, passed=neg_ok))
    return checks


def pdmsolver_suite(tol, rng) -> list:
    checks = []
    unit = constant_mass()
    bdd = natanzon.BEN_DANIEL_DUKE

    box = Grid(0.0, 1.0, 501)
    grids = (box, box.refined(), box.refined().refined())
    h_box = [pdmsolver.assemble_hamiltonian(unit, np.zeros(g.n_points), bdd, g)
             for g in grids]
    shift = 0.5
    box_t = Grid(box.x_min + shift, box.x_max + shift, box.n_points)
    h_box_t = pdmsolver.assemble_hamiltonian(unit, np.zeros(box_t.n_points), bdd, box_t)
    osc = Grid(-10.0, 10.0, 1001)
    v_osc = 0.5 * osc.points ** 2
    h_osc = pdmsolver.assemble_hamiltonian(unit, v_osc, bdd, osc)
    osc_f = osc.refined()
    h_osc_f = pdmsolver.assemble_hamiltonian(unit, 0.5 * osc_f.points ** 2, bdd, osc_f)
    # the six matrices share one Sturm certificate call, and each refined
    # grid is seeded by its coarse twin; both extrapolations take the
    # richardson step that verify_spectrum takes
    *eigs, eigs_t, e_osc, e_osc_f = numerics.lowest_eigenvalues(
        [*h_box, h_box_t, h_osc, h_osc_f], 4, seeds_from=(None, 0, 1, None, None, 4))

    exact_box = np.array([(k * math.pi) ** 2 / 2.0 for k in range(1, 5)])
    extrap, _ = pdmsolver.richardson(eigs[0], eigs[1])
    checks.append(_check("box_oracle_extrapolated",
                         float(np.max(np.abs(extrap - exact_box))), 1e-4))
    ratios = (eigs[0] - eigs[1]) / (eigs[1] - eigs[2])
    order = float(np.log2(np.min(np.abs(ratios))))
    order_hi = float(np.log2(np.max(np.abs(ratios))))
    checks.append(_check("convergence_order_low", order, None, kind="hard",
                         passed=1.8 <= order <= 2.2))
    checks.append(_check("convergence_order_high", order_hi, None, kind="hard",
                         passed=1.8 <= order_hi <= 2.2))

    osc_extrap, _ = pdmsolver.richardson(e_osc, e_osc_f)
    osc_err = float(np.max(np.abs(osc_extrap - (np.arange(4) + 0.5))))
    checks.append(_check("harmonic_oracle_extrapolated", osc_err, 1e-4))

    rat = rational_mass(2.0)
    gr = Grid(-8.0, 8.0, 801)
    hm = pdmsolver.assemble_hamiltonian(rat, np.zeros(gr.n_points), bdd, gr)
    rowsum = hm.diagonal[1:-1] + hm.offdiagonal[:-1] + hm.offdiagonal[1:]
    checks.append(_check("flux_row_sums_vanish", float(np.max(np.abs(rowsum))),
                         1e-9 * float(np.max(np.abs(hm.diagonal)))))

    h_eta = pdmsolver.assemble_hamiltonian(unit, v_osc, OrderingParams(0.0, 0.0), osc)
    same = np.array_equal(h_eta.diagonal, h_osc.diagonal) and \
        np.array_equal(h_eta.offdiagonal, h_osc.offdiagonal)
    checks.append(_check("ordering_immaterial_for_constant_mass",
                         0.0 if same else 1.0, 0.5, passed=same))

    report = pdmsolver.verify_spectrum(1.0, 2.0, unit, bdd, Grid(-10.0, 10.0, 801),
                                       quad_tol=tol["quad"])
    num = report["energies_numeric"]
    pt_err = max(abs(num[0] + 4.0), abs(num[1] + 1.0)) if len(num) >= 2 else math.inf
    checks.append(_check("poschl_teller_levels", float(pt_err), 1e-3))
    fit = report["best_fit_index_map"]
    checks.append(_check("index_map_doubling",
                         fit.get("alpha"), None, kind="info",
                         passed=fit.get("status") == "MATCHED" and fit.get("alpha") == 2))
    mi = report["mass_independence"]["max_diff"]
    checks.append(_check("mass_independence", mi if mi is not None else math.inf,
                         tol["mass_independence_gate"]))
    checks.append(_check("closed_form_levels_verbatim", report["energies_eq34"],
                         kind="info", passed=True))

    trans_err = float(np.max(np.abs(eigs_t - eigs[0])))
    checks.append(_check("translation_covariance", trans_err, 1e-9 * exact_box[-1]))
    return checks


SUITES = {
    "conformal": conformal_suite,
    "algebra": algebra_suite,
    "natanzon": natanzon_suite,
    "ginocchio": ginocchio_suite,
    "pdmsolver": pdmsolver_suite,
}

import math

import numpy as np
import pytest

from natpdm import numerics, pdmsolver
from natpdm.ginocchio import GinocchioSpec, potential_on_x_grid
from natpdm.masses import (
    MASS_REGISTRY,
    NonpositiveMass,
    constant_mass,
    exponential_well_mass,
    mass_from_callable,
    parse_mass,
    rational_mass,
)
from natpdm.natanzon import BEN_DANIEL_DUKE, OrderingParams
from natpdm.numerics import Grid, lowest_eigenvalues
from natpdm.pdmsolver import assemble_hamiltonian, solve_bound_states, verify_spectrum


class TestMassProfiles:
    def test_rational_derivatives(self):
        mass = rational_mass(2.0)
        x = np.linspace(-2.0, 2.0, 11)
        fd = numerics.derivative(mass.m, x, order=1, h=1e-3)
        assert np.max(np.abs(fd - mass.m_prime(x))) < 1e-9
        fd2 = numerics.derivative(mass.m, x, order=2, h=1e-3)
        assert np.max(np.abs(fd2 - mass.m_double_prime(x))) < 1e-8

    def test_exponential_well_derivatives(self):
        mass = exponential_well_mass(0.5)
        x = np.linspace(-2.0, 2.0, 11)
        fd = numerics.derivative(mass.m, x, order=1, h=1e-3)
        assert np.max(np.abs(fd - mass.m_prime(x))) < 1e-9

    def test_parse_mass(self):
        assert parse_mass("constant").label == "constant"
        assert parse_mass("rational:3.0").label == "rational:3.0"
        assert parse_mass("exponential-well:0.25").m(0.0) == pytest.approx(1.25)
        with pytest.raises(ValueError):
            parse_mass("nosuch")

    def test_positivity_guards(self):
        with pytest.raises(NonpositiveMass):
            constant_mass(0.0)
        with pytest.raises(NonpositiveMass):
            rational_mass(-1.0)

    @pytest.mark.parametrize("text", [f"{name}:{end!r}" for name, (_, ends) in
                                      MASS_REGISTRY.items() for end in ends])
    def test_finite_for_every_finite_x(self, text):
        # a RuntimeWarning fails the suite, so this also checks that none is raised
        mass = parse_mass(text)
        x = np.array([-1e300, -1e200, 1e200, 1e300])
        # every profile sits at its asymptote this far out
        assert np.unique(mass.m(x)).size == 1
        for fn in (mass.m, mass.m_prime, mass.m_double_prime):
            assert np.all(np.isfinite(fn(x)))
            assert all(math.isfinite(fn(v)) for v in x)

    def test_finite_difference_fallback(self):
        mass = mass_from_callable(lambda x: 1.0 + 0.1 * np.asarray(x, dtype=float) ** 2)
        assert float(mass.m_prime(1.0)) == pytest.approx(0.2, abs=1e-9)


class TestAssembly:
    def test_unit_mass_is_half_laplacian(self):
        grid = Grid(0.0, 1.0, 11)
        h = grid.spacing
        hm = assemble_hamiltonian(constant_mass(), np.zeros(11), BEN_DANIEL_DUKE, grid)
        assert np.allclose(hm.diagonal, 1.0 / h ** 2)
        assert np.allclose(hm.offdiagonal, -0.5 / h ** 2)

    def test_matrix_exactly_symmetric(self):
        grid = Grid(-3.0, 3.0, 41)
        hm = assemble_hamiltonian(rational_mass(2.0), np.sin(grid.points),
                                  OrderingParams(0.2, -0.7), grid)
        dense = hm.to_dense()
        assert np.array_equal(dense, dense.T)

    def test_bdd_ordering_terms_vanish(self):
        # eta = 0, eps = -1 zeroes both ordering coefficients even for m' != 0
        grid = Grid(-3.0, 3.0, 41)
        mass = rational_mass(2.0)
        v = np.zeros(41)
        hm = assemble_hamiltonian(mass, v, BEN_DANIEL_DUKE, grid)
        h = grid.spacing
        w = 1.0 / mass.m(grid.midpoints)
        assert np.allclose(hm.diagonal, (w[:-1] + w[1:]) / (2.0 * h * h), atol=1e-15)

    def test_flux_row_sums(self):
        grid = Grid(-3.0, 3.0, 101)
        hm = assemble_hamiltonian(rational_mass(2.0), np.zeros(101), BEN_DANIEL_DUKE, grid)
        rowsum = hm.diagonal[1:-1] + hm.offdiagonal[:-1] + hm.offdiagonal[1:]
        assert np.max(np.abs(rowsum)) < 1e-9 * np.max(np.abs(hm.diagonal))

    def test_spacing_past_the_double_range(self):
        # 2 h^2 exceeds the double range even for numpy float ends; the
        # kinetic entries round to 0 without an overflow warning
        grid = Grid(np.float64(-1e300), np.float64(1e300), 11)
        hm = assemble_hamiltonian(rational_mass(2.0), np.zeros(11), BEN_DANIEL_DUKE, grid)
        assert np.all(hm.offdiagonal == 0.0) and np.all(np.isfinite(hm.diagonal))

    def test_nonpositive_mass(self):
        bad = mass_from_callable(lambda x: np.asarray(x, dtype=float))
        with pytest.raises(NonpositiveMass):
            assemble_hamiltonian(bad, np.zeros(11), BEN_DANIEL_DUKE, Grid(-1.0, 1.0, 11))

    def test_ordering_immaterial_for_constant_mass(self):
        grid = Grid(-5.0, 5.0, 101)
        v = 0.5 * grid.points ** 2
        h1 = assemble_hamiltonian(constant_mass(), v, BEN_DANIEL_DUKE, grid)
        h2 = assemble_hamiltonian(constant_mass(), v, OrderingParams(0.3, 0.1), grid)
        assert np.array_equal(h1.diagonal, h2.diagonal)
        assert np.array_equal(h1.offdiagonal, h2.offdiagonal)


class TestBoundStates:
    def test_box_oracle(self):
        grid = Grid(0.0, 1.0, 501)
        hm = assemble_hamiltonian(constant_mass(), np.zeros(501), BEN_DANIEL_DUKE, grid)
        fine = grid.refined()
        hm_f = assemble_hamiltonian(constant_mass(), np.zeros(fine.n_points),
                                    BEN_DANIEL_DUKE, fine)
        res, = solve_bound_states([(hm, hm_f)], 4)
        exact = np.array([(k * math.pi) ** 2 / 2.0 for k in range(1, 5)])
        assert np.max(np.abs(res.energies - exact)) < 1e-4
        assert np.all(res.convergence_estimate < 1e-2)

    def test_harmonic_oracle(self):
        grid = Grid(-10.0, 10.0, 1001)
        v = 0.5 * grid.points ** 2
        hm = assemble_hamiltonian(constant_mass(), v, BEN_DANIEL_DUKE, grid)
        fine = grid.refined()
        hm_f = assemble_hamiltonian(constant_mass(), 0.5 * fine.points ** 2,
                                    BEN_DANIEL_DUKE, fine)
        res, = solve_bound_states([(hm, hm_f)], 4)
        assert np.max(np.abs(res.energies - (np.arange(4) + 0.5))) < 1e-4

    def test_poschl_teller_ground_state(self):
        # closed form -(j - n)^2 with j = 2: ground state -4
        grid = Grid(-12.0, 12.0, 4001)
        v = -6.0 / np.cosh(math.sqrt(2.0) * grid.points) ** 2
        hm = assemble_hamiltonian(constant_mass(), v, BEN_DANIEL_DUKE, grid)
        e0 = lowest_eigenvalues([hm], 1)[0, 0]
        assert e0 == pytest.approx(-4.0, abs=1e-3)

    def test_no_bound_states_for_repulsive(self):
        grid = Grid(-8.0, 8.0, 401)
        fine = grid.refined()
        hm = assemble_hamiltonian(constant_mass(), np.exp(-grid.points ** 2),
                                  BEN_DANIEL_DUKE, grid)
        hm_f = assemble_hamiltonian(constant_mass(), np.exp(-fine.points ** 2),
                                    BEN_DANIEL_DUKE, fine)
        res, = solve_bound_states([(hm, hm_f)], 3)
        assert res.bound_below(0.0).size == 0

    def test_translation_covariance(self):
        n = 301
        base = Grid(0.0, 1.0, n)
        shifted = Grid(0.5, 1.5, n)
        e1, e2 = lowest_eigenvalues(
            [assemble_hamiltonian(constant_mass(), np.zeros(n), BEN_DANIEL_DUKE, g)
             for g in (base, shifted)], 3)
        assert np.max(np.abs(e1 - e2)) < 1e-9 * np.max(np.abs(e1))

    def test_estimates_follow_their_levels(self, monkeypatch):
        # the extrapolation (4 fine - coarse)/3 swaps the first two levels:
        # it gives 5 and 4, whose two-grid changes are 3 and 0
        solved = {"coarse": np.array([1.0, 4.0, 9.0]), "fine": np.array([4.0, 4.0, 9.0])}
        monkeypatch.setattr(pdmsolver, "lowest_eigenvalues",
                            lambda matrices, k: np.array([solved[m] for m in matrices]))
        res, same = solve_bound_states([("coarse", "fine"), ("fine", "fine")], 3)
        assert res.energies.tolist() == [4.0, 5.0, 9.0]
        assert res.convergence_estimate.tolist() == [0.0, 3.0, 0.0]
        assert same.energies.tolist() == [4.0, 4.0, 9.0]
        assert same.convergence_estimate.tolist() == [0.0, 0.0, 0.0]

    def test_convergence_order(self):
        grids = [Grid(0.0, 1.0, 101)]
        grids.append(grids[0].refined())
        grids.append(grids[1].refined())
        eigs = []
        for g in grids:
            hm = assemble_hamiltonian(constant_mass(), np.zeros(g.n_points),
                                      BEN_DANIEL_DUKE, g)
            eigs.append(lowest_eigenvalues([hm], 1)[0, 0])
        ratio = (eigs[0] - eigs[1]) / (eigs[1] - eigs[2])
        order = math.log2(abs(ratio))
        assert 1.8 <= order <= 2.2


@pytest.fixture(scope="module")
def report():
    return verify_spectrum(
        GinocchioSpec(1.0, 2.0), constant_mass(), BEN_DANIEL_DUKE,
        Grid(-10.0, 10.0, 1001),
    )


class TestVerifySpectrum:
    def test_poschl_teller_levels(self, report):
        assert len(report.energies_numeric) == 2
        assert report.energies_numeric[0] == pytest.approx(-4.0, abs=1e-3)
        assert report.energies_numeric[1] == pytest.approx(-1.0, abs=1e-3)

    def test_one_estimate_per_reported_level(self, report):
        # k = 4 levels are solved, two of them bound
        assert len(report.convergence_estimates) == len(report.energies_numeric)

    def test_closed_form_verbatim(self, report):
        assert report.energies_closed_form == pytest.approx([-4.0, 0.0, -4.0])

    def test_quantization_matches_closed_form(self, report):
        finite = [r for r in report.quant_vs_closed if math.isfinite(r)]
        assert finite and max(finite) < 1e-9

    def test_index_map_doubles(self, report):
        fit = report.best_fit_index_map
        assert fit["status"] == "MATCHED"
        assert fit["alpha"] == 2
        assert fit["max_mismatch"] < 1e-3

    def test_mass_independence(self, report):
        assert report.mass_independence["partner_mass"].startswith("rational")
        assert report.mass_independence["max_diff"] < 2e-3

    def test_mass_term_cancels_the_mass_dependence(self):
        # V_hyp alone sees the mass through u(x), and its levels move with
        # it; the von Roos term Um in V_total = V_hyp + Um cancels that
        grid = Grid(-12.0, 12.0, 1201)
        fine = grid.refined()

        def levels(mass):
            table = potential_on_x_grid(1.0, 2.0, mass, BEN_DANIEL_DUKE, fine)
            out = {}
            for name in ("v_hyp", "v_total"):
                v = getattr(table, name)
                res, = solve_bound_states(
                    [(assemble_hamiltonian(mass, v[::2], BEN_DANIEL_DUKE, grid),
                      assemble_hamiltonian(mass, v, BEN_DANIEL_DUKE, fine))], 4)
                out[name] = res.energies[:2]  # the two bound levels, -4 and -1
            return out

        constant, rational = levels(constant_mass()), levels(rational_mass(2.0))
        gate = 2e-3
        assert np.max(np.abs(constant["v_hyp"] - rational["v_hyp"])) > 10.0 * gate
        assert np.max(np.abs(constant["v_total"] - rational["v_total"])) < 1e-6

    def test_report_serializes(self, report):
        import json
        payload = json.dumps(report.to_dict(), sort_keys=True)
        assert "energies_eq34" in payload
        assert "NaN" not in payload

    def test_tabulates_each_mass_once_on_the_refined_grid(self, monkeypatch):
        tabulated = []
        original = pdmsolver.potential_on_x_grid

        def counting(gamma, j, mass, ordering, grid, **kwargs):
            tabulated.append(grid)
            return original(gamma, j, mass, ordering, grid, **kwargs)

        monkeypatch.setattr(pdmsolver, "potential_on_x_grid", counting)
        grid = Grid(-10.0, 10.0, 201)
        verify_spectrum(GinocchioSpec(1.0, 2.0), constant_mass(), BEN_DANIEL_DUKE, grid)
        assert tabulated == [grid.refined(), grid.refined()]

    def test_structural_mass_independence_of_quantization(self):
        # the identity never sees the mass profile: no mass argument exists
        import inspect
        from natpdm.natanzon import solve_spectrum
        params = inspect.signature(solve_spectrum).parameters
        assert "mass" not in params

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natpdm import cli, numerics, pdmsolver
from natpdm.ginocchio import potential_on_x_grid
from natpdm.masses import (
    MASS_REGISTRY,
    MassProfile,
    NonpositiveMass,
    constant_mass,
    exponential_well_mass,
    parse_mass,
    rational_mass,
)
from natpdm.natanzon import BEN_DANIEL_DUKE, OrderingParams
from natpdm.numerics import Grid, lowest_eigenvalues
from natpdm.pdmsolver import assemble_hamiltonian, richardson, verify_spectrum


class TestMassProfiles:
    def test_rational_derivatives(self):
        mass = rational_mass(2.0)
        x = np.linspace(-2.0, 2.0, 11)
        fd = numerics.derivative(mass.m, x, h=1e-3)
        assert np.max(np.abs(fd - mass.m_prime(x))) < 1e-9
        fd2 = numerics.derivative(mass.m_prime, x, h=1e-3)
        assert np.max(np.abs(fd2 - mass.m_double_prime(x))) < 1e-8

    def test_exponential_well_derivatives(self):
        mass = exponential_well_mass(0.5)
        x = np.linspace(-2.0, 2.0, 11)
        fd = numerics.derivative(mass.m, x, h=1e-3)
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


class TestAssembly:
    def test_unit_mass_is_half_laplacian(self):
        grid = Grid(0.0, 1.0, 11)
        h = grid.spacing
        hm = assemble_hamiltonian(constant_mass(), np.zeros(11), BEN_DANIEL_DUKE, grid)
        assert np.allclose(hm.diagonal, 1.0 / h ** 2)
        assert np.allclose(hm.offdiagonal, -0.5 / h ** 2)

    def test_matrix_applies_the_von_roos_operator_to_second_order(self):
        # oracle: the operator of the pdmsolver docstring applied to
        # f = sin(k (x + 3)), which vanishes at both walls, with the
        # rational:2 mass m = (2 + x^2)/(1 + x^2) and its derivatives
        # written out here; the error of H f on the interior nodes falls
        # by 4 per halving of the spacing
        eta, eps = 0.2, -0.7
        k = math.pi / 6.0
        errors = []
        grid = Grid(-3.0, 3.0, 41)
        for _ in range(3):
            x = grid.points
            hm = assemble_hamiltonian(rational_mass(2.0), np.sin(x), OrderingParams(eta, eps),
                                      grid)
            f = np.sin(k * (x + 3.0))
            hf = hm.diagonal * f[1:-1]
            hf[:-1] += hm.offdiagonal * f[2:-1]
            hf[1:] += hm.offdiagonal * f[1:-2]
            x = x[1:-1]
            m = (2.0 + x * x) / (1.0 + x * x)
            mp = -2.0 * x / (1.0 + x * x) ** 2
            mpp = -2.0 * (1.0 - 3.0 * x * x) / (1.0 + x * x) ** 3
            fp, fpp = k * np.cos(k * (x + 3.0)), -k * k * np.sin(k * (x + 3.0))
            exact = (-fpp / (2.0 * m) + mp * fp / (2.0 * m * m)
                     + ((1.0 + eps) * mpp / (4.0 * m * m)
                        - (eta * (eta + eps + 1.0) + eps + 1.0) * mp * mp / (2.0 * m ** 3)
                        + np.sin(x)) * f[1:-1])
            errors.append(np.max(np.abs(hf - exact)))
            grid = grid.refined()
        ratios = [errors[0] / errors[1], errors[1] / errors[2]]
        assert all(3.8 <= r <= 4.2 for r in ratios), (errors, ratios)

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
        bad = MassProfile(lambda x: x, np.ones_like, np.zeros_like)
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
        energies, changes = richardson(*lowest_eigenvalues([hm, hm_f], 4))
        exact = np.array([(k * math.pi) ** 2 / 2.0 for k in range(1, 5)])
        assert np.max(np.abs(energies - exact)) < 1e-4
        assert np.all(changes < 1e-2)

    def test_harmonic_oracle(self):
        grid = Grid(-10.0, 10.0, 1001)
        v = 0.5 * grid.points ** 2
        hm = assemble_hamiltonian(constant_mass(), v, BEN_DANIEL_DUKE, grid)
        fine = grid.refined()
        hm_f = assemble_hamiltonian(constant_mass(), 0.5 * fine.points ** 2,
                                    BEN_DANIEL_DUKE, fine)
        energies, _ = richardson(*lowest_eigenvalues([hm, hm_f], 4))
        assert np.max(np.abs(energies - (np.arange(4) + 0.5))) < 1e-4

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
        energies, _ = richardson(*lowest_eigenvalues([hm, hm_f], 3))
        assert energies[energies < 0.0].size == 0

    def test_translation_covariance(self):
        n = 301
        base = Grid(0.0, 1.0, n)
        shifted = Grid(0.5, 1.5, n)
        e1, e2 = lowest_eigenvalues(
            [assemble_hamiltonian(constant_mass(), np.zeros(n), BEN_DANIEL_DUKE, g)
             for g in (base, shifted)], 3)
        assert np.max(np.abs(e1 - e2)) < 1e-9 * np.max(np.abs(e1))

    def test_estimates_follow_their_levels(self):
        # the extrapolation (4 fine - coarse)/3 swaps the first two levels
        # of the first row: it gives 5 and 4, whose two-grid changes are 3
        # and 0; the second row keeps its order
        coarse = np.array([[1.0, 4.0, 9.0], [4.0, 4.0, 9.0]])
        fine = np.array([[4.0, 4.0, 9.0], [4.0, 4.0, 9.0]])
        energies, changes = richardson(coarse, fine)
        assert energies.tolist() == [[4.0, 5.0, 9.0], [4.0, 4.0, 9.0]]
        assert changes.tolist() == [[0.0, 3.0, 0.0], [0.0, 0.0, 0.0]]

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


# levels drawn from a few values, so ties in the extrapolation are common
LEVEL = st.sampled_from([-4.0, -1.0, 0.0, 0.5, 2.0]) | st.floats(-1e300, 1e300)


@st.composite
def level_rows(draw):
    rows, k = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    coarse, fine = (np.array(draw(st.lists(st.lists(LEVEL, min_size=k, max_size=k),
                                           min_size=rows, max_size=rows)))
                    for _ in range(2))
    return coarse, fine


class TestRichardson:
    @settings(max_examples=200, deadline=None)
    @given(case=level_rows())
    def test_rows_ascend_and_keep_each_change_with_its_level(self, case):
        coarse, fine = case
        energies, changes = richardson(coarse, fine)
        assert energies.shape == changes.shape == coarse.shape
        for r in range(coarse.shape[0]):
            assert np.all(np.diff(energies[r]) >= 0.0)
            pairs = list(zip((4.0 * fine[r] - coarse[r]) / 3.0, np.abs(fine[r] - coarse[r])))
            # sorted() is stable, as the one argsort per row must be
            assert list(zip(energies[r], changes[r])) == sorted(pairs, key=lambda p: p[0])
            # a row alone comes out as it does in the batch
            alone = richardson(coarse[r], fine[r])
            assert np.array_equal(alone[0], energies[r])
            assert np.array_equal(alone[1], changes[r])


class TestIndexMap:
    def test_pairs_n_with_2n_where_n_with_n_fits_better(self):
        # n -> n fits within 1e-6 and n -> 2n is off by 1; eq. 34 names the
        # even numeric levels, so the 2n pairs and their mismatch are reported
        mismatch = np.ones((5, 3))
        mismatch[np.arange(3), np.arange(3)] = 1e-7
        assert pdmsolver._index_map(mismatch) == {"max_mismatch": 1.0, "pairs": [
            {"analytic_n": 0, "numeric_n": 0, "mismatch": 1e-7},
            {"analytic_n": 1, "numeric_n": 2, "mismatch": 1.0},
            {"analytic_n": 2, "numeric_n": 4, "mismatch": 1.0}]}

    def test_no_pair_measures_nothing(self):
        # closed-form level 0 missing (nan), and level 1's numeric level 2
        # past the two solved rows
        mismatch = np.array([[np.nan, 0.1, 0.2], [np.nan, 0.3, 0.4]])
        assert pdmsolver._index_map(mismatch) == {"max_mismatch": None, "pairs": []}


@pytest.fixture(scope="module")
def report():
    return verify_spectrum(1.0, 2.0, constant_mass(), BEN_DANIEL_DUKE, Grid(-10.0, 10.0, 1001))


class TestVerifySpectrum:
    def test_poschl_teller_levels(self, report):
        assert len(report["energies_numeric"]) == 2
        assert report["energies_numeric"][0] == pytest.approx(-4.0, abs=1e-3)
        assert report["energies_numeric"][1] == pytest.approx(-1.0, abs=1e-3)

    def test_one_estimate_per_reported_level(self, report):
        # the two bound levels are solved, and one estimate kept for each
        assert len(report["convergence_estimates"]) == len(report["energies_numeric"])

    def test_closed_form_verbatim(self, report):
        assert report["energies_eq34"] == pytest.approx([-4.0, 0.0, -4.0])

    def test_quantization_matches_closed_form(self, report):
        finite = [r for r in report["residuals"]["eq27_vs_eq34"] if math.isfinite(r)]
        assert finite and max(finite) < 1e-9

    def test_index_map_doubles(self, report):
        fit = report["best_fit_index_map"]
        assert [(p["analytic_n"], p["numeric_n"]) for p in fit["pairs"]] == [(0, 0)]
        assert fit["max_mismatch"] < 1e-3

    def test_index_map_reads_the_residual_matrix(self):
        # gamma = 0.5, j = 3.3 pairs analytic n = 1 with numeric n = 2
        report = verify_spectrum(0.5, 3.3, constant_mass(), BEN_DANIEL_DUKE,
                                 Grid(-12.0, 12.0, 1201))
        fit, matrix = report["best_fit_index_map"], report["residuals"]["numeric_vs_eq34_matrix"]
        assert [(p["analytic_n"], p["numeric_n"]) for p in fit["pairs"]] == [(0, 0), (1, 2)]
        for pair in fit["pairs"]:
            assert pair["mismatch"] == matrix[pair["numeric_n"]][pair["analytic_n"]]
        assert fit["max_mismatch"] == max(p["mismatch"] for p in fit["pairs"])

    def test_mass_independence(self, report):
        assert report["mass_independence"]["partner_mass"].startswith("rational")
        assert report["mass_independence"]["max_diff"] < 2e-3

    def test_mass_term_cancels_the_mass_dependence(self):
        # V_hyp alone sees the mass through u(x), and its levels move with
        # it; the von Roos term Um in V_total = V_hyp + Um cancels that
        grid = Grid(-12.0, 12.0, 1201)
        fine = grid.refined()

        def levels(mass):
            table = potential_on_x_grid(1.0, 2.0, mass, BEN_DANIEL_DUKE, fine)
            out = {}
            for name in ("V_hyp", "V_total"):
                v = table[name]
                energies, _ = richardson(*lowest_eigenvalues(
                    [assemble_hamiltonian(mass, v[::2], BEN_DANIEL_DUKE, grid),
                     assemble_hamiltonian(mass, v, BEN_DANIEL_DUKE, fine)], 4))
                out[name] = energies[:2]  # the two bound levels, -4 and -1
            return out

        constant, rational = levels(constant_mass()), levels(rational_mass(2.0))
        gate = 2e-3
        assert np.max(np.abs(constant["V_hyp"] - rational["V_hyp"])) > 10.0 * gate
        assert np.max(np.abs(constant["V_total"] - rational["V_total"])) < 1e-6

    @pytest.mark.parametrize("mass", ["rational:2", "exponential-well:0.5"])
    def test_levels_do_not_depend_on_the_ordering(self, mass):
        # Um plus the assembled ordering terms is m''/(8 m^2) - 7 m'^2/(32 m^3)
        # for every (eta, epsilon), so the levels agree to rounding
        levels = [verify_spectrum(0.8, 2.0, parse_mass(mass), OrderingParams(eta, epsilon),
                                  Grid(-12.0, 12.0, 1201))["energies_numeric"]
                  for eta, epsilon in ((0.0, -1.0), (-0.5, 0.0), (0.0, 0.0), (3.0, -7.0))]
        assert [len(e) for e in levels] == [2] * 4
        for other in levels[1:]:
            assert np.max(np.abs(np.subtract(other, levels[0]))) < 1e-12

    def test_report_serializes(self, report):
        payload = cli._json_text(report)
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
        verify_spectrum(1.0, 2.0, constant_mass(), BEN_DANIEL_DUKE, grid)
        assert tabulated == [grid.refined(), grid.refined()]

    def test_structural_mass_independence_of_quantization(self):
        # the identity never sees the mass profile: no mass argument exists
        import inspect
        from natpdm.natanzon import solve_spectrum
        params = inspect.signature(solve_spectrum).parameters
        assert "mass" not in params



@pytest.fixture
def asked(monkeypatch):
    """The k of each pdmsolver.lowest_eigenvalues call."""
    ks = []
    solve = pdmsolver.lowest_eigenvalues

    def solving(matrices, k, **kwargs):
        ks.append(k)
        return solve(matrices, k, **kwargs)

    monkeypatch.setattr(pdmsolver, "lowest_eigenvalues", solving)
    return ks


class TestLevelCount:
    """verify_spectrum solves for the levels its matrices bind below their thresholds."""

    @pytest.mark.parametrize("gamma, j, mass, k", [(1.0, 2.0, "constant", 2),
                                                   (0.8, 2.5, "rational:2", 3)])
    def test_default_grid_asks_for_its_bound_levels(self, asked, gamma, j, mass, k):
        report = verify_spectrum(gamma, j, parse_mass(mass), BEN_DANIEL_DUKE,
                                 Grid(-12.0, 12.0, 1201))
        assert asked == [k]
        assert len(report["energies_numeric"]) == k

    def test_grid_with_fewer_rows_than_levels_is_solved(self, asked):
        # two interior nodes, three closed-form levels
        report = verify_spectrum(1.0, 2.0, constant_mass(), BEN_DANIEL_DUKE,
                                 Grid(-12.0, 12.0, 4))
        assert asked == [1]
        assert len(report["energies_eq34"]) == len(report["energies_eq27"]) == 3

    def test_count_is_clipped_to_the_coarse_rows(self, asked, monkeypatch):
        counts, count = [], pdmsolver.sturm_count

        def counting(matrices, shifts):
            counts.append(count(matrices, shifts))
            return counts[-1]

        monkeypatch.setattr(pdmsolver, "sturm_count", counting)
        verify_spectrum(1.0, 2.0, constant_mass(), BEN_DANIEL_DUKE, Grid(-1e300, 1e300, 11))
        # one count over the four matrices: the fine ones bind more levels
        # than the coarse ones have rows
        assert len(counts) == 1 and counts[0].max() > 9
        assert asked == [9]

    def test_a_box_with_no_bound_level_asks_for_one(self, asked):
        report = verify_spectrum(1.0, 2.0, constant_mass(), BEN_DANIEL_DUKE,
                                 Grid(-1e-70, 1e-70, 11))
        assert asked == [1]
        assert report["energies_numeric"] == report["convergence_estimates"] == []

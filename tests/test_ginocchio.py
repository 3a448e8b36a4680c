import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natpdm import ginocchio, natanzon, numerics
from natpdm.ginocchio import (
    invert_mu,
    mass_integral,
    mu_closed_form,
    params_for,
    potential_on_x_grid,
    spectrum_closed_form,
    v_hyperbolic,
    v_polynomial,
    y_of_u,
)
from natpdm.masses import constant_mass, exponential_well_mass, rational_mass
from natpdm.natanzon import BEN_DANIEL_DUKE
from natpdm.numerics import Grid
from natpdm.pdmsolver import verify_spectrum

GAMMAS = (0.5, 0.8, 1.0, 1.5, 2.0)


class TestParamsFor:
    def test_gamma_one_j_two(self):
        p = params_for(1.0, 2.0)
        assert p.c0 == pytest.approx(0.25)
        assert p.a_c == pytest.approx(-0.25)
        assert p.p0 == 0.0
        assert p.a_p == pytest.approx(21.0 / 4.0)
        assert p.q0 == 0.0
        assert p.a_q == pytest.approx(-7.0 / 4.0)

    def test_gamma_one_kills_p0(self):
        assert params_for(1.0, 5.5).p0 == 0.0

    def test_gamma_sqrt2_j_zero(self):
        p = params_for(math.sqrt(2.0), 0.0)
        assert p.c0 == pytest.approx(1.0 / 16.0)
        assert p.p0 == pytest.approx(-0.25)
        assert p.a_p == pytest.approx(-0.75)

    def test_gamma_positive_required(self):
        with pytest.raises(ValueError):
            params_for(0.0, 1.0)


class TestMuClosedForm:
    def test_gamma_one_identity(self):
        assert mu_closed_form(1.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_odd(self):
        for g in GAMMAS:
            u = np.linspace(-5.0, 5.0, 101)
            assert np.max(np.abs(mu_closed_form(g, u) + mu_closed_form(g, -u))) < 1e-13

    def test_origin(self):
        for g in GAMMAS:
            assert mu_closed_form(g, 0.0) == 0.0

    def test_against_u_variable_quadrature(self):
        # oracle: (1/gamma^2) integral_0^u sqrt(gamma^2 + sinh^2 t)/cosh t dt
        for g in (0.5, 2.0):
            u0 = 1.0
            quad = numerics.integrate(
                lambda t: np.sqrt(g * g + np.sinh(t) ** 2) / np.cosh(t),
                0.0, u0, 1e-12) / (g * g)
            assert mu_closed_form(g, u0) == pytest.approx(quad, abs=1e-8)

    def test_monotone(self):
        u = np.linspace(-5.0, 5.0, 201)
        for g in GAMMAS:
            assert np.all(np.diff(mu_closed_form(g, u)) > 0.0)

    def test_large_argument_stable(self):
        for g in GAMMAS:
            for u0 in (30.0, -400.0, 400.0, -800.0, 800.0):
                assert math.isfinite(mu_closed_form(g, u0))


class TestMassIntegral:
    def test_gamma_one_is_arctanh(self):
        for z in (0.1, 0.5, 0.9):
            assert mass_integral(1.0, z) == pytest.approx(math.atanh(math.sqrt(z)),
                                                          abs=1e-9)

    def test_z_zero(self):
        assert mass_integral(1.3, 0.0) == 0.0

    def test_consistency_with_closed_form(self):
        # the central cross-check: quadrature of the z-variable integrand
        # against the closed form at u = arctanh(sqrt(z))
        zs = np.linspace(0.1, 0.9, 9)
        for g in GAMMAS:
            together = mass_integral(g, zs)
            for z, quad in zip(zs, together):
                closed = mu_closed_form(g, math.atanh(math.sqrt(z)))
                assert abs(mass_integral(g, float(z)) - closed) < 1e-8
                # one call over all z gives each z what a call of its own gives
                assert quad == mass_integral(g, float(z))

    def test_domain(self):
        with pytest.raises(ValueError):
            mass_integral(1.0, 1.0)


class TestInvertMu:
    def test_gamma_one_identity(self):
        assert invert_mu(1.0, 1.0) == 1.0

    def test_zero(self):
        assert invert_mu(1.7, 0.0) == 0.0

    def test_round_trip(self):
        for g in GAMMAS:
            for u0 in (-800.0, -400.0, -2.0, -0.8, 0.8, 2.0, 400.0, 800.0):
                assert abs(invert_mu(g, mu_closed_form(g, u0)) - u0) < 1e-10

    def test_mu_near_the_double_range_at_small_gamma(self):
        # mu(2 t) ~ 2 t/gamma^2 passes the double range at the bracket's
        # end: it is inf there, quietly, and u ~ gamma^2 mu is still found
        g = 1e-8
        assert mu_closed_form(g, 1e300) == math.inf
        assert mu_closed_form(g, -1e300) == -math.inf
        mu = np.array([-1e300, 1e300])
        u = invert_mu(g, mu)
        assert np.allclose(u, g * g * mu, rtol=1e-12)
        assert np.allclose(mu_closed_form(g, u), mu, rtol=1e-12)

    def test_bisects_arrays_of_the_unsettled_points_only(self, monkeypatch):
        calls = []
        original = numerics.newton_bisect

        def counting(f, fprime, lo, hi, x0=None):
            calls.append(np.shape(hi))
            return original(f, fprime, lo, hi, x0)

        monkeypatch.setattr(numerics, "newton_bisect", counting)
        mu = np.linspace(-30.0, 30.0, 41)
        u = invert_mu(0.8, mu)
        # the whole column is solved in one call: no point works on its own
        assert calls == [(41,)]
        assert np.max(np.abs(mu_closed_form(0.8, u) - mu)) < 1e-13

    def test_mu_prime_is_the_derivative(self):
        u = np.linspace(-5.0, 5.0, 101)
        for g in GAMMAS + (0.05, 20.0):
            slope = numerics.derivative(lambda v: mu_closed_form(g, v), u, 1e-3)
            assert np.max(np.abs(ginocchio._mu_prime(g, u) / slope - 1.0)) < 1e-8
        # bounded terms: no overflow far out, and the 1/gamma^2 limit there
        assert ginocchio._mu_prime(1e6, 800.0) == pytest.approx(1e-12, rel=1e-12)
        assert ginocchio._mu_prime(0.5, 0.0) == pytest.approx(2.0, rel=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(log_gamma=st.floats(-8.0, 6.0),
           us=st.lists(st.one_of(st.sampled_from([0.0, 5e-324, 1e-9, 800.0, -800.0]),
                                 st.floats(-800.0, 800.0)), min_size=1, max_size=12))
    def test_certificate_and_scalar_agreement(self, log_gamma, us):
        # every |u| is the upper end of an adjacent-float sign change of
        # mu(.) - |mu|, and an element of an array call is its own scalar call
        g = 10.0 ** log_gamma
        mu = mu_closed_form(g, np.array(us))
        u = invert_mu(g, mu)
        assert list(u) == [invert_mu(g, float(m)) for m in mu]
        assert np.array_equal(np.signbit(u), np.signbit(mu))
        t, a = np.abs(mu), np.abs(u)
        if g == 1.0:
            assert np.array_equal(u, mu)
            return
        assert np.all(a[t == 0.0] == 0.0)
        f = lambda v: mu_closed_form(g, v) - t
        moved = t > 0.0
        assert not np.any((f(a) < 0.0)[moved])
        assert np.all((f(np.nextafter(a, -np.inf)) < 0.0)[moved])

    def test_array_matches_scalar(self):
        u0 = np.array([-3.0, -0.5, 0.0, 1e-9, 0.7, 4.0])
        for g in GAMMAS:
            mu = mu_closed_form(g, u0)
            whole = invert_mu(g, mu)
            assert whole.shape == u0.shape
            assert isinstance(invert_mu(g, float(mu[4])), float)
            assert list(whole) == [invert_mu(g, float(m)) for m in mu]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises(self, bad):
        for g in (0.8, 1.0, 2.0):
            with pytest.raises(ValueError):
                invert_mu(g, bad)
            with pytest.raises(ValueError):
                invert_mu(g, np.array([0.5, bad]))


class TestPotentialForms:
    def test_hyperbolic_gamma_one(self):
        u = np.linspace(-3.0, 3.0, 61)
        assert np.max(np.abs(v_hyperbolic(1.0, 2.0, u) + 6.0 / np.cosh(u) ** 2)) < 1e-13

    def test_hyperbolic_decays(self):
        assert abs(v_hyperbolic(1.5, 2.0, 40.0)) < 1e-12

    def test_hyperbolic_value(self):
        # gamma = 1 collapse at u = 1: -6 sech^2(1)
        assert v_hyperbolic(1.0, 2.0, 1.0) == pytest.approx(-6.0 / math.cosh(1.0) ** 2,
                                                            abs=1e-14)

    def test_y_of_u(self):
        assert y_of_u(1.3, 0.0) == 0.0
        u = np.linspace(-2.0, 2.0, 41)
        assert np.max(np.abs(y_of_u(1.0, u) - np.tanh(u))) < 1e-14
        assert y_of_u(0.7, 40.0) == pytest.approx(1.0, abs=1e-12)
        assert y_of_u(0.7, -40.0) == pytest.approx(-1.0, abs=1e-12)

    def test_polynomial_vanishes_at_band_edges(self):
        for g in GAMMAS:
            assert v_polynomial(g, 2.0, 1.0) == 0.0
            assert v_polynomial(g, 2.0, -1.0) == 0.0

    def test_polynomial_gamma_one(self):
        y = np.linspace(-1.0, 1.0, 41)
        assert np.max(np.abs(v_polynomial(1.0, 2.0, y) + 6.0 * (1.0 - y ** 2))) < 1e-13

    def test_forms_agree(self):
        # the two printed forms agree once y(u) is substituted, all gamma
        u = np.linspace(-4.0, 4.0, 161)
        for g in GAMMAS:
            resid = np.abs(v_hyperbolic(g, 2.0, u) - v_polynomial(g, 2.0, y_of_u(g, u)))
            assert np.max(resid) < 1e-10
        resid1 = np.abs(v_hyperbolic(1.0, 2.0, u)
                        - v_polynomial(1.0, 2.0, y_of_u(1.0, u)))
        assert np.max(resid1) < 1e-12


class TestClosedSpectrum:
    def test_gamma_one_ground(self):
        assert spectrum_closed_form(1.0, 2.0, 0) == -4.0

    def test_gamma_one_collapse(self):
        for j in (2.0, 3.0):
            for n in range(int(j) + 1):
                assert spectrum_closed_form(1.0, j, n) == pytest.approx(
                    -(j - 2.0 * n) ** 2, abs=1e-12)

    def test_against_quantization_roots(self):
        for gamma in (0.8, 1.2):
            root = natanzon.solve_spectrum(params_for(gamma, 2.0), 0)[0]
            assert spectrum_closed_form(gamma, 2.0, 0) == pytest.approx(root, abs=1e-9)

    def test_index_range(self):
        with pytest.raises(ValueError, match="n must lie in 0..2"):
            spectrum_closed_form(1.0, 2.0, 3)
        with pytest.raises(ValueError, match="n must lie in 0..2"):
            spectrum_closed_form(1.0, 2.0, -1)

    def test_negative_below_half_j(self):
        for g in (0.8, 1.0, 1.2):
            assert spectrum_closed_form(g, 2.0, 0) < 0.0


class TestPotentialTable:
    def test_constant_mass_gamma_one(self):
        grid = Grid(-6.0, 6.0, 601)
        table = potential_on_x_grid(1.0, 2.0, constant_mass(), BEN_DANIEL_DUKE, grid)
        expected = -6.0 / np.cosh(math.sqrt(2.0) * grid.points) ** 2
        assert np.max(np.abs(table["V_total"] - expected)) < 1e-10
        assert np.max(np.abs(table["Um"])) == 0.0
        assert np.max(np.abs(table["mu"] - math.sqrt(2.0) * grid.points)) < 1e-10

    def test_origin_value(self):
        # u = 0 value of the hyperbolic form for general gamma
        gamma, j = 1.3, 2.0
        g2 = gamma * gamma
        expected = -g2 * g2 * (j * (j + 1.0) - g2 + 1.0) / g2 \
            - 0.75 * (3.0 * g2 - 1.0) * (g2 - 1.0) + 1.25 * (g2 - 1.0) ** 2
        grid = Grid(-2.0, 2.0, 81)
        table = potential_on_x_grid(gamma, j, constant_mass(), BEN_DANIEL_DUKE, grid)
        mid = grid.n_points // 2
        assert table["V_total"][mid] == pytest.approx(expected, abs=1e-10)
        assert v_hyperbolic(gamma, j, 0.0) == pytest.approx(expected, abs=1e-14)

    def test_even_mass_gives_even_potential(self):
        grid = Grid(-4.0, 4.0, 321)
        table = potential_on_x_grid(0.9, 2.0, exponential_well_mass(0.4),
                                    BEN_DANIEL_DUKE, grid)
        assert np.max(np.abs(table["V_total"] - table["V_total"][::-1])) < 1e-9

    def test_z_in_unit_interval(self):
        grid = Grid(-8.0, 8.0, 161)
        table = potential_on_x_grid(1.4, 2.0, rational_mass(2.0), BEN_DANIEL_DUKE, grid)
        assert np.all(table["z"] >= 0.0) and np.all(table["z"] < 1.0)

    def test_inverts_the_whole_column_at_once(self, monkeypatch):
        calls = []
        original = ginocchio.invert_mu

        def counting(gamma, mu):
            calls.append(np.shape(mu))
            return original(gamma, mu)

        monkeypatch.setattr(ginocchio, "invert_mu", counting)
        grid = Grid(-4.0, 4.0, 161)
        potential_on_x_grid(0.8, 2.0, rational_mass(2.0), BEN_DANIEL_DUKE, grid)
        assert calls == [(161,)]

    @staticmethod
    def _count_integrate_calls(monkeypatch):
        calls = []
        original = numerics.integrate

        def counting(f, a, b, tol):
            calls.append((np.shape(a), np.shape(b)))
            return original(f, a, b, tol)

        monkeypatch.setattr(numerics, "integrate", counting)
        return calls

    def test_integrates_the_whole_table_at_once(self, monkeypatch):
        calls = self._count_integrate_calls(monkeypatch)
        grid = Grid(-4.0, 4.0, 161)
        table = potential_on_x_grid(0.8, 2.0, rational_mass(2.0), BEN_DANIEL_DUKE, grid)
        # 160 cells plus the interval from the first node to the anchor x = 0
        assert calls == [((161,), (161,))]
        assert abs(table["mu"][80]) < 1e-12

    def test_map_integrates_the_whole_grid_at_once(self, monkeypatch):
        grid = Grid(-4.0, 4.0, 161)
        # the map's G table is built before counting starts
        cmap = natanzon.solve_coordinate_map(params_for(0.8, 2.0), rational_mass(2.0),
                                             x0=0.0, z0=0.5)
        calls = self._count_integrate_calls(monkeypatch)
        assert cmap.z(grid.points)[80] == pytest.approx(0.5, abs=1e-12)
        # 160 cells plus the interval from the first node to the anchor x = 0
        assert calls == [((161,), (161,))]

    def test_anchor_outside_the_grid(self):
        # mu stays anchored at x = 0 when the grid does not contain it:
        # sqrt(2) x at unit mass
        table = potential_on_x_grid(1.0, 2.0, constant_mass(), BEN_DANIEL_DUKE,
                                    Grid(1.0, 3.0, 41))
        assert np.max(np.abs(table["mu"] - np.sqrt(2.0) * table["x"])) < 1e-12

    def test_v_total_is_v_hyp_plus_um(self):
        grid = Grid(-3.0, 3.0, 121)
        table = potential_on_x_grid(1.0, 2.0, rational_mass(2.0), BEN_DANIEL_DUKE, grid)
        assert np.any(table["Um"] != 0.0)
        assert np.array_equal(table["V_total"], table["V_hyp"] + table["Um"])


class TestSpec:
    def test_validation(self):
        grid = Grid(-10.0, 10.0, 201)
        with pytest.raises(ValueError):
            verify_spectrum(0.0, 2.0, constant_mass(), BEN_DANIEL_DUKE, grid)
        with pytest.raises(ValueError):
            verify_spectrum(1.0, -1.0, constant_mass(), BEN_DANIEL_DUKE, grid)

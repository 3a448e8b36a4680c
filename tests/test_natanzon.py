import dataclasses
import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from natpdm import ginocchio, natanzon, numerics
from natpdm.masses import (
    MassProfile,
    NonpositiveMass,
    constant_mass,
    exponential_well_mass,
    rational_mass,
)
from natpdm.natanzon import (
    BEN_DANIEL_DUKE,
    NatanzonParams,
    OrderingParams,
    coeffs_at_energy,
    generating_function,
    labels_for_level,
    mass_correction_terms,
    natanzon_potential,
    quantization_residual,
    r_polynomial,
    solve_coordinate_map,
    solve_spectrum,
)
from natpdm.numerics import Grid

GINOCCHIO_12 = ginocchio.params_for(1.0, 2.0)
EPS = np.finfo(float).eps


def _bound_levels(gamma, j):
    """{n: E_n} of eq. 34 where sqrt(radicand) > 2n + 1/2: the levels below the continuum."""
    levels = {}
    for n in range(int(j) + 1):
        half_odd = 2.0 * n + 0.5
        radicand = (1.0 - gamma * gamma) * half_odd ** 2 + gamma * gamma * (j + 0.5) ** 2
        if radicand >= 0.0 and math.sqrt(radicand) > half_odd:
            levels[n] = ginocchio.spectrum_closed_form(gamma, j, n)
    return levels


class TestCoeffs:
    def test_energy_zero(self):
        p = NatanzonParams(0.3, 0.1, 0.2, 1.0, 2.0, 3.0)
        co = coeffs_at_energy(p, 0.0)
        assert (co.c, co.p, co.q) == (1.0, 2.0, 3.0)

    def test_ginocchio_values(self):
        co = coeffs_at_energy(GINOCCHIO_12, -4.0)
        assert co.c == pytest.approx(0.75)
        assert co.p == pytest.approx(21.0 / 4.0)
        assert co.q == pytest.approx(-7.0 / 4.0)

    def test_degenerate_energy_independence(self):
        p = NatanzonParams(0.0, 0.0, 0.0, 1.0, 2.0, 3.0)
        expected = natanzon.EnergyCoeffs(c=1.0, p=2.0, q=3.0)
        assert coeffs_at_energy(p, -7.0) == coeffs_at_energy(p, 5.0) == expected

    def test_linearity_exact(self):
        p = ginocchio.params_for(0.8, 2.0)
        e1, e2, alpha = -3.0, -0.5, 0.3
        mixed = coeffs_at_energy(p, alpha * e1 + (1 - alpha) * e2)
        c1, c2 = coeffs_at_energy(p, e1), coeffs_at_energy(p, e2)
        for attr in ("c", "p", "q"):
            combo = alpha * getattr(c1, attr) + (1 - alpha) * getattr(c2, attr)
            assert getattr(mixed, attr) == pytest.approx(combo, abs=1e-13)


class TestRPolynomial:
    def test_gamma_one_is_z(self):
        for z in (0.0, 0.3, 0.99):
            assert r_polynomial(GINOCCHIO_12, z) == pytest.approx(z)

    def test_gamma_sqrt2(self):
        p = ginocchio.params_for(math.sqrt(2.0), 1.0)
        assert p.p0 == pytest.approx(-0.25)
        assert p.c0 == pytest.approx(1.0 / 16.0)
        for z in (0.1, 0.5, 0.9):
            assert r_polynomial(p, z) == pytest.approx(-z * z / 4.0 + z / 2.0, abs=1e-14)

    def test_z_zero(self):
        p = NatanzonParams(0.1, 0.2, 0.7, 0.0, 0.0, 0.0)
        assert r_polynomial(p, 0.0) == pytest.approx(0.7)


class TestGeneratingFunction:
    def test_gamma_one_form(self):
        for z in (0.1, 0.5, 0.9):
            assert generating_function(GINOCCHIO_12, z) == pytest.approx(
                4.0 * z * (1.0 - z) ** 2, abs=1e-13)

    def test_half_value(self):
        assert generating_function(GINOCCHIO_12, 0.5) == pytest.approx(0.5)

    def test_quadratic_vanishing_with_positive_q0(self):
        p = NatanzonParams(0.25, 0.0, 0.5, 0.0, 0.0, 0.0)
        small = generating_function(p, 1e-6)
        smaller = generating_function(p, 1e-7)
        assert small / smaller == pytest.approx(100.0, rel=1e-3)

    def test_interior_r_zero_flags_invalid(self):
        p = NatanzonParams(0.0, 1.0, -0.5, 0.0, 0.0, 0.0)
        with pytest.raises(ZeroDivisionError, match="inside the working interval"):
            generating_function(p, 0.5)


class TestNatanzonPotential:
    def test_matches_hyperbolic_form(self):
        # cross-module oracle on u in [-3, 3]
        u = np.concatenate([np.linspace(-3.0, -0.05, 200), np.linspace(0.05, 3.0, 200)])
        for gamma in (0.8, 1.0, 1.5):
            p = ginocchio.params_for(gamma, 2.0)
            got = natanzon_potential(p, np.tanh(u) ** 2)
            expected = ginocchio.v_hyperbolic(gamma, 2.0, u)
            assert np.max(np.abs(got - expected)) < 1e-10

    def test_gamma_one_value(self):
        # gamma = 1 collapse: -j(j+1) sech^2(u) at u = 1
        z = math.tanh(1.0) ** 2
        expected = -6.0 / math.cosh(1.0) ** 2
        assert natanzon_potential(GINOCCHIO_12, z) == pytest.approx(expected, abs=1e-12)

    def test_flat_numerator_degenerate(self):
        # a_p = 0 and a_p + a_q - 4 a_c + 1 = 0 leave a constant numerator
        p = NatanzonParams(c0=0.25, p0=0.0, q0=0.0, a_c=0.0, a_p=0.0, a_q=-1.0)
        for z in (0.2, 0.5, 0.8):
            expected = 1.0 / z + (2.0 * z - 1.0) * (z - 1.0) / z \
                - 1.25 * (z - 1.0) ** 2 / z
            assert natanzon_potential(p, z) == pytest.approx(expected, abs=1e-12)

    def test_r_zero_raises(self):
        with pytest.raises(ZeroDivisionError, match="at the requested points"):
            natanzon_potential(GINOCCHIO_12, 0.0)

    def test_clean_at_interval_ends_when_r_positive(self):
        # the cancelled form evaluates at z = 0 and z = 1 whenever R does
        # not vanish there (q0 > 0 and c0 > 0)
        p = NatanzonParams(c0=0.3, p0=0.1, q0=0.5, a_c=0.2, a_p=1.0, a_q=0.0)
        for z in (0.0, 1.0):
            assert math.isfinite(natanzon_potential(p, z))


class TestMassCorrections:
    def test_constant_mass_vanishes(self):
        vm, um = mass_correction_terms(constant_mass(), OrderingParams(0.3, -0.9), 1.7)
        assert float(vm) == 0.0
        assert float(um) == 0.0

    def test_ben_daniel_duke_form(self):
        # substitution oracle: eta = 0, eps = -1 gives Vm = -3 m'^2/(8 m^3) + m''/(4 m^2)
        mass = rational_mass(2.0)
        x = np.array([0.4, 1.3])
        vm, _ = mass_correction_terms(mass, BEN_DANIEL_DUKE, x)
        m, mp, mpp = mass.m(x), mass.m_prime(x), mass.m_double_prime(x)
        assert np.allclose(vm, -3.0 * mp ** 2 / (8.0 * m ** 3) + mpp / (4.0 * m * m),
                           atol=1e-15)

    def test_exponential_mass_values(self):
        # m = e^{2x}, eta = eps = 0 at x = 0: Vm = 1/2, Um = 9/8 - 1/2 = 5/8
        mass = MassProfile(lambda x: np.exp(2.0 * x), lambda x: 2.0 * np.exp(2.0 * x),
                           lambda x: 4.0 * np.exp(2.0 * x))
        vm, um = mass_correction_terms(mass, OrderingParams(0.0, 0.0), 0.0)
        assert float(vm) == pytest.approx(0.5, abs=1e-7)
        assert float(um) == pytest.approx(5.0 / 8.0, abs=1e-7)


class TestOrderingParams:
    def test_rho_derived(self):
        o = OrderingParams(0.25, -0.5)
        assert o.rho == pytest.approx(-0.75)

    def test_ben_daniel_duke(self):
        assert BEN_DANIEL_DUKE.eta == 0.0
        assert BEN_DANIEL_DUKE.epsilon == -1.0
        assert BEN_DANIEL_DUKE.rho == pytest.approx(0.0)


class TestQuantization:
    def test_branch_rule_root(self):
        assert quantization_residual(GINOCCHIO_12, -4.0, 0) == pytest.approx(0.0, abs=1e-14)

    def test_q_radical_energy_independent(self):
        # q0 = 0, a_q = -7/4 pins sqrt(q+2) = 1/2  for every E
        for e in (-9.0, -4.0, -0.3):
            co = coeffs_at_energy(GINOCCHIO_12, e)
            assert math.sqrt(co.q + 2.0) == pytest.approx(0.5)

    def test_perfect_square_construction(self):
        # p+1 = 4, q+2 = 1, 4c+1 = 4: residual 2 + 1 - 2 - 1 = 0 at n = 0
        p = NatanzonParams(0.0, 0.0, 0.0, 0.75, 3.0, -1.0)
        assert quantization_residual(p, -1.0, 0) == pytest.approx(0.0, abs=1e-15)

    def test_branch_violation(self):
        p = ginocchio.params_for(1.2, 2.0)
        with pytest.raises(ValueError, match="negative radicand"):
            quantization_residual(p, -100.0, 0)


class TestSolveSpectrum:
    def test_ground_state_matches_closed_form(self):
        roots = solve_spectrum(GINOCCHIO_12, 2)
        assert roots[0] == pytest.approx(-4.0, abs=1e-9)
        # level 1 sits exactly at the continuum threshold, level 2 is the
        # squaring artefact: neither is a root of the identity
        assert np.isnan(roots[1]) and np.isnan(roots[2])

    def test_root_count_bounded(self):
        roots = solve_spectrum(GINOCCHIO_12, 2)
        assert np.count_nonzero(~np.isnan(roots)) <= 3

    def test_degenerate_params_no_roots(self):
        p = NatanzonParams(0.0, 0.0, 0.0, 0.2, 1.0, -1.0)
        assert np.all(np.isnan(solve_spectrum(p, 2)))

    def test_gamma_grid_against_closed_form(self):
        for gamma in (0.8, 1.2):
            p = ginocchio.params_for(gamma, 2.0)
            root = solve_spectrum(p, 0)[0]
            assert root == pytest.approx(
                ginocchio.spectrum_closed_form(gamma, 2.0, 0), abs=1e-9)

    def test_all_levels_polished_in_one_bisection(self, monkeypatch):
        calls = []
        original = natanzon.newton_bisect

        def counting(f, fprime, lo, hi, x0=None):
            calls.append(np.shape(lo))
            return original(f, fprime, lo, hi, x0)

        monkeypatch.setattr(natanzon, "newton_bisect", counting)
        # the 5.25 case holds the largest levels of a gamma-j sweep, its
        # ground level below the p-scale span; the 0.05 case the smallest,
        # ~1e-6 in size
        found = []
        for gamma, j in ((1.669, 5.25), (0.05, 2.5)):
            roots = solve_spectrum(ginocchio.params_for(gamma, j), int(j))
            bound = _bound_levels(gamma, j)
            assert np.flatnonzero(~np.isnan(roots)).tolist() == list(bound)
            found.append((len(bound),))
            for n, closed in bound.items():
                assert roots[n] == pytest.approx(closed, rel=1e-11)
        # each solve polishes all of its levels in one call
        assert calls == found

    @settings(max_examples=200, deadline=None)
    @given(gamma=st.one_of(st.floats(math.log(0.3), math.log(5.0)).map(math.exp),
                           st.just(1.0 + 1e-6)),
           j=st.floats(0.5, 6.0))
    # E_2 = -9.41e-9, where 4c + 1 formed through c keeps only ~8 digits
    @example(gamma=2.0353041491524357, j=4.000023418370656)
    def test_every_bound_level_is_a_root(self, gamma, j):
        # eq. 34's bound levels are eq. 27's roots, and no other n has one;
        # a level within 1e-9 of the continuum may lie above the window
        roots = solve_spectrum(ginocchio.params_for(gamma, j), int(j))
        bound = _bound_levels(gamma, j)
        for n, root in enumerate(roots):
            closed = bound.get(n)
            if closed is None:
                assert math.isnan(root), n
            elif closed < -1e-9 or not math.isnan(root):
                # near the continuum both forms lose digits: a rounding of
                # eps (2n + 1) in eq. 27's residual, or of eps (2n + 1/2) in
                # eq. 34's root, moves E by about that times 2 max(1, gamma^2)
                # sqrt(-E)
                floor = 8.0 * EPS * (2 * n + 1) * max(1.0, gamma * gamma) * math.sqrt(-closed)
                assert root == pytest.approx(closed, rel=1e-11, abs=floor), n

    def test_root_on_a_scan_node(self):
        # q + 2 = 1, p + 1 = 4 and 4c + 1 = 4 + e - E make the n = 0
        # residual 2 - sqrt(4 + e - E), exactly 0 at E = e; e is a node,
        # and the window does not depend on a_c while 4 + e > 0
        lo, hi = natanzon._root_window(NatanzonParams(0.25, 0.0, 0.0, 0.75, 3.0, -1.0))
        node = np.linspace(lo, hi, 65)[40]
        params = NatanzonParams(0.25, 0.0, 0.0, (3.0 + node) / 4.0, 3.0, -1.0)
        assert natanzon._root_window(params) == (lo, hi)
        assert quantization_residual(params, node, 0) == 0.0
        # both cells at the node count as sign changes; the keep rule
        # returns the lowest float of the run of zeros through the node
        root = solve_spectrum(params, 0)[0]
        assert quantization_residual(params, np.nextafter(root, -np.inf), 0) < 0.0
        e = root
        while e <= node:
            assert quantization_residual(params, e, 0) == 0.0
            e = np.nextafter(e, np.inf)

    @pytest.mark.parametrize("gamma, j", [(1.669, 5.25), (0.8, 2.0), (0.05, 2.5)])
    def test_each_level_its_own_root(self, gamma, j):
        # the levels polished together get what fewer levels get: every
        # prefix of the batch ends on the same floats
        params = ginocchio.params_for(gamma, j)
        roots = solve_spectrum(params, int(j))
        for n in range(int(j)):
            assert np.array_equal(solve_spectrum(params, n), roots[:n + 1], equal_nan=True)

    def test_root_window_is_negative(self):
        lo, hi = natanzon._root_window(GINOCCHIO_12)
        assert lo < hi < 0.0

    def test_window_starts_at_the_p_radicand_zero(self):
        # for gamma > 1, p + 1 = 0 at E = (j + 1/2)^2 gamma^4/(1 - gamma^2),
        # below the p-scale span -(j + 3/2)^2
        gamma, j = 1.669, 5.25
        lo, _ = natanzon._root_window(ginocchio.params_for(gamma, j))
        zero = (j + 0.5) ** 2 * gamma ** 4 / (1.0 - gamma ** 2)
        assert zero < -(j + 1.5) ** 2
        assert lo == pytest.approx(zero, rel=1e-11)


class TestLabelsForLevel:
    def test_ginocchio_ground_state(self):
        lab = labels_for_level(GINOCCHIO_12, -4.0, 0)
        assert lab.j0 == pytest.approx(1.5)
        assert lab.delta == pytest.approx(-2.0)
        assert lab.c == pytest.approx(0.75)
        assert lab.j == pytest.approx(0.5)

    def test_bookkeeping_round_off(self):
        lab = labels_for_level(GINOCCHIO_12, -4.0, 0)
        co = coeffs_at_energy(GINOCCHIO_12, -4.0)
        assert (lab.delta - 2.0 * lab.j0) ** 2 / 4.0 - 1.0 == pytest.approx(co.p, abs=1e-12)
        assert (lab.delta + 2.0 * lab.j0) ** 2 / 4.0 - 2.0 == pytest.approx(co.q, abs=1e-12)
        assert lab.j0 == pytest.approx(lab.n + 0.5 + math.sqrt(co.c + 0.25), abs=1e-12)

    def test_j_keeps_its_digits_near_the_continuum(self):
        # c + 1/4 = -c0 E there: formed as (-c0 E + a_c) + 1/4 with a_c = -1/4
        # it keeps only the digits of c0 E that survive the sum
        params, energy = ginocchio.params_for(0.8, 2.0), -3e-12
        square = -Fraction(params.c0) * Fraction(energy) + Fraction(params.a_c) + Fraction(1, 4)
        with decimal.localcontext(decimal.Context(prec=40)):
            exact = (decimal.Decimal(square.numerator) / square.denominator).sqrt()
        lab = labels_for_level(params, energy, 0)
        assert abs(Fraction(lab.j) + Fraction(1, 2) - Fraction(exact)) <= 1.2e-16
        # above the continuum c + 1/4 < 0: no real j
        with pytest.raises(ValueError, match="negative radicand"):
            labels_for_level(params, -energy, 0)


#: three parameter sets (c0, p0, q0, a_c, a_p, a_q) with q0 > 0, so R(0) > 0
#: and the map covers (0, 1) once, with no fold
Q0_POSITIVE = (
    NatanzonParams(0.25, 0.1, 0.3, -0.25, 5.0, -1.75),
    NatanzonParams(0.3, -0.1, 0.2, 0.5, 8.0, -1.0),
    NatanzonParams(0.2, 0.05, 0.1, -0.1, 12.0, 0.5),
)


def rk4_map(params, mass, x0, z0, x_end, step):
    """Test oracle: classical RK4 on dz/dx = sqrt(2 m S(z)) from (x0, z0) to x_end.

    Returns the nodes x0 + i step and z there, one direction at a time.
    """
    def rhs(x, z):
        return math.sqrt(2.0 * float(mass.m(x)) * generating_function(params, z))

    n = int(round(abs(x_end - x0) / step))
    h = math.copysign(step, x_end - x0)
    xs, zs = [x0], [z0]
    x, z = x0, z0
    for _ in range(n):
        k1 = rhs(x, z)
        k2 = rhs(x + 0.5 * h, z + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h, z + 0.5 * h * k2)
        k4 = rhs(x + h, z + h * k3)
        z += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x = x0 + len(xs) * h
        xs.append(x)
        zs.append(z)
    return np.array(xs), np.array(zs)


def tabulated_map_integral(params, s0, s):
    """Test oracle: G(s) - G(s0) by quadrature, the route the map once took.

    sqrt(R(sigma(t)))/2 is summed over cells of width 1/16 that start at
    s0 and cover [-710, 37], and each s adds the integral from the node
    below it.
    """
    def half_root_r(t):
        return 0.5 * np.sqrt(r_polynomial(params, natanzon._logistic(t)))

    step = 0.0625
    anchor = max(math.ceil((s0 + 710.0) / step), 0)
    nodes = s0 + step * np.arange(-anchor, math.ceil((37.0 - s0) / step) + 1)
    cells = numerics.integrate(half_root_r, nodes[:-1], nodes[1:], 1e-12)
    g = np.concatenate([-np.cumsum(cells[:anchor][::-1])[::-1], [0.0], np.cumsum(cells[anchor:])])
    k = np.clip(np.searchsorted(nodes, s, side="right") - 1, 0, nodes.size - 1)
    return g[k] + numerics.integrate(half_root_r, nodes[k], s, 1e-12)


def _r_positive_inside(params):
    # the least value of R on (0, 1): at its vertex, if a convex R has one there
    b = 4.0 * params.c0 - params.p0 - params.q0
    if params.p0 > 0.0 and 0.0 < -b < 2.0 * params.p0:
        return params.discriminant < 0.0
    return min(params.q0, 4.0 * params.c0) >= 0.0


class TestMapIntegral:
    """The closed form G of _map_integral against the quadrature oracle.

    The oracle's error dominates.  Its running sum adds 16 cells per unit
    of |s - s0|, each rounding by up to half an ulp of the sum, all the
    same way where the cells are equal (R = q0 far left): up to 0.9e-15
    |s - s0| |G|, 3.6e-11 at s = -700 for q0 = 0.022.  So the tolerance is
    (1e-12 + 2e-15 |s - s0|)(1 + |G|), 1e-12 for the cells' quadrature.
    Over 3,000 random sets the worst difference was 0.18 of it, and a
    wrong branch is off by 1e-9 or more.
    """

    S = np.concatenate([[-700.0, -300.0, -100.0], np.linspace(-40.0, 36.0, 77)])

    @staticmethod
    def _assert_matches_oracle(params, s0, s):
        closed = natanzon._map_integral(params, s) - natanzon._map_integral(params, s0)
        oracle = tabulated_map_integral(params, s0, s)
        tol = (1e-12 + 2e-15 * np.abs(s - s0)) * (1.0 + np.abs(oracle))
        assert np.all(np.abs(closed - oracle) <= tol)

    @settings(max_examples=100, deadline=None)
    @given(c0=st.floats(0.01, 3.0),
           p0=st.one_of(st.floats(-3.0, -0.01), st.just(0.0), st.floats(0.01, 12.0)),
           q0=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
           s0=st.floats(-20.0, 20.0))
    def test_matches_quadrature(self, c0, p0, q0, s0):
        params = NatanzonParams(c0, p0, q0, 0.0, 0.0, 0.0)
        assume(_r_positive_inside(params))
        self._assert_matches_oracle(params, s0, self.S)

    @pytest.mark.parametrize("params", [
        # Delta > 0 with the vertex past 1: 2 p0 z + b < 0 makes ln(2 sqrt(p0 R) + 2 p0 z + b) NaN
        NatanzonParams(0.125, 1.0, 3.0, 0.0, 0.0, 0.0),  # R = (z - 1.5)(z - 2)
        # Delta = 0: a constant ln|Delta| would be -inf
        NatanzonParams(0.25, 1.0, 4.0, 0.0, 0.0, 0.0),   # R = (z - 2)^2
        # p0 < 0 with a fold at z = 0, where arcsin(t/sqrt(Delta)) loses 2.7e-9
        ginocchio.params_for(1.5, 2.0),
    ], ids=["vertex-past-1", "double-root-at-2", "gamma-1.5-fold"])
    def test_named_sets(self, params):
        self._assert_matches_oracle(params, 0.3, self.S)


class TestCoordinateMap:
    def test_gamma_one_closed_form(self):
        # oracle: dz/dx = 2 sqrt(2) sqrt(z)(1-z) for m = 1 integrates to
        # tanh^2(sqrt(2) x + const); anchor z(0) = tanh^2(1/2)
        cmap = solve_coordinate_map(GINOCCHIO_12, constant_mass(), x0=0.0,
                                    z0=math.tanh(0.5) ** 2)
        xs = np.linspace(-0.2, 1.9, 50)
        expected = np.tanh(math.sqrt(2.0) * xs + 0.5) ** 2
        assert np.max(np.abs(cmap.z(xs) - expected)) < 1e-8

    def test_generating_identity(self):
        cmap = solve_coordinate_map(GINOCCHIO_12, constant_mass(), x0=0.0, z0=0.5)
        # stay right of the z = 0 turning point: R(0) = 0 for these parameters
        xs = np.linspace(-0.4, 1.5, 60)
        # independent finite-difference z' against the identity z'^2 = 2 m S(z)
        fd = numerics.derivative(cmap.z, xs, h=1e-4)
        resid = np.abs(fd ** 2 - 2.0 * generating_function(GINOCCHIO_12, cmap.z(xs)))
        assert np.max(resid) < 1e-8

    def test_monotone_and_in_range(self):
        cmap = solve_coordinate_map(GINOCCHIO_12, rational_mass(2.0), x0=0.0, z0=0.5)
        xs = np.linspace(-3.0, 3.0, 400)
        zs = cmap.z(xs)
        assert np.all(zs >= 0.0) and np.all(zs <= 1.0)
        interior = (zs > 1e-12) & (zs < 1.0 - 1e-12)
        assert np.all(np.diff(zs[interior]) > 0.0)

    @pytest.mark.parametrize("z0", [0.0, 1.0, math.nan])
    def test_anchor_outside_open_interval_rejected(self, z0):
        # z = 0 and z = 1 are fixed points of the map equation
        with pytest.raises(ValueError):
            solve_coordinate_map(GINOCCHIO_12, constant_mass(), x0=0.0, z0=z0)

    @pytest.mark.parametrize("params", [GINOCCHIO_12, Q0_POSITIVE[1]], ids=["fold", "q0>0"])
    def test_each_mu_alone_gets_its_batch_value(self, params):
        # the fold set reaches z = 0 at mu = -arctanh(sqrt(0.3)) = -0.62, inside the range
        cmap = solve_coordinate_map(params, rational_mass(2.0), x0=0.0, z0=0.3)
        mu = np.linspace(-20.0, 20.0, 23)
        mu = np.concatenate([mu, np.random.default_rng(5).uniform(-3.0, 3.0, 12)])
        together = cmap.z_at_mu(mu)
        for i in range(mu.size):
            assert together[i] == cmap.z_at_mu(mu[i:i + 1])[0]

    def test_two_folds(self):
        # R = z (1 - z): G = arcsin(2 z - 1)/2, so from z0 = 1/2 the map is
        # z = (1 + sin 2 mu)/2 up to the folds at mu = -+pi/4, and 0 or 1 past them
        params = NatanzonParams(0.0, -1.0, 0.0, 0.0, 0.0, 0.0)
        cmap = solve_coordinate_map(params, constant_mass(), x0=0.0, z0=0.5)
        mu = np.linspace(-0.78, 0.78, 41)
        assert np.max(np.abs(cmap.z_at_mu(mu) - 0.5 * (1.0 + np.sin(2.0 * mu)))) < 1e-14
        assert np.array_equal(cmap.z_at_mu(np.array([-0.8, -1e6, 0.8, 1e6])), [0, 0, 1, 1])

    @pytest.mark.parametrize("params", [
        NatanzonParams(0.25, 4.0, 0.3, 0.0, 0.0, 0.0),  # min R = -0.38 at z = 0.41
        NatanzonParams(0.25, 4.0, 1.0, 0.0, 0.0, 0.0),  # R = 4 (z - 1/2)^2
        NatanzonParams(0.25, 1.0, 0.0, 0.0, 0.0, 0.0),  # R = z^2
        NatanzonParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),   # R = 0
    ], ids=["negative", "double-root", "double-root-at-0", "zero"])
    def test_nonpositive_r_refused(self, params):
        # G jumps across a double root of R, and is not real where R < 0
        with pytest.raises(ZeroDivisionError):
            solve_coordinate_map(params, constant_mass(), x0=0.0, z0=0.5)

    def test_anchor_below_the_table(self):
        # z0 = 1e-310 puts s0 = logit(z0) where the logistic rounds to 0;
        # there R(z) = q0 to every digit, so s grows linearly, by 2 sqrt(2/q0) per unit x
        params = Q0_POSITIVE[0]
        cmap = solve_coordinate_map(params, constant_mass(), x0=0.0, z0=1e-310)
        expected = math.log(1e-310) + 10.0 * 2.0 * math.sqrt(2.0 / params.q0)
        assert math.log(cmap.z(10.0)) == pytest.approx(expected, abs=1e-9)
        assert cmap.z(-1.0) == 0.0

    def test_nonpositive_mass_rejected(self):
        mass = MassProfile(lambda x: 1.0 - x, lambda x: -np.ones_like(x),
                           lambda x: np.zeros_like(x))
        cmap = solve_coordinate_map(GINOCCHIO_12, mass, x0=0.0, z0=0.5)
        with pytest.raises(NonpositiveMass):
            cmap.z(np.array([0.5, 2.0]))

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_x_rejected(self, x):
        # mu(nan) must not pass for an empty integral, which would give z0
        cmap = solve_coordinate_map(GINOCCHIO_12, constant_mass(), x0=0.0,
                                    z0=math.tanh(0.5) ** 2)
        with pytest.raises(ValueError):
            cmap.z(x)
        with pytest.raises(ValueError):
            cmap.z(np.array([0.5, x]))

    def test_scalar_gives_float_at_anchor(self):
        cmap = solve_coordinate_map(GINOCCHIO_12, rational_mass(2.0), x0=0.3, z0=0.25)
        z = cmap.z(0.3)
        assert isinstance(z, float) and z == pytest.approx(0.25, rel=1e-15)

    @staticmethod
    def _assert_routes_agree(grid, mass):
        # independent reconstructions of z(x) for a varying mass: the
        # generating-function map vs the Ginocchio travel-coordinate table
        params = ginocchio.params_for(0.8, 2.0)
        table = ginocchio.potential_on_x_grid(0.8, 2.0, mass, BEN_DANIEL_DUKE, grid)
        x, z = table["x"], table["z"]
        idx = int(np.argmin(np.abs(grid.points - 1.0)))
        cmap = solve_coordinate_map(params, mass, x0=float(grid.points[idx]),
                                    z0=float(z[idx]))
        sel = x > 0.2
        assert np.max(np.abs(cmap.z(x[sel]) - z[sel])) < 1e-8
        # the table folds at x = 0; the map stays at z = 0 left of the fold
        assert np.all(cmap.z(x[x < 0.0]) == 0.0)

    def test_ode_route_agrees_with_inversion_route(self):
        self._assert_routes_agree(Grid(-3.0, 3.0, 601), rational_mass(2.0))

    @pytest.mark.parametrize("mass", [rational_mass(2.0), exponential_well_mass(0.5)],
                             ids=["rational:2", "exponential-well:0.5"])
    def test_ode_route_agrees_on_a_dense_grid(self, mass):
        self._assert_routes_agree(Grid(-12.0, 12.0, 2401), mass)

    def test_point_order_does_not_change_z(self):
        # a dense shuffled grid: mu comes from the sorted points, so every
        # order of the same points gives the same floats
        cmap = solve_coordinate_map(Q0_POSITIVE[0], rational_mass(2.0), x0=0.3, z0=0.25)
        x = np.linspace(-12.0, 12.0, 2401)
        perm = np.random.default_rng(0).permutation(x.size)
        assert np.array_equal(cmap.z(x[perm]), cmap.z(x)[perm])

    @pytest.mark.parametrize("mass", [constant_mass(), rational_mass(2.0)],
                             ids=["constant", "rational:2"])
    @pytest.mark.parametrize("params", Q0_POSITIVE, ids=["set1", "set2", "set3"])
    def test_q0_positive_sets(self, params, mass):
        cmap = solve_coordinate_map(params, mass, x0=0.0, z0=0.5)
        xs = np.linspace(-2.0, 2.0, 81)
        zs = cmap.z(xs)
        assert np.all((0.0 <= zs) & (zs <= 1.0))
        assert np.all(np.diff(zs) > 0.0)
        fd = numerics.derivative(cmap.z, xs, h=1e-4)
        resid = np.abs(fd ** 2 - 2.0 * mass.m(xs) * generating_function(params, zs))
        assert np.max(resid) < 1e-8
        for x_end in (-2.0, 2.0):
            x_rk, z_rk = rk4_map(params, mass, 0.0, 0.5, x_end, 2.5e-3)
            assert np.max(np.abs(cmap.z(x_rk[::20]) - z_rk[::20])) < 1e-8


class TestDiscriminant:
    def test_energy_shift_invariance(self):
        p = ginocchio.params_for(0.8, 2.0)
        shifted = dataclasses.replace(p, a_c=p.a_c + 3.0, a_p=p.a_p - 1.0, a_q=p.a_q + 0.5)
        assert p.discriminant == shifted.discriminant

    def test_ginocchio_value(self):
        # q0 = 0 makes Delta = (4 c0 - p0)^2 = 1/gamma^4
        for gamma in (0.8, 1.0, 1.5):
            p = ginocchio.params_for(gamma, 2.0)
            assert p.discriminant == pytest.approx(1.0 / gamma ** 4, rel=1e-12)

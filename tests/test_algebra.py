import math

import numpy as np
import pytest

from natpdm import algebra
from natpdm.algebra import (
    GroupLabels,
    SectorFunction,
    SmoothMap,
    Su11Realization,
    allowed_j0,
    casimir_residual,
    commutator_residual,
    constraint_residuals,
    gaussian_sector_function,
    labels_from_j,
    ladder_step,
    sample_coefficients,
    tanh_map,
)
from natpdm.masses import MassProfile, constant_mass, exponential_well_mass
from natpdm.numerics import Grid, grid_derivative


def identity_map() -> SmoothMap:
    return SmoothMap(
        value=lambda x: np.asarray(x, dtype=float),
        deriv=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        deriv2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def constant_xi(value: float) -> SmoothMap:
    return SmoothMap(
        value=lambda x, v=value: v * np.ones_like(np.asarray(x, dtype=float)),
        deriv=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        deriv2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


# --- oracle: the per-application route, which samples the realization
# again for every J+/- and keeps its own singular-point checks in each of
# su11_functions, g_weight and h

ORACLE_SINGULAR_TOL = 1e-13
ORACLE_TRIM = 10


def oracle_su11_functions(realization, x):
    xi = realization.xi.value(x)
    denom = 1.0 - realization.a * xi * xi
    if np.any(np.asarray(np.abs(denom)) < ORACLE_SINGULAR_TOL):
        raise ZeroDivisionError("1 - a*xi^2 = 0 on the requested points")
    f = (1.0 + realization.a * xi * xi) / denom
    c = realization.delta * xi / denom
    return f, c


def oracle_h(realization, x):
    xp = realization.xi.deriv(x)
    if np.any(np.asarray(np.abs(xp)) < ORACLE_SINGULAR_TOL):
        raise ZeroDivisionError("xi'(x) = 0")
    return realization.xi.value(x) / xp


def oracle_g_weight(realization, mass, x):
    xi = realization.xi.value(x)
    xp = realization.xi.deriv(x)
    xpp = realization.xi.deriv2(x)
    one_minus = 1.0 - xi * xi
    if np.any(np.asarray(np.abs(one_minus)) < ORACLE_SINGULAR_TOL):
        raise ZeroDivisionError("xi^2 = 1 on the requested points")
    if np.any(np.asarray(np.abs(xp)) < ORACLE_SINGULAR_TOL):
        raise ZeroDivisionError("xi'(x) = 0 on the requested points")
    m = mass.m(x)
    mp = mass.m_prime(x)
    return (2.0 - xi * xi) / one_minus - 1.5 * xi * xpp / (xp * xp) \
        + 0.5 * mp * xi / (m * xp)


def oracle_ladder_apply(realization, which, psi, mass=None):
    if mass is None:
        mass = constant_mass()
    x, u, m_sector = psi.grid.points, psi.values, psi.sector
    if which == "J0":
        return SectorFunction(psi.grid, m_sector, m_sector * u)
    f, c = oracle_su11_functions(realization, x)
    g, h = oracle_g_weight(realization, mass, x), oracle_h(realization, x)
    up = grid_derivative(u, psi.grid.spacing, order=1)
    common = (f * m_sector + c) * u
    if which == "J+":
        return SectorFunction(psi.grid, m_sector + 1.0, h * up + g * u + common)
    return SectorFunction(psi.grid, m_sector - 1.0, -h * up - g * u + common)


def oracle_interior(values):
    if values.size <= 2 * ORACLE_TRIM:
        return values
    return values[ORACLE_TRIM:-ORACLE_TRIM]


def oracle_commutator_residual(realization, psi):
    scale = psi.sup_norm()
    jp = oracle_ladder_apply(realization, "J+", psi)
    jm = oracle_ladder_apply(realization, "J-", psi)
    jpjm = oracle_ladder_apply(realization, "J+", jm)
    jmjp = oracle_ladder_apply(realization, "J-", jp)
    comm = jpjm.values - jmjp.values + 2.0 * psi.sector * psi.values
    res1 = float(np.max(np.abs(oracle_interior(comm)))) / scale
    j0psi = oracle_ladder_apply(realization, "J0", psi)
    res2 = 0.0
    for which, jpm, sign in (("J+", jp, 1.0), ("J-", jm, -1.0)):
        j0_after = (psi.sector + sign) * jpm.values
        after_j0 = oracle_ladder_apply(realization, which, j0psi).values
        resid = j0_after - after_j0 - sign * jpm.values
        res2 = max(res2, float(np.max(np.abs(oracle_interior(resid)))) / scale)
    return res1, res2


def oracle_casimir_residual(realization, labels, psi, mass=None):
    if mass is None:
        mass = constant_mass()
    x, dx, u = psi.grid.points, psi.grid.spacing, psi.values
    j0, delta = labels.j0, realization.delta
    jm = oracle_ladder_apply(realization, "J-", psi, mass)
    jpjm = oracle_ladder_apply(realization, "J+", jm, mass)
    composed = j0 * j0 * u - j0 * u - jpjm.values
    xi = realization.xi.value(x)
    xp = realization.xi.deriv(x)
    xpp = realization.xi.deriv2(x)
    g = oracle_g_weight(realization, mass, x)
    gp = grid_derivative(g, dx, order=1)
    up = grid_derivative(u, dx, order=1)
    upp = grid_derivative(u, dx, order=2)
    one_minus = 1.0 - xi * xi
    closed = (xi / xp) ** 2 * upp \
        + (xi / xp) * (2.0 * g - xi * xpp / xp ** 2 - 2.0 * xi ** 2 / one_minus) * up \
        + ((xi / xp) * gp + g * g - (1.0 + xi * xi) / one_minus * g
           - xi * (delta + 2.0 * j0 * xi) * (2.0 * j0 + delta * xi) / one_minus ** 2) * u
    return float(np.max(np.abs(oracle_interior(composed - closed)))) / psi.sup_norm()


def counting_tanh_map():
    """tanh_map whose three callables count their calls."""
    calls = {"value": 0, "deriv": 0, "deriv2": 0}

    def counted(name, fn):
        def call(x):
            calls[name] += 1
            return fn(x)
        return call

    base = tanh_map()
    return SmoothMap(*(counted(name, getattr(base, name)) for name in calls)), calls


@pytest.fixture(scope="module")
def tanh_realization():
    return Su11Realization(xi=tanh_map(), a=1.0, delta=1.5)


@pytest.fixture(scope="module")
def grid():
    return Grid(-3.0, 3.0, 2401)


@pytest.fixture(scope="module")
def labels():
    return labels_from_j(j=1.0, n=0, delta=1.5)


@pytest.fixture(scope="module")
def packet(grid, labels):
    return gaussian_sector_function(grid, sector=labels.j0)


class TestSu11Functions:
    # f and c depend on xi alone; the identity map puts xi at x with xi' = 1
    def test_xi_zero(self):
        real = Su11Realization(xi=identity_map(), a=1.0, delta=3.0)
        s = sample_coefficients(real, 0.0)
        assert float(s.f) == 1.0
        assert float(s.c) == 0.0

    def test_hand_substitution(self):
        real = Su11Realization(xi=identity_map(), a=1.0, delta=2.0)
        s = sample_coefficients(real, 0.5)
        assert float(s.f) == pytest.approx(5.0 / 3.0, abs=1e-15)
        assert float(s.c) == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert float(s.h) == 0.5

    def test_a_zero_degenerates(self):
        real = Su11Realization(xi=identity_map(), a=0.0, delta=1.0)
        s = sample_coefficients(real, 0.37)
        assert float(s.f) == 1.0
        assert float(s.c) == pytest.approx(0.37)

    def test_singular_point(self):
        real = Su11Realization(xi=identity_map(), a=1.0, delta=1.0)
        with pytest.raises(ZeroDivisionError, match="1 - a"):
            sample_coefficients(real, 1.0)

    def test_flat_xi_has_no_multiplier(self):
        real = Su11Realization(xi=constant_xi(0.5), a=1.0, delta=1.0)
        with pytest.raises(ZeroDivisionError, match="xi'"):
            sample_coefficients(real, 0.0)

    def test_only_g_needs_xi_squared_below_one(self):
        # with a = 0, f and c have no pole at xi = +-1; only g does
        real = Su11Realization(xi=identity_map(), a=0.0, delta=1.0)
        assert sample_coefficients(real, np.array([-1.0, 1.0])).g is None
        with pytest.raises(ZeroDivisionError, match="1 - xi"):
            sample_coefficients(real, np.array([-1.0, 1.0]), constant_mass())


class TestConstraintResiduals:
    def test_second_constraint_vanishes(self, tanh_realization):
        cgrid = Grid(-1.5, 1.5, 1501)
        _, res_b = constraint_residuals(tanh_realization, cgrid)
        assert np.max(np.abs(res_b)) < 1e-8

    def test_first_constraint_is_constant_one(self, tanh_realization):
        # symbolic oracle: f^2 - (xi/xi') f' = 1 identically, for any a
        cgrid = Grid(-1.5, 1.5, 1501)
        res_a, _ = constraint_residuals(tanh_realization, cgrid)
        assert np.std(res_a) < 1e-8
        assert np.mean(res_a) == pytest.approx(1.0, abs=1e-8)

    def test_delta_zero_trivial(self):
        real = Su11Realization(xi=tanh_map(), a=1.0, delta=0.0)
        _, res_b = constraint_residuals(real, Grid(-1.5, 1.5, 1501))
        assert np.max(np.abs(res_b)) == 0.0

    def test_identity_map_reaches_xi_squared_one(self):
        # the constraints need no g, so the grid ends at xi = -1 and 1 are
        # regular: f = 1, c = h = x, and both residuals are exact up to rounding
        real = Su11Realization(xi=identity_map(), a=0.0, delta=1.0)
        res_a, res_b = constraint_residuals(real, Grid(-1.0, 1.0, 41))
        assert np.max(np.abs(res_a - 1.0)) < 1e-12
        assert np.max(np.abs(res_b)) < 1e-12


class TestGWeight:
    def test_linear_xi_constant_mass(self):
        real = Su11Realization(xi=identity_map(), a=1.0, delta=0.0)
        assert float(sample_coefficients(real, 0.0, constant_mass()).g) == pytest.approx(2.0)

    def test_tanh_against_closed_form(self):
        # oracle: xi = tanh, xi' = sech^2, xi'' = -2 tanh sech^2, m constant
        x = 0.5
        xi, ch = math.tanh(x), math.cosh(x)
        expected = (2.0 - xi * xi) / (1.0 - xi * xi) \
            - 1.5 * xi * (-2.0 * xi / ch ** 2) / (1.0 / ch ** 2) ** 2
        real = Su11Realization(xi=tanh_map(), a=1.0, delta=0.0)
        g = sample_coefficients(real, x, constant_mass()).g
        assert float(g) == pytest.approx(expected, abs=1e-8)

    def test_mass_term_killed_at_origin(self):
        # m = e^{2x} has m'(0) = 2 but xi(0) = 0 removes the contribution
        mass = MassProfile(lambda x: np.exp(2.0 * x), lambda x: 2.0 * np.exp(2.0 * x),
                           lambda x: 4.0 * np.exp(2.0 * x))
        real = Su11Realization(xi=identity_map(), a=1.0, delta=0.0)
        assert float(sample_coefficients(real, 0.0, mass).g) == pytest.approx(2.0, abs=1e-9)


@pytest.fixture(scope="module")
def sampled(tanh_realization, grid):
    return sample_coefficients(tanh_realization, grid.points, constant_mass())


class TestLadder:
    def test_j0_is_sector_multiplication(self, sampled, grid):
        # J0 enters J+ as f J0: moving psi from sector 0 to 3 adds 3 f u
        u = gaussian_sector_function(grid, sector=0.0).values
        shift = ladder_step(sampled, 1.0, SectorFunction(grid, 3.0, u)).values \
            - ladder_step(sampled, 1.0, SectorFunction(grid, 0.0, u)).values
        assert np.max(np.abs(shift - 3.0 * sampled.f * u)) < 1e-12

    def test_jplus_shifts_sector(self, sampled, packet):
        assert ladder_step(sampled, 1.0, packet).sector == packet.sector + 1.0
        assert ladder_step(sampled, -1.0, packet).sector == packet.sector - 1.0

    def test_j0_commutator_is_ladder(self, sampled, packet):
        jp = ladder_step(sampled, 1.0, packet)
        j0psi = SectorFunction(packet.grid, packet.sector, packet.sector * packet.values)
        lhs = (packet.sector + 1.0) * jp.values - ladder_step(sampled, 1.0, j0psi).values
        assert np.max(np.abs(lhs - jp.values)) / packet.sup_norm() < 1e-8

    def test_step_is_the_per_application_oracle(self, tanh_realization, sampled, packet):
        for sign, which in ((1.0, "J+"), (-1.0, "J-")):
            out = ladder_step(sampled, sign, packet)
            expected = oracle_ladder_apply(tanh_realization, which, packet)
            assert out.sector == expected.sector
            assert np.array_equal(out.values, expected.values)


MASSES = {"constant": None, "exponential_well_0.5": exponential_well_mass(0.5)}


class TestSampledOnce:
    """The residuals sample the realization once and equal the per-application oracle."""

    @pytest.mark.parametrize("sector", [2.0, 0.0])
    @pytest.mark.parametrize("delta", [0.0, 1.5])
    def test_commutator_equals_the_oracle(self, grid, delta, sector):
        real = Su11Realization(xi=tanh_map(), a=1.0, delta=delta)
        psi = gaussian_sector_function(grid, sector)
        assert commutator_residual(real, psi) == oracle_commutator_residual(real, psi)

    @pytest.mark.parametrize("mass", MASSES)
    @pytest.mark.parametrize("sector", [2.0, 0.0])
    @pytest.mark.parametrize("delta", [0.0, 1.5])
    def test_casimir_equals_the_oracle(self, grid, delta, sector, mass):
        # j = 1 gives j0 = 2; the operator identity holds in any sector
        real = Su11Realization(xi=tanh_map(), a=1.0, delta=delta)
        lab = GroupLabels(j=1.0, j0=sector, n=0, c=2.0, delta=delta)
        psi = gaussian_sector_function(grid, sector)
        assert casimir_residual(real, lab, psi, MASSES[mass]) \
            == oracle_casimir_residual(real, lab, psi, MASSES[mass])

    def test_each_residual_evaluates_xi_once(self, grid, labels, packet):
        xi, calls = counting_tanh_map()
        real = Su11Realization(xi=xi, a=1.0, delta=1.5)
        for residual in (lambda: commutator_residual(real, packet),
                         lambda: casimir_residual(real, labels, packet),
                         lambda: constraint_residuals(real, Grid(-1.5, 1.5, 1501))):
            calls.update(value=0, deriv=0, deriv2=0)
            residual()
            assert calls == {"value": 1, "deriv": 1, "deriv2": 1}


class TestCommutator:
    def test_residuals_small(self, tanh_realization, packet):
        res1, res2 = commutator_residual(tanh_realization, packet)
        assert res1 < 1e-6
        assert res2 < 1e-6

    def test_delta_zero_configuration(self, grid):
        real = Su11Realization(xi=tanh_map(), a=1.0, delta=0.0)
        labels0 = labels_from_j(j=1.0, n=0, delta=0.0)
        psi = gaussian_sector_function(grid, sector=labels0.j0)
        res1, res2 = commutator_residual(real, psi)
        assert res1 < 1e-6
        assert res2 < 1e-6

    def test_zero_function(self, tanh_realization, labels, grid):
        psi = algebra.SectorFunction(grid, labels.j0, np.zeros(grid.n_points))
        assert commutator_residual(tanh_realization, psi) == (0.0, 0.0)


class TestCasimir:
    def test_constant_mass(self, tanh_realization, labels, packet):
        assert casimir_residual(tanh_realization, labels, packet) < 1e-6

    def test_varying_mass(self, tanh_realization, labels, packet):
        res = casimir_residual(tanh_realization, labels, packet,
                               mass=exponential_well_mass(0.5))
        assert res < 1e-6

    def test_delta_zero_sector_zero(self, grid):
        # the closed form's tail vanishes when delta = 0 in the m = 0 sector;
        # the operator identity holds for any sector, so the residual stays small
        real = Su11Realization(xi=tanh_map(), a=1.0, delta=0.0)
        lab = GroupLabels(j=0.0, j0=0.0, n=0, c=0.0, delta=0.0)
        psi = gaussian_sector_function(grid, sector=0.0)
        assert casimir_residual(real, lab, psi) < 1e-6

    def test_zero_function(self, tanh_realization, labels, grid):
        psi = algebra.SectorFunction(grid, labels.j0, np.zeros(grid.n_points))
        assert casimir_residual(tanh_realization, labels, psi) == 0.0

    def test_sector_mismatch(self, tanh_realization, labels, grid):
        psi = gaussian_sector_function(grid, sector=labels.j0 + 0.5)
        with pytest.raises(ValueError, match="psi sector"):
            casimir_residual(tanh_realization, labels, psi)

    def test_requires_canonical_a(self, labels, packet):
        real = Su11Realization(xi=tanh_map(), a=0.5, delta=1.5)
        with pytest.raises(ValueError):
            casimir_residual(real, labels, packet)


class TestAllowedJ0:
    def test_base_case(self):
        assert allowed_j0(0, 0.0) == 1.0

    def test_hand_evaluation(self):
        # j = 2: c = 6, j0 = 2 + 1/2 + 5/2 = 5
        assert allowed_j0(2, 6.0) == pytest.approx(5.0)

    def test_discriminant_boundary(self):
        assert allowed_j0(0, -0.25) == pytest.approx(0.5)

    def test_negative_discriminant(self):
        with pytest.raises(ValueError, match=r"c \+ 1/4"):
            allowed_j0(0, -0.3)

    def test_labels_consistency(self):
        lab = labels_from_j(j=1.0, n=0, delta=1.5)
        assert lab.c == pytest.approx(2.0)
        assert lab.j0 == pytest.approx(2.0)

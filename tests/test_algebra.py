import math

import numpy as np
import pytest

from natpdm import algebra
from natpdm.algebra import (
    GroupLabels,
    NegativeDiscriminant,
    SectorMismatch,
    SingularPoint,
    SmoothMap,
    Su11Realization,
    allowed_j0,
    casimir_residual,
    commutator_residual,
    constraint_residuals,
    g_weight,
    gaussian_sector_function,
    labels_from_j,
    ladder_apply,
    su11_functions,
    tanh_map,
)
from natpdm.masses import constant_mass, exponential_well_mass
from natpdm.numerics import Grid


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
    def test_xi_zero(self):
        real = Su11Realization(xi=constant_xi(0.0), a=1.0, delta=3.0)
        f, c = su11_functions(real, 0.0)
        assert float(f) == 1.0
        assert float(c) == 0.0

    def test_hand_substitution(self):
        real = Su11Realization(xi=constant_xi(0.5), a=1.0, delta=2.0)
        f, c = su11_functions(real, 0.0)
        assert float(f) == pytest.approx(5.0 / 3.0, abs=1e-15)
        assert float(c) == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_a_zero_degenerates(self):
        real = Su11Realization(xi=identity_map(), a=0.0, delta=1.0)
        f, c = su11_functions(real, 0.37)
        assert float(f) == 1.0
        assert float(c) == pytest.approx(0.37)

    def test_singular_point(self):
        real = Su11Realization(xi=constant_xi(1.0), a=1.0, delta=1.0)
        with pytest.raises(SingularPoint):
            su11_functions(real, 0.0)


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


class TestGWeight:
    def test_linear_xi_constant_mass(self):
        real = Su11Realization(xi=identity_map(), a=1.0, delta=0.0)
        assert float(g_weight(real, constant_mass(), 0.0)) == pytest.approx(2.0)

    def test_tanh_against_closed_form(self):
        # oracle: xi = tanh, xi' = sech^2, xi'' = -2 tanh sech^2, m constant
        x = 0.5
        xi, ch = math.tanh(x), math.cosh(x)
        expected = (2.0 - xi * xi) / (1.0 - xi * xi) \
            - 1.5 * xi * (-2.0 * xi / ch ** 2) / (1.0 / ch ** 2) ** 2
        real = Su11Realization(xi=tanh_map(), a=1.0, delta=0.0)
        assert float(g_weight(real, constant_mass(), x)) == pytest.approx(expected, abs=1e-8)

    def test_mass_term_killed_at_origin(self):
        # m = e^{2x} has m'(0) = 2 but xi(0) = 0 removes the contribution
        from natpdm.masses import mass_from_callable
        mass = mass_from_callable(lambda x: np.exp(2.0 * np.asarray(x, dtype=float)))
        real = Su11Realization(xi=identity_map(), a=1.0, delta=0.0)
        assert float(g_weight(real, mass, 0.0)) == pytest.approx(2.0, abs=1e-9)


class TestLadder:
    def test_j0_is_sector_multiplication(self, tanh_realization, grid):
        psi = gaussian_sector_function(grid, sector=3.0)
        out = ladder_apply(tanh_realization, "J0", psi)
        assert out.sector == 3.0
        assert np.array_equal(out.values, 3.0 * psi.values)

    def test_jplus_shifts_sector(self, tanh_realization, packet):
        out = ladder_apply(tanh_realization, "J+", packet)
        assert out.sector == packet.sector + 1.0
        out = ladder_apply(tanh_realization, "J-", packet)
        assert out.sector == packet.sector - 1.0

    def test_j0_commutator_is_ladder(self, tanh_realization, packet):
        jp = ladder_apply(tanh_realization, "J+", packet)
        j0psi = ladder_apply(tanh_realization, "J0", packet)
        lhs = (packet.sector + 1.0) * jp.values \
            - ladder_apply(tanh_realization, "J+", j0psi).values
        assert np.max(np.abs(lhs - jp.values)) / packet.sup_norm() < 1e-8

    def test_unknown_operator(self, tanh_realization, packet):
        with pytest.raises(ValueError):
            ladder_apply(tanh_realization, "J*", packet)


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
        with pytest.raises(SectorMismatch):
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
        with pytest.raises(NegativeDiscriminant):
            allowed_j0(0, -0.3)

    def test_labels_consistency(self):
        lab = labels_from_j(j=1.0, n=0, delta=1.5)
        assert lab.c == pytest.approx(2.0)
        assert lab.j0 == pytest.approx(2.0)

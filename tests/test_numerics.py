import math

import numpy as np
import pytest

from natpdm import numerics
from natpdm.numerics import (
    DimensionMismatch,
    EigensolverFailure,
    Grid,
    NoSignChange,
    ToleranceNotMet,
    TridiagonalSymmetric,
    derivative,
    find_root,
    grid_derivative,
    integrate,
    lowest_eigenvalues,
    sturm_count,
)


class TestGrid:
    def test_spacing_and_points(self):
        g = Grid(-1.0, 1.0, 5)
        assert g.spacing == pytest.approx(0.5)
        assert np.allclose(g.points, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_refined_halves_spacing(self):
        g = Grid(0.0, 2.0, 11)
        assert g.refined().spacing == pytest.approx(0.5 * g.spacing)
        assert g.refined().n_points == 21

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 2)


class TestFindRoot:
    def test_exact_quadratic(self):
        assert find_root(lambda x: x * x - 4.0, (0.0, 3.0), 1e-12) == pytest.approx(2.0, abs=1e-11)

    def test_tanh_shift(self):
        # oracle: closed-form inverse
        expected = math.atanh(0.5)
        root = find_root(lambda x: math.tanh(x) - 0.5, (0.0, 2.0), 1e-12)
        assert root == pytest.approx(expected, abs=1e-11)

    def test_odd_function(self):
        assert abs(find_root(lambda x: x, (-1.0, 1.0), 1e-12)) <= 1e-12

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            find_root(lambda x: x * x + 1.0, (-1.0, 1.0), 1e-10)

    def test_root_stays_in_bracket(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            r = rng.uniform(-2.0, 2.0)
            scale = rng.uniform(0.2, 3.0)

            def f(x, r=r, scale=scale):
                return scale * (x - r) * (1.0 + 0.3 * math.sin(3.0 * x))

            lo, hi = r - rng.uniform(0.1, 2.0), r + rng.uniform(0.1, 2.0)
            root = find_root(f, (lo, hi), 1e-10)
            assert lo <= root <= hi
            assert root == pytest.approx(r, abs=1e-8)

    def test_endpoint_root(self):
        assert find_root(lambda x: x - 1.0, (1.0, 2.0), 1e-12) == 1.0


class TestIntegrate:
    def test_monomial(self):
        assert integrate(lambda x: x * x, 0.0, 1.0, 1e-12) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_cubic_exact_at_design_degree(self):
        # Simpson integrates cubics exactly; antiderivative evaluated by hand
        val = integrate(lambda x: 3.0 * x ** 3 - 2.0 * x + 1.0, -1.0, 2.0, 1e-14)
        exact = (3.0 / 4.0) * (2.0 ** 4 - 1.0) - (2.0 ** 2 - 1.0) + 3.0
        assert val == pytest.approx(exact, rel=1e-14)

    def test_inverse_sqrt_endpoint(self):
        val = integrate(lambda s: s ** -0.5, 0.0, 1.0, 1e-10, sqrt_singularity="lower")
        assert val == pytest.approx(2.0, rel=1e-10)

    def test_upper_singularity_by_reflection(self):
        val = integrate(lambda s: (1.0 - s) ** -0.5, 0.0, 1.0, 1e-10, sqrt_singularity="upper")
        assert val == pytest.approx(2.0, rel=1e-10)

    def test_mass_integrand_case(self):
        # oracle: arctanh(sqrt(z)) is the antiderivative of 1/(2 (1-s) sqrt(s))
        z = math.tanh(1.0) ** 2
        val = integrate(lambda s: 0.5 / ((1.0 - s) * math.sqrt(s)), 0.0, z, 1e-11,
                        sqrt_singularity="lower")
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_reversed_limits(self):
        assert integrate(lambda x: x, 1.0, 0.0, 1e-12) == pytest.approx(-0.5, abs=1e-12)

    def test_depth_exhaustion_without_flag(self):
        # an unflagged endpoint singularity keeps producing non-finite
        # panels until the depth budget runs out
        def f(s):
            return math.inf if s == 0.0 else s ** -0.5

        with pytest.raises(ToleranceNotMet):
            integrate(f, 0.0, 1.0, 1e-10)

    def test_smooth_oscillatory(self):
        val = integrate(math.sin, 0.0, math.pi, 1e-11)
        assert val == pytest.approx(2.0, rel=1e-10)


class TestDerivative:
    def test_first_order(self):
        assert derivative(math.sin, 0.0, 1, 1e-2) == pytest.approx(1.0, abs=1e-9)

    def test_second_order(self):
        assert derivative(math.exp, 0.0, 2, 1e-2) == pytest.approx(1.0, abs=1e-8)

    def test_tanh_squared(self):
        # oracle: d/dx tanh^2 = 2 tanh sech^2
        x = 0.7
        expected = 2.0 * math.tanh(x) / math.cosh(x) ** 2
        assert derivative(lambda t: math.tanh(t) ** 2, x, 1, 1e-2) == pytest.approx(
            expected, abs=1e-9)

    def test_third_order(self):
        # sin''' = -cos
        assert derivative(math.sin, 0.3, 3, 2e-2) == pytest.approx(-math.cos(0.3), abs=1e-7)

    def test_vectorised(self):
        x = np.linspace(-1.0, 1.0, 7)
        got = derivative(np.sin, x, 1, 1e-2)
        assert np.allclose(got, np.cos(x), atol=1e-9)


class TestGridDerivative:
    def test_fourth_order_interior(self):
        errs = []
        for n in (101, 201):
            g = Grid(-1.0, 1.0, n)
            d = grid_derivative(np.sin(g.points), g.spacing, 1)
            errs.append(np.max(np.abs(d[5:-5] - np.cos(g.points[5:-5]))))
        # halving h should shrink the error by about 2^4
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.3)

    def test_second_derivative(self):
        g = Grid(-1.0, 1.0, 401)
        d2 = grid_derivative(np.exp(g.points), g.spacing, 2)
        assert np.max(np.abs(d2 - np.exp(g.points))) < 1e-8

    def test_edges_reasonable(self):
        g = Grid(0.0, 1.0, 101)
        d = grid_derivative(g.points ** 4, g.spacing, 1)
        assert np.max(np.abs(d - 4.0 * g.points ** 3)) < 1e-10


class TestTridiagonal:
    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            TridiagonalSymmetric(np.zeros(4), np.zeros(4))

    def test_single_entry(self):
        t = TridiagonalSymmetric(np.array([5.0]), np.zeros(0))
        assert np.allclose(lowest_eigenvalues(t, 1), [5.0])

    def test_two_by_two(self):
        t = TridiagonalSymmetric(np.array([0.0, 0.0]), np.array([1.0]))
        assert np.allclose(lowest_eigenvalues(t, 2), [-1.0, 1.0], atol=1e-10)

    def test_k_bounds(self):
        t = TridiagonalSymmetric(np.array([0.0, 0.0]), np.array([1.0]))
        with pytest.raises(DimensionMismatch):
            lowest_eigenvalues(t, 3)


def dirichlet_laplacian(n: int, h: float) -> TridiagonalSymmetric:
    return TridiagonalSymmetric(np.full(n, 2.0 / h ** 2), np.full(n - 1, -1.0 / h ** 2))


class TestEigensolver:
    def test_laplacian_closed_form(self):
        # oracle: lambda_k = (2/h^2)(1 - cos(k pi h / L)) for the tridiagonal
        n, length = 100, 1.0
        h = length / (n + 1)
        t = dirichlet_laplacian(n, h)
        got = lowest_eigenvalues(t, 5)
        exact = np.array([(2.0 / h ** 2) * (1.0 - math.cos(k * math.pi * h / length))
                          for k in range(1, 6)])
        assert np.max(np.abs(got - exact)) < 1e-9

    def test_against_dense_solver(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = int(rng.integers(5, 40))
            t = TridiagonalSymmetric(rng.normal(size=n), rng.normal(size=n - 1))
            got = lowest_eigenvalues(t, min(4, n))
            dense = np.sort(np.linalg.eigvalsh(t.to_dense()))[: min(4, n)]
            assert np.max(np.abs(got - dense)) < 1e-8

    def test_nondecreasing(self):
        rng = np.random.default_rng(11)
        t = TridiagonalSymmetric(rng.normal(size=30), rng.normal(size=29))
        got = lowest_eigenvalues(t, 10)
        assert np.all(np.diff(got) >= -1e-12)

    def test_sturm_count_at_infinity(self):
        n = 50
        t = dirichlet_laplacian(n, 0.1)
        assert sturm_count(t, np.inf) == n
        assert sturm_count(t, -np.inf) == 0

    def test_convergence_order_two(self):
        # continuum oracle: k^2 pi^2 / L^2; Richardson ratio of errors ~ 4
        length = 1.0
        lam = []
        for n in (50, 101, 203):
            h = length / (n + 1)
            lam.append(lowest_eigenvalues(dirichlet_laplacian(n, h), 1)[0])
        exact = math.pi ** 2
        ratio = (lam[0] - exact) / (lam[1] - exact)
        assert 3.8 <= abs(ratio) <= 4.2

    def test_nan_diagonal_raises(self):
        t = TridiagonalSymmetric(np.array([0.0, np.nan, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(EigensolverFailure, match="info=-9"):
            lowest_eigenvalues(t, 2)

    def test_degenerate_pair_passes_certificate(self):
        # two identical blocks joined by a zero off-diagonal: every level is double
        rng = np.random.default_rng(5)
        d, e = rng.normal(size=20), rng.normal(size=19)
        t = TridiagonalSymmetric(np.concatenate([d, d]), np.concatenate([e, [0.0], e]))
        got = lowest_eigenvalues(t, 6)
        dense = np.linalg.eigvalsh(t.to_dense())[:6]
        assert np.max(np.abs(got - dense)) < 1e-10
        assert got[0] == pytest.approx(got[1], abs=1e-10)

    def test_large_norm_matches_dense(self):
        # the certificate margin scales with ||T||: a flat 1e-10 would be
        # below the rounding of the Sturm count at ||T|| ~ 1e7
        rng = np.random.default_rng(17)
        n = 300
        t = TridiagonalSymmetric(1e7 * rng.normal(size=n), 1e7 * rng.normal(size=n - 1))
        got = lowest_eigenvalues(t, 8)
        dense = np.linalg.eigvalsh(t.to_dense())[:8]
        assert np.max(np.abs(got - dense)) < 1e-6

    def test_one_sturm_sweep_per_solve(self, monkeypatch):
        calls = []

        def counted(matrix, lam):
            calls.append(np.size(lam))
            return sturm_count(matrix, lam)

        monkeypatch.setattr(numerics, "sturm_count", counted)
        lowest_eigenvalues(dirichlet_laplacian(200, 0.01), 4)
        assert calls == [8]

    @pytest.mark.parametrize("kind", ["certificate", "missing"])
    def test_lapack_faults_raise(self, kind, break_dstebz):
        break_dstebz(kind)
        with pytest.raises(EigensolverFailure):
            lowest_eigenvalues(dirichlet_laplacian(50, 0.1), 3)

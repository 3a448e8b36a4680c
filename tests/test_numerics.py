import math

import numpy as np
import pytest

from natpdm import cli, numerics
from natpdm.numerics import (
    DimensionMismatch,
    EigensolverFailure,
    Grid,
    ToleranceNotMet,
    TridiagonalSymmetric,
    bisect,
    derivative,
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
    """numerics.bisect on the inputs the scalar root finder was checked with."""

    def test_exact_quadratic(self):
        assert bisect(lambda x: x * x - 4.0, 0.0, 3.0) == pytest.approx(2.0, abs=1e-15)

    def test_tanh_shift(self):
        # oracle: closed-form inverse
        expected = math.atanh(0.5)
        root = bisect(lambda x: np.tanh(x) - 0.5, 0.0, 2.0)
        assert root == pytest.approx(expected, abs=1e-15)

    def test_odd_function(self):
        assert abs(bisect(lambda x: x, -1.0, 1.0)) <= 1e-300

    def test_no_sign_change(self):
        with pytest.raises(ValueError):
            bisect(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_root_stays_in_bracket(self):
        rng = np.random.default_rng(7)
        r = rng.uniform(-2.0, 2.0, 50)
        scale = rng.uniform(0.2, 3.0, 50)
        lo, hi = r - rng.uniform(0.1, 2.0, 50), r + rng.uniform(0.1, 2.0, 50)

        def f(x):
            return scale * (x - r) * (1.0 + 0.3 * np.sin(3.0 * x))

        root = bisect(f, lo, hi)
        assert np.all((lo <= root) & (root <= hi))
        assert np.max(np.abs(root - r)) <= 1e-14
        # the array call gives each bracket what a call of its own gives
        for i in (0, 17, 49):
            one = bisect(lambda x: scale[i] * (x - r[i]) * (1.0 + 0.3 * np.sin(3.0 * x)),
                         lo[i], hi[i])
            assert one == root[i]

    def test_endpoint_root(self):
        assert bisect(lambda x: x - 1.0, 1.0, 2.0) == 1.0
        assert bisect(lambda x: x - 2.0, 1.0, 2.0) == 2.0
        assert bisect(lambda x: 1.0 - x, 1.0, 2.0) == 1.0

    def test_rising_and_falling_stop_at_adjacent_floats(self):
        third = 1.0 / 3.0
        for f in (lambda x: x - third, lambda x: third - x):
            root = bisect(f, 0.0, 1.0)
            # f changes sign between root and the float just below it
            assert np.sign(f(root)) != np.sign(f(np.nextafter(root, 0.0)))
            assert root in (third, np.nextafter(third, 1.0))
        roots = bisect(lambda x: np.array([1.0, -1.0]) * (x - third), [0.0, 0.0], [1.0, 1.0])
        assert roots[0] == roots[1] == bisect(lambda x: x - third, 0.0, 1.0)


def recursive_simpson(f, a, b, tol):
    """Scalar reference: the same adaptive Simpson rule as a depth-first recursion."""
    if a == b:
        return 0.0
    if b < a:
        return -recursive_simpson(f, b, a, tol)

    def step(a, fa, m, fm, b, fb, whole, tol, depth):
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = left + right - whole
        if abs(err) <= 15.0 * tol or (b - a <= wfloor and math.isfinite(err)):
            return left + right + err / 15.0
        assert depth < numerics.QUAD_MAX_DEPTH
        return step(a, fa, lm, flm, m, fm, left, 0.5 * tol, depth + 1) \
            + step(m, fm, rm, frm, b, fb, right, 0.5 * tol, depth + 1)

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    wfloor = 1e-10 * (b - a)
    return step(a, fa, m, fm, b, fb, whole, tol * (1.0 + abs(whole)), 0)


class TestIntegrate:
    def test_monomial(self):
        assert integrate(lambda x: x * x, 0.0, 1.0, 1e-12) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_cubic_exact_at_design_degree(self):
        # Simpson integrates cubics exactly; antiderivative evaluated by hand
        val = integrate(lambda x: 3.0 * x ** 3 - 2.0 * x + 1.0, -1.0, 2.0, 1e-14)
        exact = (3.0 / 4.0) * (2.0 ** 4 - 1.0) - (2.0 ** 2 - 1.0) + 3.0
        assert val == pytest.approx(exact, rel=1e-14)

    def test_reversed_limits(self):
        assert integrate(lambda x: x, 1.0, 0.0, 1e-12) == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("end", [math.nan, math.inf, -math.inf])
    def test_non_finite_end_rejected_before_f_is_called(self, end):
        # lo < hi is False for a NaN end, which would pass for an empty interval
        calls = []

        def f(x):
            calls.append(x)
            return np.cos(x)

        with pytest.raises(ValueError):
            integrate(f, 0.0, end, 1e-10)
        with pytest.raises(ValueError):
            integrate(f, np.array([0.0, end]), 1.0, 1e-10)
        assert calls == []

    def test_depth_exhaustion_without_flag(self):
        # a non-finite endpoint value keeps producing non-finite panels
        # until the depth budget runs out, with no warning from the rule
        def f(s):
            return np.divide(1.0, np.sqrt(s), out=np.full_like(s, np.inf), where=s > 0.0)

        with pytest.raises(ToleranceNotMet):
            integrate(f, 0.0, 1.0, 1e-10)
        with pytest.raises(ToleranceNotMet):
            integrate(f, np.array([1.0, 0.0]), np.array([2.0, 1.0]), 1e-10)

    def test_panel_budget_bounds_a_rule_that_cannot_converge(self):
        # NaN everywhere splits every panel at every level: the panel
        # budget stops it long before depth 40 would
        calls = []

        def nan(x):
            calls.append(x.size)
            return np.full_like(x, np.nan)

        with pytest.raises(ToleranceNotMet):
            integrate(nan, np.zeros(8), np.ones(8), 1e-10)
        assert max(calls) <= 2 * numerics.QUAD_MAX_PANELS

    def test_smooth_oscillatory(self):
        val = integrate(np.sin, 0.0, math.pi, 1e-11)
        assert val == pytest.approx(2.0, rel=1e-10)

    def test_array_of_intervals_matches_one_call_each(self):
        a = np.array([0.0, 2.0, -1.0, 0.5, 3.0, 0.0])
        b = np.array([1.0, 0.0, 4.0, 0.5, -2.0, 30.0])

        def f(x):
            return np.exp(-x * x) * np.cos(3.0 * x) + np.sqrt(1.0 + x * x)

        together = integrate(f, a, b, 1e-10)
        assert together.shape == a.shape
        for i in range(a.size):
            assert together[i] == integrate(f, a[i], b[i], 1e-10)
            # same sums in the same order as the recursive rule: bit-identical
            assert together[i] == recursive_simpson(f, a[i], b[i], 1e-10)
        assert together[3] == 0.0
        assert together[1] == -integrate(f, 0.0, 2.0, 1e-10)


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
        assert np.allclose(lowest_eigenvalues([t], 1), [[5.0]])

    def test_two_by_two(self):
        t = TridiagonalSymmetric(np.array([0.0, 0.0]), np.array([1.0]))
        assert np.allclose(lowest_eigenvalues([t], 2), [[-1.0, 1.0]], atol=1e-10)

    def test_k_bounds(self):
        t = TridiagonalSymmetric(np.array([0.0, 0.0]), np.array([1.0]))
        with pytest.raises(DimensionMismatch):
            lowest_eigenvalues([t], 3)


def dirichlet_laplacian(n: int, h: float) -> TridiagonalSymmetric:
    return TridiagonalSymmetric(np.full(n, 2.0 / h ** 2), np.full(n - 1, -1.0 / h ** 2))


class TestEigensolver:
    def test_laplacian_closed_form(self):
        # oracle: lambda_k = (2/h^2)(1 - cos(k pi h / L)) for the tridiagonal
        n, length = 100, 1.0
        h = length / (n + 1)
        t = dirichlet_laplacian(n, h)
        got, = lowest_eigenvalues([t], 5)
        exact = np.array([(2.0 / h ** 2) * (1.0 - math.cos(k * math.pi * h / length))
                          for k in range(1, 6)])
        assert np.max(np.abs(got - exact)) < 1e-9

    def test_against_dense_solver(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = int(rng.integers(5, 40))
            t = TridiagonalSymmetric(rng.normal(size=n), rng.normal(size=n - 1))
            got, = lowest_eigenvalues([t], min(4, n))
            dense = np.sort(np.linalg.eigvalsh(t.to_dense()))[: min(4, n)]
            assert np.max(np.abs(got - dense)) < 1e-8

    def test_nondecreasing(self):
        rng = np.random.default_rng(11)
        t = TridiagonalSymmetric(rng.normal(size=30), rng.normal(size=29))
        got, = lowest_eigenvalues([t], 10)
        assert np.all(np.diff(got) >= -1e-12)

    def test_sturm_count_at_infinity(self):
        n = 50
        t = dirichlet_laplacian(n, 0.1)
        assert sturm_count([t], [np.inf, -np.inf]).tolist() == [[n, 0]]

    def test_convergence_order_two(self):
        # continuum oracle: k^2 pi^2 / L^2; Richardson ratio of errors ~ 4
        length = 1.0
        lam = []
        for n in (50, 101, 203):
            h = length / (n + 1)
            lam.append(lowest_eigenvalues([dirichlet_laplacian(n, h)], 1)[0, 0])
        exact = math.pi ** 2
        ratio = (lam[0] - exact) / (lam[1] - exact)
        assert 3.8 <= abs(ratio) <= 4.2

    def test_nan_diagonal_raises(self):
        t = TridiagonalSymmetric(np.array([0.0, np.nan, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(EigensolverFailure, match="info=-9"):
            lowest_eigenvalues([t], 2)

    def test_degenerate_pair_passes_certificate(self):
        # two identical blocks joined by a zero off-diagonal: every level is double
        rng = np.random.default_rng(5)
        d, e = rng.normal(size=20), rng.normal(size=19)
        t = TridiagonalSymmetric(np.concatenate([d, d]), np.concatenate([e, [0.0], e]))
        got, = lowest_eigenvalues([t], 6)
        dense = np.linalg.eigvalsh(t.to_dense())[:6]
        assert np.max(np.abs(got - dense)) < 1e-10
        assert got[0] == pytest.approx(got[1], abs=1e-10)

    def test_large_norm_matches_dense(self):
        # the certificate margin scales with ||T||: a flat 1e-10 would be
        # below the rounding of the Sturm count at ||T|| ~ 1e7
        rng = np.random.default_rng(17)
        n = 300
        t = TridiagonalSymmetric(1e7 * rng.normal(size=n), 1e7 * rng.normal(size=n - 1))
        got, = lowest_eigenvalues([t], 8)
        dense = np.linalg.eigvalsh(t.to_dense())[:8]
        assert np.max(np.abs(got - dense)) < 1e-6

    @pytest.mark.parametrize("argv, sweeps", [
        (["spectrum", "--gamma=0.8", "--j=2", "--mass=rational:2", "--grid=-12,12,301"], 1),
        (["verify", "--seed=0"], 2),
    ], ids=["spectrum", "verify"])
    def test_one_sturm_sweep_per_request(self, monkeypatch, capsys, argv, sweeps):
        # spectrum: two grids for each of two masses; verify: the six
        # matrices of the pdmsolver suite, then its verify_spectrum call
        calls = []

        def counted(matrices, shifts):
            calls.append(len(matrices))
            return sturm_count(matrices, shifts)

        monkeypatch.setattr(numerics, "sturm_count", counted)
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert len(calls) == sweeps
        assert calls[-1] == 4

    @pytest.mark.parametrize("kind", ["certificate", "missing"])
    def test_lapack_faults_raise(self, kind, break_dstebz):
        break_dstebz(kind)
        with pytest.raises(EigensolverFailure):
            lowest_eigenvalues([dirichlet_laplacian(50, 0.1)], 3)


def sturm_count_one(matrix: TridiagonalSymmetric, lam) -> np.ndarray:
    """Reference: the LDL^T Sturm count of one matrix, one row at a time."""
    d = matrix.diagonal
    e2 = matrix.offdiagonal * matrix.offdiagonal
    lam = np.asarray(lam, dtype=float)
    pivmin = max(float(e2.max()) if e2.size else 1.0, 1.0) * 2.3e-308
    q = d[0] - lam
    count = (q <= 0.0).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(1, d.size):
            q = np.where(np.abs(q) < pivmin, -pivmin, q)
            q = d[i] - lam - e2[i - 1] / q
            count += q <= 0.0
    return count


class TestBatchedCertificate:
    SHIFTS = [-np.inf, -1.0, 0.0, 0.3, 2.0, np.inf]

    def matrices(self):
        rng = np.random.default_rng(23)
        out = [TridiagonalSymmetric(rng.normal(size=n), rng.normal(size=n - 1))
               for n in (1, 40)]
        # a zero diagonal makes exactly zero pivots at the shift 0
        out.insert(1, TridiagonalSymmetric(np.zeros(7), np.ones(6)))
        # a first pivot of 1e-300 at the shift 0 is below the pivmin of the
        # 300-row matrix, whose couplings are near 1e4, but not below its own
        out.insert(1, TridiagonalSymmetric(np.array([1e-300, 0.0]), np.ones(1)))
        out.append(TridiagonalSymmetric(rng.normal(size=300), 1e4 * rng.normal(size=299)))
        return out

    def test_one_sweep_equals_one_sweep_per_matrix(self):
        matrices = self.matrices()
        got = sturm_count(matrices, self.SHIFTS)
        assert got.shape == (5, len(self.SHIFTS))
        for matrix, counts in zip(matrices, got):
            assert counts.tolist() == sturm_count_one(matrix, self.SHIFTS).tolist()
        assert got[:, 0].tolist() == [0, 0, 0, 0, 0]
        assert got[:, -1].tolist() == [1, 2, 7, 40, 300]

    # 3000 shifts of 300-row matrices overflow one pass's pivot buffer
    @pytest.mark.parametrize("n_shifts", [9, 3000])
    def test_each_matrix_its_own_shifts(self, n_shifts):
        matrices = self.matrices()
        rng = np.random.default_rng(29)
        shifts = rng.normal(scale=2.0, size=(5, n_shifts))
        got = sturm_count(matrices, shifts)
        for matrix, row, counts in zip(matrices, shifts, got):
            assert counts.tolist() == sturm_count_one(matrix, row).tolist()

    def test_levels_of_every_matrix(self):
        matrices = self.matrices()
        got = lowest_eigenvalues(matrices, 1)
        dense = [np.linalg.eigvalsh(m.to_dense())[:1] for m in matrices]
        assert np.max(np.abs(got - np.array(dense))) < 1e-9

    def test_fault_names_its_matrix_and_level(self, monkeypatch):
        # the "certificate" fault of break_dstebz, on the third call only
        real = numerics._dstebz()
        calls = []

        def third_moved(*args):
            info = real(*args)
            calls.append(1)
            if len(calls) == 3:
                args[12][0] += 1.0
            return info

        monkeypatch.setattr(numerics, "_dstebz", lambda: third_moved)
        matrices = [dirichlet_laplacian(n, 0.1) for n in (50, 20, 30, 40)]
        with pytest.raises(EigensolverFailure, match="level 1 of 3 of matrix 3 of 4"):
            lowest_eigenvalues(matrices, 3)
        assert len(calls) == 4

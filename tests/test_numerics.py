import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natpdm import cli, numerics, pdmsolver
from natpdm.masses import constant_mass, exponential_well_mass, rational_mass
from natpdm.natanzon import BEN_DANIEL_DUKE, OrderingParams
from natpdm.numerics import (
    EIG_ATOL,
    EigensolverFailure,
    Grid,
    ToleranceNotMet,
    TridiagonalSymmetric,
    derivative,
    grid_derivative,
    integrate,
    lowest_eigenvalues,
    newton_bisect,
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


def unit_slope(x, _):
    return np.ones_like(x)


class TestFindRoot:
    """newton_bisect on the inputs the scalar root finder was checked with."""

    def test_exact_quadratic(self):
        root = newton_bisect(lambda x, _: x * x - 4.0, lambda x, _: 2.0 * x, 0.0, 3.0)
        assert root == pytest.approx(2.0, abs=1e-15)

    def test_tanh_shift(self):
        # oracle: closed-form inverse
        expected = math.atanh(0.5)
        root = newton_bisect(lambda x, _: np.tanh(x) - 0.5, lambda x, _: 1.0 / np.cosh(x) ** 2,
                             0.0, 2.0)
        assert root == pytest.approx(expected, abs=1e-15)

    def test_odd_function(self):
        assert abs(newton_bisect(lambda x, _: x, unit_slope, -1.0, 1.0)) <= 1e-300

    def test_no_sign_change(self):
        with pytest.raises(ValueError):
            newton_bisect(lambda x, _: x * x + 1.0, lambda x, _: 2.0 * x, -1.0, 1.0)

    def test_root_stays_in_bracket(self):
        rng = np.random.default_rng(7)
        r = rng.uniform(-2.0, 2.0, 50)
        scale = rng.uniform(0.2, 3.0, 50)
        lo, hi = r - rng.uniform(0.1, 2.0, 50), r + rng.uniform(0.1, 2.0, 50)

        def f(r, scale):
            return lambda x, i: scale[i] * (x - r[i]) * (1.0 + 0.3 * np.sin(3.0 * x))

        def fprime(r, scale):
            return lambda x, i: scale[i] * (1.0 + 0.3 * np.sin(3.0 * x)
                                            + 0.9 * (x - r[i]) * np.cos(3.0 * x))

        root = newton_bisect(f(r, scale), fprime(r, scale), lo, hi)
        assert np.all((lo <= root) & (root <= hi))
        assert np.max(np.abs(root - r)) <= 1e-14
        # the array call gives each bracket what a call of its own gives
        for i in (0, 17, 49):
            one = slice(i, i + 1)
            assert newton_bisect(f(r[one], scale[one]), fprime(r[one], scale[one]),
                                 lo[i], hi[i]) == root[i]

    def test_endpoint_root(self):
        assert newton_bisect(lambda x, _: x - 1.0, unit_slope, 1.0, 2.0) == 1.0
        assert newton_bisect(lambda x, _: x - 2.0, unit_slope, 1.0, 2.0) == 2.0
        assert newton_bisect(lambda x, _: 1.0 - x, lambda x, _: -np.ones_like(x), 1.0, 2.0) == 1.0

    def test_rising_and_falling_stop_at_adjacent_floats(self):
        third = 1.0 / 3.0
        for f, slope in ((lambda x: x - third, 1.0), (lambda x: third - x, -1.0)):
            root = newton_bisect(lambda x, _: f(x), lambda x, _: np.full(np.shape(x), slope),
                                 0.0, 1.0)
            # f changes sign between root and the float just below it
            assert np.sign(f(root)) != np.sign(f(np.nextafter(root, 0.0)))
            assert root in (third, np.nextafter(third, 1.0))
        signs = np.array([1.0, -1.0])
        roots = newton_bisect(lambda x, i: signs[i] * (x - third), lambda x, i: signs[i],
                              [0.0, 0.0], [1.0, 1.0])
        assert roots[0] == roots[1] == newton_bisect(lambda x, _: x - third, unit_slope, 0.0, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from(["rising", "falling", "step"]),
           brackets=st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(0.0, 10.0),
                                       st.floats(0.0, 10.0)), min_size=1, max_size=8))
    def test_ends_on_adjacent_floats_under_the_sign_rule(self, shape, brackets):
        # the returned root is the first float at which f leaves the sign
        # it has at lo: the float just below it still has that sign
        r, below, above = (np.array(v) for v in zip(*brackets))
        lo, hi = r - below, r + above
        f = SHAPES[shape](r)
        root = newton_bisect(per_bracket(shape, r), SLOPES[shape](r), lo, hi)
        assert np.all((lo <= root) & (root <= hi))
        side = np.sign(f(lo))
        assert np.all(root[side == 0.0] == lo[side == 0.0])
        moved = side != 0.0
        assert np.all(np.sign(f(root))[moved] != side[moved])
        below_root = np.nextafter(root, -np.inf)
        assert np.all(np.sign(f(below_root))[moved] == side[moved])

    def test_reversed_bracket_refused_before_f_is_called(self):
        # it holds no root, and would come back unchanged as if it did
        calls = []

        def f(x, _):
            calls.append(x)
            return x - 0.3

        with pytest.raises(ValueError):
            newton_bisect(f, f, 1.0, 0.0)
        with pytest.raises(ValueError):
            newton_bisect(f, f, [1.0, 0.0], [0.0, 1.0])
        assert calls == []


# the three shapes the batch properties draw: f(x) for a root or jump at r,
# with r an array (one per bracket) or a scalar
SHAPES = {
    "rising": lambda r: lambda x: np.tanh(x - r),
    "falling": lambda r: lambda x: np.tanh(r - x),
    "step": lambda r: lambda x: np.sign(x - r),
}
# their derivatives, one r per bracket; the step's is zero, so
# newton_bisect bisects it
SLOPES = {
    "rising": lambda r: lambda x, i: 1.0 / np.cosh(x - r[i]) ** 2,
    "falling": lambda r: lambda x, i: -1.0 / np.cosh(x - r[i]) ** 2,
    "step": lambda r: lambda x, i: np.zeros_like(x),
}
_ends = st.floats(-5.0, 5.0, allow_nan=False)
_widths = st.one_of(st.just(0.0), st.floats(0.0, 10.0, allow_nan=False))


def per_bracket(shape, r):
    """SHAPES[shape] with one r per bracket, in the f(x, idx) form of newton_bisect."""
    return lambda x, i: SHAPES[shape](r[i])(x)


class TestBatchIndependence:
    """Each bracket or interval of an array call gets the value it gets alone."""

    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from(sorted(SHAPES)),
           brackets=st.lists(st.tuples(_ends, _widths, _widths), min_size=1, max_size=8))
    def test_bisect(self, shape, brackets):
        r, below, above = (np.array(v) for v in zip(*brackets))
        # a zero width puts an end on the root itself
        lo, hi = r - below, r + above
        together = newton_bisect(per_bracket(shape, r), SLOPES[shape](r), lo, hi)
        for i in range(r.size):
            one = r[i:i + 1]
            assert together[i] == newton_bisect(per_bracket(shape, one), SLOPES[shape](one),
                                                lo[i], hi[i])

    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from(sorted(SHAPES)), r=_ends,
           tol=st.sampled_from([1e-6, 1e-10]),
           intervals=st.lists(
               st.tuples(_ends, _ends, st.sampled_from(["forward", "reversed", "empty"])),
               min_size=1, max_size=8))
    def test_integrate(self, shape, r, tol, intervals):
        a, b = [], []
        for x, y, kind in intervals:
            lo, hi = min(x, y), max(x, y)
            a.append({"forward": lo, "reversed": hi, "empty": lo}[kind])
            b.append({"forward": hi, "reversed": lo, "empty": lo}[kind])
        f = SHAPES[shape](r)
        together = integrate(f, np.array(a), np.array(b), tol)
        for i in range(len(a)):
            assert together[i] == integrate(f, a[i], b[i], tol)


def bisect_oracle(f, lo, hi):
    """Reference bisection: one halving of every bracket per call of an f(x) on the whole batch."""
    lo, hi = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi))
    if np.any(lo > hi):
        raise ValueError("a bracket has lo > hi")
    side = np.sign(f(lo))
    if np.any(side * np.sign(f(hi)) > 0.0):
        raise ValueError("f has the same sign at both ends of a bracket")
    np.copyto(hi, lo, where=side == 0.0)
    while np.any((lo < (mid := numerics._midpoint(lo, hi))) & (mid < hi)):
        keep = np.sign(f(mid)) == side
        np.copyto(lo, mid, where=keep)
        np.copyto(hi, mid, where=~keep)
    return float(hi) if hi.ndim == 0 else hi


def same_floats(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


_bracket_lists = st.lists(st.tuples(_ends, _widths, _widths), min_size=1, max_size=8)


class TestBisect:
    """newton_bisect against the one-halving-per-call oracle where f's floats change sign once."""

    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from(sorted(SHAPES)), brackets=_bracket_lists)
    def test_equals_the_oracle(self, shape, brackets):
        r, below, above = (np.array(v) for v in zip(*brackets))
        lo, hi = r - below, r + above
        # bit for bit but for the sign of a zero root: the oracle keeps
        # halving closed brackets while others are open, and the midpoint
        # -0.0 of [-5e-324, 0.0] then replaces its hi end
        assert same_floats(newton_bisect(per_bracket(shape, r), SLOPES[shape](r), lo, hi) + 0.0,
                           bisect_oracle(SHAPES[shape](r), lo, hi) + 0.0)

    def test_ends_near_the_double_range(self, monkeypatch):
        # f' underflows to 0 far from r, so these brackets are bisected from
        # ends near 1.7e308, where _halve takes _midpoint and 0.5 (lo + hi)
        # overflows
        real, sums = numerics._midpoint, []

        def midpoint(lo, hi):
            with np.errstate(over="ignore"):
                sums.append(lo + hi)
            return real(lo, hi)

        r = np.array([1e308, -1.5e308, 0.0, 3.0])
        lo, hi = np.full(4, -1.7e308), np.full(4, 1.7e308)
        monkeypatch.setattr(numerics, "_midpoint", midpoint)
        got = newton_bisect(lambda x, i: np.tanh(0.5 * x - 0.5 * r[i]),
                            lambda x, i: 0.5 / np.cosh(0.5 * x - 0.5 * r[i]) ** 2, lo, hi)
        monkeypatch.undo()
        assert any(np.isinf(s).any() for s in sums)
        assert same_floats(got + 0.0,
                           bisect_oracle(lambda x: np.tanh(0.5 * x - 0.5 * r), lo, hi) + 0.0)


class TestNewtonBisect:
    """newton_bisect's contract, point by point."""

    @settings(max_examples=80, deadline=None)
    @given(shape=st.sampled_from(["rising", "falling"]), brackets=_bracket_lists,
           start=st.one_of(st.none(), st.floats(-0.5, 1.5)))
    def test_equals_the_oracle_where_f_is_monotone(self, shape, brackets, start):
        r, below, above = (np.array(v) for v in zip(*brackets))
        lo, hi = r - below, r + above
        # a start outside the bracket falls back to its midpoint
        x0 = None if start is None else lo + start * (hi - lo)
        got = newton_bisect(per_bracket(shape, r), SLOPES[shape](r), lo, hi, x0)
        expected = bisect_oracle(SHAPES[shape](r), lo, hi)
        # bit for bit but for the sign of a zero root, which the oracle's
        # midpoints decide
        assert same_floats(got + 0.0, expected + 0.0)

    @settings(max_examples=60, deadline=None)
    @given(brackets=_bracket_lists)
    def test_a_point_alone_equals_its_row(self, brackets):
        # f's floats change sign many times within 1e-9 of r; each result
        # is still the upper end of a sign change under the keep rule
        r, below, above = (np.array(v) for v in zip(*brackets))
        lo, hi = r - below - 1e-6, r + above + 1e-6

        def noisy(r):
            return lambda x, i: (x - r[i]) + 1e-9 * np.sin(1e12 * x)

        together = newton_bisect(noisy(r), unit_slope, lo, hi)
        for i in range(r.size):
            assert same_floats(together[i],
                               newton_bisect(noisy(r[i:i + 1]), unit_slope, lo[i], hi[i]))
        f, idx = noisy(r), np.arange(r.size)
        side = np.sign(f(lo, idx))
        moved = side != 0.0
        assert np.all(together[~moved] == lo[~moved])
        assert np.all((np.sign(f(together, idx)) != side)[moved])
        assert np.all((np.sign(f(np.nextafter(together, -np.inf), idx)) == side)[moved])

    def test_bad_bracket_refused_before_fprime_is_called(self):
        calls = []

        def slope(x, _):
            calls.append(x)
            return np.ones_like(x)

        with pytest.raises(ValueError):
            newton_bisect(lambda x, _: x - 0.3, slope, 1.0, 0.0)
        with pytest.raises(ValueError):
            newton_bisect(lambda x, _: x - 0.3, slope, [0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            newton_bisect(lambda x, _: x * x + 1.0, slope, -1.0, 1.0)
        assert calls == []

    def test_nan_at_an_end_refused_before_fprime_is_called(self):
        # NaN has no sign for the keep rule to keep, and NaN times the
        # other end's sign is not positive, so it passed as a sign change
        calls = []

        def slope(x, _):
            calls.append(x)
            return np.ones_like(x)

        def nan_below(x, _):
            return np.where(x < 0.5, np.nan, x - 0.7)

        def nan_above(x, _):
            return np.where(x > 0.9, np.nan, x - 0.7)

        for lo, hi, f in [(0.0, 1.0, nan_below), (0.0, 1.0, nan_above),
                          ([0.6, 0.0], [1.0, 1.0], nan_below)]:
            with pytest.raises(ValueError, match="NaN"):
                newton_bisect(f, slope, lo, hi)
        assert calls == []

    def test_nan_inside_a_bracket_refused_in_the_newton_stage(self):
        # the NaN at x0 has no sign to keep; taken as a sign change it would
        # move the hi end there and end on 0.10000000000000002, not a root
        def f(x, _):
            return np.where((x > 0.1) & (x < 0.3), np.nan, x - 0.7)

        with pytest.raises(ValueError, match="NaN inside a bracket"):
            newton_bisect(f, unit_slope, 0.0, 1.0, x0=0.2)

    def test_nan_inside_a_bracket_refused_in_the_halving_stage(self):
        # with a zero slope Newton stops after one step, at 0.75, and the
        # probes below it stay above 0.7, so the first NaN is met by a
        # halving, near 0.625; taken as a sign change it would end on
        # 0.6000000000000001
        def f(x, _):
            return np.where((x > 0.6) & (x < 0.65), np.nan, x - 0.7)

        with pytest.raises(ValueError, match="NaN inside a bracket"):
            newton_bisect(f, SLOPES["step"](0.7), 0.0, 1.0)

    @settings(max_examples=80, deadline=None)
    @given(shape=st.sampled_from(sorted(SHAPES)), brackets=_bracket_lists,
           start=st.one_of(st.none(), st.floats(-0.5, 1.5)))
    def test_f_and_fprime_see_each_open_bracket_once_per_call(self, shape, brackets, start):
        # the first call is f on the stacked ends of every bracket; every
        # later call of f or fprime takes one point per bracket it names,
        # inside that bracket
        r, below, above = (np.array(v) for v in zip(*brackets))
        lo, hi = r - below, r + above
        x0 = None if start is None else lo + start * (hi - lo)
        calls = []

        def recorded(g):
            def call(x, idx):
                calls.append((np.array(x), np.array(idx)))
                return g(x, idx)
            return call

        newton_bisect(recorded(per_bracket(shape, r)), recorded(SLOPES[shape](r)), lo, hi, x0)
        (ends, idx), *rest = calls
        assert same_floats(ends, np.stack([lo, hi])) and np.array_equal(idx, np.arange(r.size))
        for x, idx in rest:
            assert x.ndim == 1 and x.shape == idx.shape
            assert np.unique(idx).size == idx.size
            assert np.all((lo[idx] <= x) & (x <= hi[idx]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_unusable_derivative_falls_back_to_bisection(self, bad, shape):
        r = np.array([0.3, -2.0, 1.0 / 3.0, 4.0])
        lo, hi = np.array([-1.0, -5.0, 1.0 / 3.0, 0.0]), np.array([2.0, 3.0, 1.0, 4.0])
        got = newton_bisect(per_bracket(shape, r), lambda x, i: np.full(np.shape(x), bad), lo, hi)
        assert same_floats(got, bisect_oracle(SHAPES[shape](r), lo, hi))

    def test_scalar_ends_and_roots_at_the_ends(self):
        root = newton_bisect(lambda x, _: x * x - 2.0, lambda x, _: 2.0 * x, 0.0, 2.0)
        assert isinstance(root, float) and root == bisect_oracle(lambda x: x * x - 2.0, 0.0, 2.0)
        assert newton_bisect(lambda x, _: x - 1.0, unit_slope, 1.0, 2.0) == 1.0
        assert newton_bisect(lambda x, _: x - 2.0, unit_slope, 1.0, 2.0) == 2.0


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


def halves_tree_simpson(f, lo0, hi0, tol):
    """Reference level loop: each panel row its own array, children interleaved by np.stack.

    The same rule, f calls, budget and ToleranceNotMet text as
    numerics._adaptive_simpson, so integrate must agree with it bit for bit.
    """
    budget = max(numerics.QUAD_MAX_PANELS, lo0.size)
    lo, hi = lo0, hi0
    m = numerics._midpoint(lo, hi)
    flo, fm, fhi = np.split(np.asarray(f(np.concatenate([lo, m, hi])), dtype=float), 3)
    with np.errstate(invalid="ignore", over="ignore"):
        whole = (hi - lo) / 6.0 * (flo + 4.0 * fm + fhi)
        tol_abs = tol * (1.0 + np.abs(whole))
    wfloor = 1e-10 * (hi - lo)

    # children of split panel k sit at 2k (left half) and 2k + 1 (right half)
    def halves(x, y):
        return np.stack([x[split], y[split]], axis=1).ravel()

    levels = []
    for depth in range(numerics.QUAD_MAX_DEPTH + 1):
        lm, rm = numerics._midpoint(lo, m), numerics._midpoint(m, hi)
        flm, frm = np.split(np.asarray(f(np.concatenate([lm, rm])), dtype=float), 2)
        with np.errstate(invalid="ignore", over="ignore"):
            left = (m - lo) / 6.0 * (flo + 4.0 * flm + fm)
            right = (hi - m) / 6.0 * (fm + 4.0 * frm + fhi)
            err = left + right - whole
            value = left + right + err / 15.0
            done = (np.abs(err) <= 15.0 * tol_abs) | ((hi - lo <= wfloor) & np.isfinite(err))
        split = ~done
        levels.append((value, split))
        n_split = int(split.sum())
        if not n_split:
            break
        if depth < numerics.QUAD_MAX_DEPTH and 2 * n_split > budget and lo0.size > 1:
            levels.clear()
            half = lo0.size // 2
            return np.concatenate([halves_tree_simpson(f, lo0[:half], hi0[:half], tol),
                                   halves_tree_simpson(f, lo0[half:], hi0[half:], tol)])
        if depth == numerics.QUAD_MAX_DEPTH or 2 * n_split > budget:
            i = int(np.argmax(split))
            raise ToleranceNotMet(
                f"adaptive quadrature exceeded its budget of depth {numerics.QUAD_MAX_DEPTH} "
                f"or {budget} panels, at depth {depth} on [{lo[i]}, {hi[i]}]")
        lo, m, hi, flo, fm, fhi, whole = (
            halves(lo, m), halves(lm, rm), halves(m, hi), halves(flo, fm),
            halves(flm, frm), halves(fm, fhi), halves(left, right))
        tol_abs = np.repeat(0.5 * tol_abs[split], 2)
        wfloor = np.repeat(wfloor[split], 2)
    total = levels.pop()[0]
    while levels:
        value, split = levels.pop()
        with np.errstate(over="ignore"):
            value[split] = total[0::2] + total[1::2]
        total = value
    return total


# integrands for the level-loop property, each f(x) for a parameter r: a
# smooth one, fast oscillation, a jump (split to the width floor), and
# NaN, inf and overflowing values
INTEGRANDS = {
    "cubic": lambda r: lambda x: r + x * (1.0 - x * x),
    "sine": lambda r: lambda x: np.sin(1e3 * (x - r)),
    "step": lambda r: lambda x: np.where(x < r, 0.0, 1.0),
    "nan band": lambda r: lambda x: np.where(np.abs(x - r) < 0.5, np.nan, np.cos(x)),
    "pole": lambda r: lambda x: 1.0 / np.sqrt(np.abs(x - r)),
    "overflow": lambda r: lambda x: np.exp(800.0 * (x - r)),
}
# ends that often coincide with each other and with r, so poles and jumps
# sit on panel ends
_quad_points = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), _ends)


@st.composite
def level_loop_cases(draw):
    """(integrand, r, a, b, tol, panel budget); a and b may hold reversed and empty intervals."""
    a, b = [], []
    for x, y, kind in draw(st.lists(st.tuples(_quad_points, _quad_points,
                                              st.sampled_from(["forward", "reversed", "empty"])),
                                    min_size=1, max_size=10)):
        lo, hi = min(x, y), max(x, y)
        a.append({"forward": lo, "reversed": hi, "empty": lo}[kind])
        b.append({"forward": hi, "reversed": lo, "empty": lo}[kind])
    a, b = np.array(a), np.array(b)
    if draw(st.booleans()) and draw(st.booleans()):
        # ends past 2^1023, whose sums overflow: _midpoint halves them first
        a, b = 1.6e308 - 1e307 * np.abs(a), 1.6e308 - 1e307 * np.abs(b)
    budget = draw(st.sampled_from([2, 8, 64, numerics.QUAD_MAX_PANELS]))
    tols = [1e-3, 1e-10] + ([1e-300] if budget < numerics.QUAD_MAX_PANELS else [])
    return (draw(st.sampled_from(sorted(INTEGRANDS))), draw(_quad_points), a, b,
            draw(st.sampled_from(tols)), budget)


def gauss_legendre(f, a, b, panels=16, order=20):
    """int_a^b f on each interval: order-point Gauss-Legendre on equal panels."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, panels + 1)
    mid, half = 0.5 * (edges[:, 1:] + edges[:, :-1]), 0.5 * (edges[:, 1:] - edges[:, :-1])
    return np.sum(half[..., None] * weights * f(mid[..., None] + half[..., None] * nodes),
                  axis=(1, 2))


CLI_MASSES = [constant_mass(), rational_mass(1.5), rational_mass(2.0), rational_mass(3.0),
              exponential_well_mass(0.25), exponential_well_mass(0.5), exponential_well_mass(1.0)]


class TestIntegrate:
    @pytest.mark.parametrize("mass", CLI_MASSES, ids=lambda mass: mass.label)
    def test_travel_coordinate_cells_of_cli_grids_meet_the_acceptance_bound(self, mass):
        # the intervals masses.travel_coordinate integrates for a potential
        # or spectrum table: every cell of the 1201- and 2401-point [-12, 12]
        # grids and the anchor interval [-12, 0], at the CLI's tol.  A smooth
        # integrand whose first five samples miss its shape can pass the
        # first-level test far from its value; on these grids none does
        def f(t):
            return np.sqrt(2.0 * mass.require_positive(t))

        tol = cli.DEFAULT_TOLERANCES["quad"]
        for n in (1201, 2401):
            x = Grid(-12.0, 12.0, n).points
            a, b = np.append(x[:-1], x[0]), np.append(x[1:], 0.0)
            got = integrate(f, a, b, tol)
            assert np.all(np.abs(got - gauss_legendre(f, a, b)) <= 15.0 * tol * (1.0 + np.abs(got)))

    def test_monomial(self):
        assert integrate(lambda x: x * x, 0.0, 1.0, 1e-12) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_cubic_exact_at_design_degree(self):
        # Simpson integrates cubics exactly; antiderivative evaluated by hand
        val = integrate(lambda x: 3.0 * x ** 3 - 2.0 * x + 1.0, -1.0, 2.0, 1e-14)
        exact = (3.0 / 4.0) * (2.0 ** 4 - 1.0) - (2.0 ** 2 - 1.0) + 3.0
        assert val == pytest.approx(exact, rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(coeffs=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
           a=st.floats(-5.0, 5.0), b=st.floats(-5.0, 5.0), tol=st.sampled_from([1e-6, 1e-10]))
    def test_exact_on_random_cubics(self, coeffs, a, b, tol):
        # Simpson's rule is exact on cubics: only rounding is left, far
        # inside the acceptance rule tol * (1 + |integral|)
        c0, c1, c2, c3 = coeffs

        def antiderivative(x):
            return x * (c0 + x * (c1 / 2.0 + x * (c2 / 3.0 + x * c3 / 4.0)))

        exact = antiderivative(b) - antiderivative(a)
        got = integrate(lambda x: c0 + x * (c1 + x * (c2 + x * c3)), a, b, tol)
        assert abs(got - exact) <= tol * (1.0 + abs(exact))

    @settings(max_examples=60, deadline=None)
    @given(coeffs=st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6),
           ends=st.lists(_ends, min_size=3, max_size=3), tol=st.sampled_from([1e-6, 1e-10]))
    def test_additive_under_splitting(self, coeffs, ends, tol):
        # a panel's value, Simpson plus its error over 15, is Boole's rule,
        # exact on quintics whether the panel is accepted or split.  On a
        # smooth f whose five first samples miss its shape (tanh or a
        # gaussian far from the middle, sin over a few periods) the
        # acceptance test passes too early and the sums differ by far more
        a, c, b = sorted(ends)
        parts = integrate(lambda x: sum(ck * x ** k for k, ck in enumerate(coeffs)),
                          np.array([a, c, a]), np.array([c, b, b]), tol)
        assert abs(parts[0] + parts[1] - parts[2]) <= tol * (3.0 + np.abs(parts).sum())

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

    @pytest.mark.parametrize("a, b", [(-1e308, 1e308), (1.7e308, -1.7e308),
                                      (np.array([0.0, -1e308]), np.array([1.0, 1e308]))],
                             ids=["forward", "reversed", "batched"])
    def test_interval_wider_than_the_double_range_rejected_before_f_is_called(self, a, b):
        # its width, and the width floor 1e-10 of it, overflow to inf: the
        # rule used to return -inf with an overflow warning, for an
        # integral of cos bounded by 2
        calls = []

        def f(x):
            calls.append(x)
            return np.cos(x)

        with pytest.raises(ValueError, match="wider than the double range"):
            integrate(f, a, b, 1e-10)
        assert calls == []

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
    def test_tol_not_positive_and_finite_rejected_before_f_is_called(self, tol):
        # a nan tol fails every acceptance test, so refinement would run to
        # the depth budget and end in ToleranceNotMet
        calls = []

        def f(x):
            calls.append(x)
            return np.sin(x)

        with pytest.raises(ValueError, match="positive and finite"):
            integrate(f, 0.0, 1.0, tol)
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

    def test_batch_past_the_panel_budget_gets_each_value_alone(self):
        # exp converges in three levels alone; 40,000 copies split their
        # first level into 80,000 panels, past the 65,536 budget, so the
        # batch is integrated in halves that each fit it
        n = 40_000
        assert 2 * n > numerics.QUAD_MAX_PANELS
        alone = integrate(np.exp, 0.0, 1.0, 1e-6)
        together = integrate(np.exp, np.zeros(n), np.ones(n), 1e-6)
        assert np.all(together == alone)

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

    @settings(max_examples=150, deadline=None)
    @given(case=level_loop_cases())
    def test_level_loop_equals_the_halves_tree(self, case):
        # the same f calls on the same floats under the same error state,
        # and the same values or the same ToleranceNotMet, at any budget
        name, r, a, b, tol, budget = case
        g = INTEGRANDS[name](r)
        runs = []
        for simpson in (numerics._adaptive_simpson, halves_tree_simpson):
            calls = []

            def f(x):
                calls.append((x.copy(), np.geterr()))
                with np.errstate(all="ignore"):
                    return g(x)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(numerics, "QUAD_MAX_PANELS", budget)
                mp.setattr(numerics, "_adaptive_simpson", simpson)
                try:
                    out = integrate(f, a, b, tol)
                except ToleranceNotMet as exc:
                    out = str(exc)
            runs.append((out, calls))
        (got, got_calls), (want, want_calls) = runs
        assert type(got) is type(want)
        assert got == want if isinstance(want, str) else same_floats(got, want)
        assert len(got_calls) == len(want_calls)
        for (x, state), (y, want_state) in zip(got_calls, want_calls):
            assert same_floats(x, y) and state == want_state


class TestDerivative:
    def test_first_order(self):
        assert derivative(np.sin, 0.0, 1e-2) == pytest.approx(1.0, abs=1e-9)

    def test_tanh_squared(self):
        # oracle: d/dx tanh^2 = 2 tanh sech^2
        x = 0.7
        expected = 2.0 * math.tanh(x) / math.cosh(x) ** 2
        assert derivative(lambda t: np.tanh(t) ** 2, x, 1e-2) == pytest.approx(
            expected, abs=1e-9)

    def test_vectorised(self):
        x = np.linspace(-1.0, 1.0, 7)
        got = derivative(np.sin, x, 1e-2)
        assert np.allclose(got, np.cos(x), atol=1e-9)

    def test_array_x_calls_f_once(self):
        x = np.linspace(-1.0, 1.0, 7)
        h = 1e-2
        shapes = []

        def counted_sin(t):
            shapes.append(np.shape(t))
            return np.sin(t)

        got = derivative(counted_sin, x, h)
        # the four shifted copies of x, stacked along a new leading axis
        assert shapes == [(4, x.size)]

        def d(s):
            return (np.sin(x + s) - np.sin(x - s)) / (2.0 * s)

        assert np.array_equal(got, (4.0 * d(0.5 * h) - d(h)) / 3.0)

    @pytest.mark.parametrize("h", [math.nan, math.inf, 0.0, -1e-2])
    def test_step_not_positive_and_finite_rejected_before_f_is_called(self, h):
        # a nan step would give a nan derivative without an error
        calls = []

        def f(x):
            calls.append(x)
            return np.sin(x)

        with pytest.raises(ValueError, match="positive and finite"):
            derivative(f, 0.5, h)
        assert calls == []


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
        with pytest.raises(ValueError, match="offdiagonal length"):
            TridiagonalSymmetric(np.zeros(4), np.zeros(4))

    def test_single_entry(self):
        t = TridiagonalSymmetric(np.array([5.0]), np.zeros(0))
        assert np.allclose(lowest_eigenvalues([t], 1), [[5.0]])

    def test_two_by_two(self):
        t = TridiagonalSymmetric(np.array([0.0, 0.0]), np.array([1.0]))
        assert np.allclose(lowest_eigenvalues([t], 2), [[-1.0, 1.0]], atol=1e-10)

    def test_k_bounds(self):
        t = TridiagonalSymmetric(np.array([0.0, 0.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="outside 1..2"):
            lowest_eigenvalues([t], 3)


def dirichlet_laplacian(n: int, h: float) -> TridiagonalSymmetric:
    return TridiagonalSymmetric(np.full(n, 2.0 / h ** 2), np.full(n - 1, -1.0 / h ** 2))


def dense_matrix(t: TridiagonalSymmetric) -> np.ndarray:
    return np.diag(t.diagonal) + np.diag(t.offdiagonal, 1) + np.diag(t.offdiagonal, -1)


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

    @pytest.mark.parametrize("n", [100, 755, 2399])
    def test_laplacian_levels_lie_within_the_certificate_delta(self, n):
        # dstebz bisects to EIG_ATOL, but its Sturm counts round by about
        # eps ||T||: at 2399 rows (||T|| = 2.3e7) it is off by 4.5e-10, which
        # the certificate's delta allows and EIG_ATOL does not
        h = 1.0 / (n + 1)
        t = dirichlet_laplacian(n, h)
        got, = lowest_eigenvalues([t], 6)
        exact = (4.0 / h ** 2) * np.sin(np.arange(1, 7) * math.pi * h / 2.0) ** 2
        assert np.max(np.abs(got - exact)) <= certificate_delta(t)

    def test_against_dense_solver(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = int(rng.integers(5, 40))
            t = TridiagonalSymmetric(rng.normal(size=n), rng.normal(size=n - 1))
            got, = lowest_eigenvalues([t], min(4, n))
            dense = np.sort(np.linalg.eigvalsh(dense_matrix(t)))[: min(4, n)]
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
        dense = np.linalg.eigvalsh(dense_matrix(t))[:6]
        assert np.max(np.abs(got - dense)) < 1e-10
        assert got[0] == pytest.approx(got[1], abs=1e-10)

    def test_large_norm_matches_dense(self):
        # the certificate margin scales with ||T||: a flat 1e-10 would be
        # below the rounding of the Sturm count at ||T|| ~ 1e7
        rng = np.random.default_rng(17)
        n = 300
        t = TridiagonalSymmetric(1e7 * rng.normal(size=n), 1e7 * rng.normal(size=n - 1))
        got, = lowest_eigenvalues([t], 8)
        dense = np.linalg.eigvalsh(dense_matrix(t))[:8]
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

    @pytest.mark.parametrize("argv, solves", [
        (["spectrum", "--gamma=0.8", "--j=2", "--mass=rational:2", "--grid=-12,12,301"], 2),
        (["verify", "--seed=0"], 5),
    ], ids=["spectrum", "verify"])
    def test_refined_twins_skip_bisection(self, capsys, argv, solves):
        # spectrum: one coarse grid for each of two masses, each seeding its
        # refined twin; verify: the 499-row box seeds the 999-row one, which
        # seeds the 1999-row one, and the coarse oscillator seeds the fine
        # one, beside the shifted box and verify_spectrum's two coarse grids
        with counted_lapack() as calls:
            assert cli.main(argv) == 0
        capsys.readouterr()
        # half of the 4 and 10 matrices are refined twins
        assert calls == {"dstebz": solves, "dstein": solves}

    @pytest.mark.parametrize("kind", ["certificate", "missing"])
    def test_lapack_faults_raise(self, kind, break_dstebz):
        break_dstebz(kind)
        with pytest.raises(EigensolverFailure):
            lowest_eigenvalues([dirichlet_laplacian(50, 0.1)], 3)
        if kind == "missing":
            # lowest_eigenvalues stops at dstebz; the count resolves dlaebz
            with pytest.raises(EigensolverFailure, match="LAPACK dlaebz not found"):
                sturm_count([dirichlet_laplacian(50, 0.1)], [0.0])


def sturm_count_one(matrix: TridiagonalSymmetric, lam, shift_first=False) -> np.ndarray:
    """Reference: the LDL^T Sturm count of one matrix, one row at a time.

    Each pivot is (d_i - e_{i-1}^2 / q) - lam, in LAPACK dlaebz's order,
    or (d_i - lam) - e_{i-1}^2 / q with shift_first.  Couplings of 2^500
    and above are scaled, with the shifts, by the power of two
    sturm_count uses, so their squares stay finite.
    """
    top = float(np.abs(matrix.offdiagonal).max()) if matrix.size > 1 else 0.0
    scale = 2.0 ** min(0, 500 - math.frexp(top)[1])
    d = scale * matrix.diagonal
    e2 = (scale * matrix.offdiagonal) ** 2
    lam = scale * np.asarray(lam, dtype=float)
    pivmin = max(float(e2.max()) if e2.size else 1.0, 1.0) * 2.3e-308
    q = d[0] - lam
    count = np.zeros(q.shape, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(d.size):
            if i:
                q = (d[i] - lam) - e2[i - 1] / q if shift_first else d[i] - e2[i - 1] / q - lam
            # as in LAPACK dlaebz: a pivot below pivmin is -pivmin, and counted so
            q = np.where(np.abs(q) < pivmin, -pivmin, q)
            count += q <= 0.0
    return count


@st.composite
def graded_batches(draw):
    """1-4 matrices of 1-300 rows and the shifts of one sturm_count call over them.

    Entries are signed powers of ten whose exponents span up to 1e-300 to
    1e300, with some exactly zero.  Couplings reach below sqrt(pivmin), so
    their squares fall under pivmin, and above sqrt(DBL_MAX), so their
    squares would overflow.  Shifts mix +-inf, zero, graded values
    and diagonal entries, which make exact zero pivots.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def graded(size, lo, hi):
        values = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(lo, hi, size)
        values[rng.random(size) < draw(st.sampled_from([0.0, 0.2, 0.9]))] = 0.0
        return values

    def exponents(lo, hi):
        a, b = draw(st.integers(lo, hi)), draw(st.integers(lo, hi))
        return min(a, b), max(a, b)

    matrices = []
    for n in draw(st.lists(st.integers(1, 300), min_size=1, max_size=4)):
        matrices.append(TridiagonalSymmetric(graded(n, *exponents(-300, 300)),
                                             graded(n - 1, *exponents(-300, 300))))
    pool = np.concatenate([[-np.inf, np.inf, 0.0], graded(4, *exponents(-300, 300)),
                           *(m.diagonal[:3] for m in matrices)])
    n_shifts = draw(st.integers(1, 8))
    shape = (len(matrices), n_shifts) if draw(st.booleans()) else (n_shifts,)
    return matrices, rng.choice(pool, shape)


class TestBatchedCertificate:
    @settings(max_examples=60, deadline=None)
    @given(batch=graded_batches())
    def test_sweep_equals_the_one_matrix_oracle(self, batch):
        matrices, shifts = batch
        got = sturm_count(matrices, shifts)
        rows = np.broadcast_to(shifts, got.shape)
        for matrix, row, counts in zip(matrices, rows, got):
            assert counts.tolist() == sturm_count_one(matrix, row).tolist()

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

    # an odd count takes a spare shift; 3000 shifts make 1500 dlaebz intervals
    @pytest.mark.parametrize("n_shifts", [9, 3000])
    def test_each_matrix_its_own_shifts(self, n_shifts):
        matrices = self.matrices()
        rng = np.random.default_rng(29)
        shifts = rng.normal(scale=2.0, size=(5, n_shifts))
        got = sturm_count(matrices, shifts)
        for matrix, row, counts in zip(matrices, shifts, got):
            assert counts.tolist() == sturm_count_one(matrix, row).tolist()

    def test_counts_off_ties_equal_the_shift_first_recurrence(self):
        # the two orders of a pivot's operations round apart only where a
        # shift sits on a rounding tie; random shifts, and the certificate's
        # E +- delta, sit on none
        rng = np.random.default_rng(41)
        for n in rng.integers(1, 300, size=400):
            matrix = TridiagonalSymmetric(rng.normal(size=n), rng.normal(size=n - 1))
            dense = dense_matrix(matrix)
            levels = np.linalg.eigvalsh(dense)[:4]
            delta = max(numerics.EIG_ATOL,
                        8.0 * np.finfo(float).eps * np.abs(dense).sum(axis=1).max())
            lam = np.concatenate([rng.normal(scale=2.0, size=9), levels - delta, levels + delta])
            assert (sturm_count([matrix], lam)[0].tolist()
                    == sturm_count_one(matrix, lam, shift_first=True).tolist())

    def test_pivot_below_pivmin_counts_as_the_negative_it_is_taken_for(self):
        # eigenvalues -1 and 1; the next row divides by -pivmin, so the
        # first pivot, 1e-310 at the shift 0, counts as negative too
        t = TridiagonalSymmetric(np.array([1e-310, 0.0]), np.ones(1))
        assert sturm_count([t], [0.0]).tolist() == [[1]]
        assert sturm_count_one(t, [0.0]).tolist() == [1]

    def test_couplings_whose_squares_overflow(self):
        # eigenvalues -1e200 and 1e200: 1e200 squared is past DBL_MAX
        t = TridiagonalSymmetric(np.zeros(2), np.array([1e200]))
        shifts = [-1e300, -1.0, 0.5, 1e300]
        assert sturm_count([t], shifts).tolist() == [[0, 1, 1, 2]]
        assert sturm_count_one(t, shifts).tolist() == [0, 1, 1, 2]

    @pytest.mark.parametrize("power", [300, 511, 512, 700, 1000])
    def test_counts_do_not_change_under_scaling_by_a_power_of_two(self, power):
        rng = np.random.default_rng(power)
        t = TridiagonalSymmetric(rng.normal(size=200), rng.normal(size=199))
        shifts = np.linspace(-3.0, 3.0, 61)
        big = TridiagonalSymmetric(np.ldexp(t.diagonal, power), np.ldexp(t.offdiagonal, power))
        expected = sturm_count([t], shifts)
        assert np.array_equal(sturm_count([big, t], np.ldexp(shifts, power))[0], expected[0])
        assert expected[0, -1] == 200 - np.sum(np.linalg.eigvalsh(dense_matrix(t)) >= 3.0)

    BIG = TridiagonalSymmetric(np.random.default_rng(31).normal(size=2399),
                               np.random.default_rng(37).normal(size=2398))

    # a zero or tiny pivot planted at the first, last and middle rows of
    # matrices of 1 to 130 rows, alone and beside a longer matrix
    @pytest.mark.parametrize("batched", [False, True], ids=["alone", "batched"])
    @pytest.mark.parametrize("pivot", [0.0, 1e-310], ids=["zero", "tiny"])
    @pytest.mark.parametrize("n, row", [
        (n, row) for n in (1, 63, 64, 65, 130) for row in sorted({0, 63, 64, 65, n - 1})
        if row < n])
    def test_planted_pivot_at_a_block_edge(self, n, row, pivot, batched):
        # a zero coupling into the row makes its pivot at the shift 0 the
        # diagonal entry itself; the coupling out of it stays, so the next
        # row divides by the replaced pivot
        rng = np.random.default_rng(n * 1000 + row)
        d, e = rng.normal(size=n), rng.normal(size=n - 1)
        d[row] = pivot
        if row:
            e[row - 1] = 0.0
        planted = TridiagonalSymmetric(d, e)
        shifts = [0.0, -0.5, 0.5]
        matrices = [planted, self.BIG] if batched else [planted]
        got = sturm_count(matrices, shifts)
        assert got[0].tolist() == sturm_count_one(planted, shifts).tolist()
        if batched:
            assert got[1].tolist() == sturm_count_one(self.BIG, shifts).tolist()

    def test_every_other_pivot_zero_across_blocks(self):
        # 65 blocks [[0, 1], [1, 0]] on the diagonal: at the shift 0 every
        # even row's pivot is exactly zero, and each block has one
        # eigenvalue, -1, below it
        e = np.zeros(129)
        e[::2] = 1.0
        t = TridiagonalSymmetric(np.zeros(130), e)
        assert sturm_count([t, self.BIG], [0.0])[0].tolist() == [65]
        assert sturm_count_one(t, [0.0]).tolist() == [65]

    def test_levels_of_every_matrix(self):
        matrices = self.matrices()
        got = lowest_eigenvalues(matrices, 1)
        dense = [np.linalg.eigvalsh(dense_matrix(m))[:1] for m in matrices]
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


class TestCertificateLevels:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           sizes=st.lists(st.integers(1, 120), min_size=1, max_size=4),
           k=st.integers(1, 120))
    def test_levels_within_delta_of_dense_on_well_scaled_batches(self, seed, sizes, k):
        rng = np.random.default_rng(seed)
        matrices = []
        for n in sizes:
            scale = 10.0 ** rng.uniform(-2, 2)
            matrices.append(TridiagonalSymmetric(scale * rng.normal(size=n),
                                                 scale * rng.normal(size=n - 1)))
        k = min(k, *sizes)
        got = lowest_eigenvalues(matrices, k)
        for matrix, levels in zip(matrices, got):
            radius = np.abs(dense_matrix(matrix)).sum(axis=1).max()
            delta = max(numerics.EIG_ATOL, 8.0 * np.finfo(float).eps * radius)
            dense = np.linalg.eigvalsh(dense_matrix(matrix))[:k]
            assert np.max(np.abs(levels - dense)) <= delta

    @settings(max_examples=60, deadline=None)
    @given(batch=graded_batches(), k=st.integers(1, 300))
    def test_graded_batches_give_levels_or_refuse(self, batch, k):
        matrices, _ = batch
        k = min(k, *(m.size for m in matrices))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                got = lowest_eigenvalues(matrices, k)
            except EigensolverFailure:
                return
        assert got.shape == (len(matrices), k)


def certificate_delta(m: TridiagonalSymmetric) -> float:
    """max(EIG_ATOL, 8 eps ||T||), ||T|| the Gershgorin bound: EIG_ATOL up to ||T|| = 5.6e4."""
    e = np.abs(m.offdiagonal)
    radius = np.abs(m.diagonal) + np.r_[0.0, e] + np.r_[e, 0.0]
    return max(EIG_ATOL, 8.0 * np.finfo(float).eps * float(radius.max()))


def certificate_passes(matrices, levels) -> bool:
    """The certificate lowest_eigenvalues applies, recomputed from its docstring."""
    k = levels.shape[1]
    delta = np.array([[certificate_delta(m)] for m in matrices])
    counts = sturm_count(matrices, np.concatenate([levels - delta, levels + delta], axis=1))
    index = np.arange(1, k + 1)
    return bool(np.all(counts[:, :k] <= index - 1) and np.all(counts[:, k:] >= index))


class counted_lapack:
    """Count dstebz and dstein calls inside a with block (hypothesis takes no monkeypatch)."""

    def __enter__(self):
        self.calls = {"dstebz": 0, "dstein": 0}
        self.saved = {}
        for name in self.calls:
            real = getattr(numerics, f"_{name}")
            self.saved[name] = real

            def counted(*args, name=name, fn=real()):
                self.calls[name] += 1
                return fn(*args)

            setattr(numerics, f"_{name}", lambda counted=counted: counted)
        return self.calls

    def __exit__(self, *exc):
        for name, real in self.saved.items():
            setattr(numerics, f"_{name}", real)


@st.composite
def von_roos_twins(draw):
    """A von Roos matrix on a grid, the one on its refined() twin, and a level count."""
    mass = draw(st.one_of(st.just(constant_mass()), st.floats(0.2, 3.0).map(rational_mass),
                          st.floats(0.1, 1.0).map(exponential_well_mass)))
    ordering = OrderingParams(draw(st.floats(-1.0, 0.5)), draw(st.floats(-1.0, 0.5)))
    a, b, c = draw(st.floats(0.05, 2.0)), draw(st.floats(-3.0, 3.0)), draw(st.floats(0.2, 3.0))
    half = draw(st.floats(3.0, 12.0))
    grid = Grid(-half, half, draw(st.integers(41, 601)))
    twins = [pdmsolver.assemble_hamiltonian(mass, 0.5 * a * g.points ** 2 + b * np.sin(c * g.points),
                                            ordering, g) for g in (grid, grid.refined())]
    return twins, draw(st.integers(1, 6))


@st.composite
def laplacian_twins(draw):
    """Dirichlet Laplacians on (0, 1) with n and 2n + 1 interior nodes, and a level count."""
    n = draw(st.integers(3, 400))
    return [dirichlet_laplacian(n, 1.0 / (n + 1)), dirichlet_laplacian(2 * n + 1, 0.5 / (n + 1))], \
        draw(st.integers(1, min(6, n - 1)))


class TestSeededLevels:
    """lowest_eigenvalues' inverse-iteration route against its bisection route."""

    @settings(max_examples=60, deadline=None)
    @given(case=st.one_of(von_roos_twins(), laplacian_twins()))
    def test_refined_twin_gives_the_unseeded_levels(self, case):
        twins, k = case
        plain = lowest_eigenvalues(twins, k)
        with counted_lapack() as calls:
            seeded = lowest_eigenvalues(twins, k, seeds_from=(None, 0))
        assert np.array_equal(seeded[0], plain[0])
        # each route puts every level within delta of the matrix's own
        assert certificate_passes(twins, plain) and certificate_passes(twins, seeded)
        gap = np.max(np.abs(seeded[1] - plain[1]))
        delta = certificate_delta(twins[1])
        assert gap <= 2.0 * delta
        # a seed much nearer its level than any other level always serves,
        # since each inverse-iteration step cuts the vector's other
        # components by at least that ratio, and then the two routes agree
        # to delta: EIG_ATOL, unless bisection's own counts, which round by
        # about eps ||T||, pass it (the finest Laplacians); one level more
        # gives the gap above the last
        wide = lowest_eigenvalues(twins, k + 1)
        if np.max(np.abs(wide[0] - wide[1])) < 1e-3 * np.min(np.diff(wide[1])):
            assert calls == {"dstebz": 1, "dstein": 1}
            assert gap <= delta

    def test_laplacian_twin_matches_its_closed_form(self):
        # lambda_j = (4/h^2) sin^2(j pi / (2 (n + 1))) on n interior nodes of
        # (0, 24): the CLI's spacings, 0.02 and 0.01 on 1199 and 2399 rows
        twins = [dirichlet_laplacian(1199, 0.02), dirichlet_laplacian(2399, 0.01)]
        with counted_lapack() as calls:
            got = lowest_eigenvalues(twins, 6, seeds_from=(None, 0))
        assert calls == {"dstebz": 1, "dstein": 1}
        exact = 4e4 * np.sin(np.arange(1, 7) * math.pi / 4800.0) ** 2
        assert np.max(np.abs(got[1] - exact)) <= EIG_ATOL

    @pytest.mark.parametrize("seeds_from, match", [
        ((None,), "1 seed rows for 2 matrices"),
        ((None, 1), "matrix 2 of 2 is seeded from row 1"),
        ((0, None), "matrix 1 of 2 is seeded from row 0"),
    ])
    def test_seed_rows_must_be_earlier(self, seeds_from, match):
        twins = [dirichlet_laplacian(20, 0.1), dirichlet_laplacian(41, 0.05)]
        with pytest.raises(ValueError, match=match):
            lowest_eigenvalues(twins, 2, seeds_from=seeds_from)


def box_and_oscillator():
    unit = constant_mass()
    box, osc = Grid(0.0, 1.0, 501), Grid(-10.0, 10.0, 1001)
    return [pdmsolver.assemble_hamiltonian(unit, np.zeros(box.n_points), BEN_DANIEL_DUKE, box),
            pdmsolver.assemble_hamiltonian(unit, 0.5 * osc.points ** 2, BEN_DANIEL_DUKE, osc)]


def big_couplings():
    # couplings near 2^500 cannot be squared by sturm_count without scaling;
    # dstein returns info 0 on them, but with vectors that overflow
    rng = np.random.default_rng(41)
    d, e = 2.0 ** 500 * rng.normal(size=50), 2.0 ** 500 * rng.normal(size=49)
    return [TridiagonalSymmetric(d, e), TridiagonalSymmetric(d * (1.0 + 1e-9), e)]


class TestSeededFallback:
    """Every seed that inverse iteration cannot serve gives exactly dstebz's levels."""

    @pytest.mark.parametrize("seeds", [[np.nan, 1.0, 2.0], [1.0, 0.5, 2.0], [1.0, 1.0, 2.0]],
                             ids=["nan", "descending", "repeated"])
    def test_seeds_not_finite_and_ascending(self, monkeypatch, seeds):
        twins = [dirichlet_laplacian(50, 0.1), dirichlet_laplacian(101, 0.05)]
        real = numerics._seeded_levels
        monkeypatch.setattr(numerics, "_seeded_levels",
                            lambda matrix, _: real(matrix, np.array(seeds)))
        with counted_lapack() as calls:
            got = lowest_eigenvalues(twins, 3, seeds_from=(None, 0))
        assert calls == {"dstebz": 2, "dstein": 0}
        assert np.array_equal(got, lowest_eigenvalues(twins, 3))

    @pytest.mark.parametrize("matrices, sweeps", [(box_and_oscillator(), [2, 1]),
                                                  (big_couplings(), [2])],
                             ids=["box-seeds-oscillator", "couplings-2^500"])
    def test_seeds_rejected(self, monkeypatch, matrices, sweeps):
        # inverse iteration at the box's levels finds oscillator levels near
        # them, not its lowest, so the certificate sends the oscillator to
        # dstebz and a second sweep; on couplings near 2^500 a quotient is
        # not finite, which sends the twin to dstebz before any sweep
        counts = []

        def counted(matrices, shifts):
            counts.append(len(matrices))
            return sturm_count(matrices, shifts)

        monkeypatch.setattr(numerics, "sturm_count", counted)
        with counted_lapack() as calls:
            got = lowest_eigenvalues(matrices, 3, seeds_from=(None, 0))
        assert calls == {"dstebz": 2, "dstein": 1} and counts == sweeps
        assert np.array_equal(got, lowest_eigenvalues(matrices, 3))

    def test_dstein_error(self, break_dstebz):
        twins = [dirichlet_laplacian(50, 0.1), dirichlet_laplacian(101, 0.05)]
        want = lowest_eigenvalues(twins, 3)
        break_dstebz("dstein")
        assert np.array_equal(lowest_eigenvalues(twins, 3, seeds_from=(None, 0)), want)

    def test_missing_dstein_raises(self, break_dstebz):
        twins = [dirichlet_laplacian(50, 0.1), dirichlet_laplacian(101, 0.05)]
        break_dstebz("no-dstein")
        assert lowest_eigenvalues(twins, 3).shape == (2, 3)
        with pytest.raises(EigensolverFailure, match="LAPACK dstein not found"):
            lowest_eigenvalues(twins, 3, seeds_from=(None, 0))

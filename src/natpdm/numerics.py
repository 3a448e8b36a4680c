"""Self-contained numerical kernel used by every other module.

Provides the Newton-bisection root finder and adaptive Simpson
quadrature, both over arrays of brackets or intervals with one
vectorised f call per step, a Richardson-extrapolated central first
derivative, fourth-order grid stencils, and an eigensolver for real
symmetric tridiagonal matrices: LAPACK bisection (dstebz), or inverse
iteration (dstein) from the levels of a coarser twin, whose levels, for
every matrix of one call, are certified by LAPACK's Sturm sign count
(dlaebz), all reached through ctypes in the LAPACK that numpy.linalg
already links, so no extra dependency.

All operations are pure: inputs are never mutated and the only module
state is four caches of constants (stencil weights and the three
resolved LAPACK routines, dstebz, dstein and dlaebz), so concurrent
callers are safe.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "Grid",
    "TridiagonalSymmetric",
    "ToleranceNotMet",
    "EigensolverFailure",
    "newton_bisect",
    "integrate",
    "derivative",
    "grid_derivative",
    "sturm_count",
    "lowest_eigenvalues",
    "QUAD_MAX_DEPTH",
    "QUAD_MAX_PANELS",
    "EIG_ATOL",
]

QUAD_MAX_DEPTH = 40
# panels one refinement level may hold, unless the intervals themselves
# are more: it bounds the memory of a rule that cannot converge (a
# non-finite integrand, or a tol below double rounding); tracemalloc
# measures a 16.8 MiB peak for 4096 intervals of sin(1e3 t) at tol 1e-300
QUAD_MAX_PANELS = 2 ** 16
# the absolute tolerance dstebz bisects each level to, and the floor of the
# certificate's delta = max(EIG_ATOL, 8 eps ||T||); past ||T|| = 5.6e4 the
# rounding of bisection's own Sturm counts passes EIG_ATOL (4.5e-10 on a
# 2399-row Dirichlet Laplacian, ||T|| = 2.3e7), and delta is what holds
EIG_ATOL = 1e-10

_EPS = float(np.finfo(float).eps)
# newton_bisect's freeze rule, step cap and probe count
_FREEZE, _NEWTON_STEPS, _PROBES = 2.0 ** -26, 64, 5


class ToleranceNotMet(RuntimeError):
    """Adaptive refinement exhausted its depth or panel budget."""


class EigensolverFailure(RuntimeError):
    """LAPACK bisection failed, or a level failed its Sturm certificate."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [x_min, x_max] with both endpoints included."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not self.x_min < self.x_max:
            raise ValueError(f"x_min must be below x_max, got [{self.x_min}, {self.x_max}]")
        if self.n_points < 3:
            raise ValueError(f"need at least 3 points, got {self.n_points}")
        # a width that overflows, or a spacing that underflows, leaves no grid
        if not 0.0 < self.spacing < math.inf:
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    @property
    def midpoints(self) -> np.ndarray:
        p = self.points
        return _midpoint(p[:-1], p[1:])

    def refined(self) -> "Grid":
        """Same interval with exactly half the spacing (nodes are nested)."""
        return Grid(self.x_min, self.x_max, 2 * self.n_points - 1)


@dataclass(frozen=True)
class TridiagonalSymmetric:
    """Real symmetric tridiagonal matrix stored as two vectors.

    One off-diagonal vector represents both the super- and sub-diagonal,
    so the matrix is symmetric by construction and its eigenvalues are
    real.
    """

    diagonal: np.ndarray
    offdiagonal: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.diagonal, dtype=float)
        e = np.asarray(self.offdiagonal, dtype=float)
        if d.ndim != 1 or e.ndim != 1:
            raise ValueError("diagonal and offdiagonal must be 1-d")
        if d.size < 1:
            raise ValueError("empty diagonal")
        if e.size != d.size - 1:
            raise ValueError(f"offdiagonal length {e.size} != diagonal length {d.size} - 1")
        object.__setattr__(self, "diagonal", d)
        object.__setattr__(self, "offdiagonal", e)

    @property
    def size(self) -> int:
        return self.diagonal.size


def _midpoint(lo, hi):
    """0.5 (lo + hi), or 0.5 lo + 0.5 hi where that sum overflows.

    Wherever the sum is finite the result is the plain midpoint, bit for
    bit (halving first would round differently among subnormals); two
    finite ends near the double range still give a finite midpoint.
    """
    with np.errstate(over="ignore"):
        mid = 0.5 * (lo + hi)
    over = np.isinf(mid)
    if np.any(over):
        mid = np.where(over, 0.5 * lo + 0.5 * hi, mid)
    return mid


def _midpoint_within(lo, hi) -> Callable:
    """A midpoint function for points in [lo, hi]: 0.5 (a + b) where it cannot overflow.

    Below 2^1023 no two such points sum past the double range, and there
    0.5 (a + b) is the midpoint _midpoint takes; otherwise _midpoint.
    """
    if np.any(np.abs(np.concatenate([lo, hi])) >= 2.0 ** 1023):
        return _midpoint
    return lambda a, b: 0.5 * (a + b)


def newton_bisect(f: Callable, fprime: Callable, lo, hi, x0=None):
    """Root of f in every bracket [lo, hi] by Newton's method, safeguarded by bisection.

    f(x, idx) is f at x for the brackets idx of the flattened ends (column
    k of x is bracket idx[k]), fprime(x, idx) its derivative.  Each result
    is the upper end of an adjacent-float sign change under the keep rule:
    f has its sign at lo on the float below the result, not at the result,
    so rising and falling f are alike and a root at an end is returned
    exactly.  Where f's signs on the floats change once, it is the float
    one halving per f call reaches (rtsafe, Numerical Recipes 9.4).  Each
    point runs on its own, so it ends on the same float in any batch:
      - Newton from x0, by default the bracket's midpoint; a step that is
        not finite (a zero or non-finite f') or leaves the bracket tracked
        so far is a bisection step.  It stops after a step below _FREEZE
        |x|, once its steps stop shrinking faster each time, the first by
        half (rounding noise, or worse than quadratic), or _NEWTON_STEPS;
      - f at its last iterate, then up to _PROBES probes 1, 2, 8, 64 and
        1024 floats from it towards the sign change, until one passes it,
        and _halve on what is left of its bracket.
    A value of f strictly inside a bracket moves one of its ends there
    under the keep rule, so the ends keep their signs; f and fprime see
    only open brackets.  Scalar ends give a float.  Raises ValueError for
    lo > hi before f is called, for ends where f shares a sign or is NaN
    before fprime is called, and where f is NaN strictly inside a bracket.
    """
    lo, hi, side, shape = _brackets(f, lo, hi)
    x0 = np.broadcast_to(np.nan if x0 is None else x0, shape).ravel()
    x = np.where((lo < x0) & (x0 < hi), x0, 0.5 * lo + 0.5 * hi)
    # Newton on copies of the open brackets; a point that stops writes them back
    idx = np.flatnonzero(lo < hi)
    l, h, sd, v, last, rate = lo[idx], hi[idx], side[idx], x[idx], np.inf, 0.5
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_STEPS):
            if not idx.size:
                break
            fv = f(v, idx)
            l, h = _narrowed(l, h, sd, v, fv)
            s = fv / fprime(v, idx)
            xn = v - s  # a root at v itself stays there
            xn = np.where(((l < xn) & (xn < h)) | (xn == v), xn, 0.5 * l + 0.5 * h)
            s = np.abs(s)
            ratio = s / last  # 0 at the first step, which sets no rate
            go = (s > _FREEZE * np.abs(xn)) & (ratio < rate)
            rate = np.where(ratio > 0.0, ratio, 0.5)
            stop = idx[~go]
            lo[stop], hi[stop], x[stop] = l[~go], h[~go], xn[~go]
            idx, l, h, sd, v, last, rate = idx[go], l[go], h[go], sd[go], xn[go], s[go], rate[go]
        lo[idx], hi[idx], x[idx] = l, h, v
        idx = np.flatnonzero(lo < hi)
        v = x[idx]
        lo[idx], hi[idx] = _narrowed(lo[idx], hi[idx], side[idx], v, f(v, idx))
        # f kept the lo end's sign at v: the sign change lies above it
        p = np.nextafter(v, np.where(v <= lo[idx], np.inf, -np.inf))
        for k in range(_PROBES):
            inside = (lo[idx] < p) & (p < hi[idx])
            idx, v, p = idx[inside], v[inside], p[inside]
            if not idx.size:
                break
            lo[idx], hi[idx] = _narrowed(lo[idx], hi[idx], side[idx], p, f(p, idx))
            p = v + 2.0 ** (k + 1) * (p - v)
    out = _halve(f, lo, hi, side)
    return float(out[0]) if shape == () else out.reshape(shape)


def _brackets(f: Callable, lo, hi):
    """Flat copies of the ends, a root at lo closing its bracket, f's sign at lo, and the shape."""
    shape = np.broadcast_shapes(np.shape(lo), np.shape(hi))
    lo, hi = (np.array(v, dtype=float).ravel() for v in np.broadcast_arrays(lo, hi))
    if np.any(lo > hi):  # it would come back unchanged, as if it held a root
        raise ValueError("a bracket has lo > hi")
    side, other = np.sign(f(np.stack([lo, hi]), np.arange(lo.size)))
    if np.any(np.isnan(side) | np.isnan(other)):  # no sign to keep
        raise ValueError("f is NaN at an end of a bracket")
    if np.any(side * other > 0.0):
        raise ValueError("f has the same sign at both ends of a bracket")
    hi[side == 0.0] = lo[side == 0.0]
    return lo, hi, side, shape


def _narrowed(lo, hi, side, x, fx):
    """[lo, hi] with an end moved to an x strictly inside, as a bisection step at x moves it.

    Every x lies in [lo, hi], and f has a sign at both ends, so a NaN of f
    is strictly inside: it has no sign to keep, and raises ValueError.
    """
    if np.isnan(fx).any():
        raise ValueError("f is NaN inside a bracket")
    inside = (lo < x) & (x < hi)
    keep = np.sign(fx) == side
    return np.where(inside & keep, x, lo), np.where(inside & ~keep, x, hi)


def _halve(f: Callable, lo, hi, side):
    """The hi ends of _brackets' brackets, each open one halved per f call to adjacent floats.

    Each midpoint moves an end through _narrowed, the keep rule of every stage.
    """
    out = hi.copy()
    mid = _midpoint_within(lo, hi)  # the ends only move inwards
    idx = np.arange(lo.size)
    while idx.size:
        m = mid(lo, hi)
        live = (lo < m) & (m < hi)
        if not live.all():
            out[idx[~live]] = hi[~live]
            idx, lo, hi, side = idx[live], lo[live], hi[live], side[live]
            continue
        lo, hi = _narrowed(lo, hi, side, m, f(m, idx))
    return out


def integrate(f: Callable, a, b, tol: float):
    """Adaptive Simpson quadrature of a vectorised f over every interval [a, b].

    Each interval is refined on its own: a panel is accepted when
    |err| <= 15 tol, with tol * (1 + |whole|) for the whole interval
    halved at each level, or when it is narrower than 1e-10 of the
    interval and its error is finite.  So tol sets the acceptance test,
    not a bound on the error of the result.  The panels of all intervals that
    have not converged are split together, one depth level at a time,
    with one call of f per level, and the accepted panels are summed back
    up the same binary tree, so each interval gets the value a recursive
    rule would give.  A level's panels are the columns of one array, and
    the next level is gathered from its split columns in one selection.
    f runs under the caller's numpy error state, on a new array each call.
    Simpson's rule makes polynomials up to cubics exact at the first
    level; a reversed interval integrates to minus its mirror, and an
    integral past the double range is inf.  Scalar ends give a float.

    One level may hold max(QUAD_MAX_PANELS, number of intervals) panels.
    A batch whose level would hold more is integrated again as two
    halves, each with a budget of its own, so an interval that converges
    alone converges in any batch and memory stays bounded.  Raises
    ValueError for a tol that is not positive and finite, a non-finite
    end or an interval wider than the double range, before f is called,
    and ToleranceNotMet when refinement exhausts its budget: depth
    QUAD_MAX_DEPTH, or the panel budget of a lone interval.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("integration ends must be finite")
    lo, hi = np.minimum(a, b).ravel(), np.maximum(a, b).ravel()
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(hi - lo)):  # no panel width, nor its floor, to compare
            raise ValueError("an integration interval is wider than the double range")
    out = np.zeros(lo.size)
    todo = np.flatnonzero(lo < hi)
    out[todo] = _adaptive_simpson(f, lo[todo], hi[todo], tol)
    out = np.where(b < a, -out.reshape(a.shape), out.reshape(a.shape))
    return float(out) if out.ndim == 0 else out


# A level's open panels are the columns of one (15, n) array.  Rows
# _LO.._FLOOR are what a panel passes to its children: its ends and
# midpoint, f there, its Simpson value, its halved tolerance and its width
# floor; rows _LM.._RIGHT are what the level computes: the midpoints of its
# halves, f there and their Simpson values.  A split panel's children take
# rows _LEFT_ROWS and _RIGHT_ROWS of it.
_LO, _MID, _HI, _FLO, _FMID, _FHI, _WHOLE, _TOL, _FLOOR = range(9)
_LM, _RM, _FLM, _FRM, _LEFT, _RIGHT = range(9, 15)
_LEFT_ROWS = np.array([_LO, _LM, _MID, _FLO, _FLM, _FMID, _LEFT, _TOL, _FLOOR])
_RIGHT_ROWS = np.array([_MID, _RM, _HI, _FMID, _FRM, _FHI, _RIGHT, _TOL, _FLOOR])


def _adaptive_simpson(f: Callable, lo0, hi0, tol: float):
    """integrate over the intervals [lo0, hi0], each with lo0 < hi0."""
    total = _simpson_tree(f, lo0, hi0, tol)
    if total is None:  # past the panel budget: each half gets a budget of its own
        half = lo0.size // 2
        total = np.concatenate([_adaptive_simpson(f, lo0[:half], hi0[:half], tol),
                                _adaptive_simpson(f, lo0[half:], hi0[half:], tol)])
    return total


def _simpson_tree(f: Callable, lo0, hi0, tol: float):
    """_adaptive_simpson's values, or None where a level of several intervals passes the budget.

    Returning None frees every panel of this attempt before the halves build theirs.
    """
    budget = max(QUAD_MAX_PANELS, lo0.size)
    mid = _midpoint_within(lo0, hi0)
    n = lo0.size
    p = np.empty((15, n))
    p[_LO], p[_MID], p[_HI] = lo0, mid(lo0, hi0), hi0
    p[_FLO:_FHI + 1] = np.asarray(f(p[_LO:_HI + 1].flatten()), dtype=float).reshape(3, n)
    with np.errstate(invalid="ignore", over="ignore"):
        p[_WHOLE] = (hi0 - lo0) / 6.0 * (p[_FLO] + 4.0 * p[_FMID] + p[_FHI])
        p[_TOL] = tol * (1.0 + np.abs(p[_WHOLE]))
    p[_FLOOR] = 1e-10 * (hi0 - lo0)

    levels = []  # per depth: (panel values, mask of the panels split further)
    for depth in range(QUAD_MAX_DEPTH + 1):
        # row 0 the left halves' midpoints, row 1 the right halves'
        x = mid(p[_LO:_MID + 1], p[_MID:_HI + 1])
        p[_LM:_RM + 1] = x
        p[_FLM:_FRM + 1] = np.asarray(f(x.ravel()), dtype=float).reshape(2, n)
        with np.errstate(invalid="ignore", over="ignore"):
            p[_LEFT:_RIGHT + 1] = (p[_MID:_HI + 1] - p[_LO:_MID + 1]) / 6.0 * (
                p[_FLO:_FMID + 1] + 4.0 * p[_FLM:_FRM + 1] + p[_FMID:_FHI + 1])
            both = p[_LEFT] + p[_RIGHT]
            err = both - p[_WHOLE]
            value = both + err / 15.0
            # a panel this narrow is dominated by rounding noise of the
            # integrand; further halving cannot improve a double evaluation
            split = ~((np.abs(err) <= 15.0 * p[_TOL])
                      | ((p[_HI] - p[_LO] <= p[_FLOOR]) & np.isfinite(err)))
        levels.append((value, split))
        n_split = int(np.count_nonzero(split))
        if not n_split:
            break
        if depth < QUAD_MAX_DEPTH and 2 * n_split > budget and lo0.size > 1:
            return None
        if depth == QUAD_MAX_DEPTH or 2 * n_split > budget:
            i = int(np.argmax(split))
            raise ToleranceNotMet(
                f"adaptive quadrature exceeded its budget of depth {QUAD_MAX_DEPTH} or "
                f"{budget} panels, at depth {depth} on [{p[_LO, i]}, {p[_HI, i]}]")
        # children of split panel k sit at 2k (left half) and 2k + 1 (right half)
        parents = p[:, split]
        n = 2 * n_split
        p = np.empty((15, n))
        p[:_FLOOR + 1, 0::2] = parents[_LEFT_ROWS]
        p[:_FLOOR + 1, 1::2] = parents[_RIGHT_ROWS]
        p[_TOL] *= 0.5
    total = levels.pop()[0]
    while levels:
        value, split = levels.pop()
        # an integral past the double range sums to inf
        with np.errstate(over="ignore"):
            value[split] = total[0::2] + total[1::2]
        total = value
    return total


def derivative(f: Callable, x, h: float = 1e-2):
    """Central-difference first derivative with one Richardson step (O(h^4)).

    Makes one call of a vectorised f on the four shifted copies x + h/2,
    x - h/2, x + h and x - h, stacked along a new leading axis, so an f
    with a large per-call cost pays it once.  The caller owns the
    step-size choice; an h that is not positive and finite raises
    ValueError.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    steps = (0.5 * h, -0.5 * h, h, -h)
    f_at = f(np.stack([np.asarray(x) + s for s in steps]))
    d_half, d_full = ((f_at[i] - f_at[i + 1]) / (2.0 * steps[i]) for i in (0, 2))
    return (4.0 * d_half - d_full) / 3.0


@lru_cache(maxsize=None)
def _stencil_weights(offsets: tuple, order: int) -> tuple:
    """Finite-difference weights for the given node offsets (units of 1/h^order)."""
    n = len(offsets)
    a = np.array([[o ** k for o in offsets] for k in range(n)], dtype=float)
    rhs = np.zeros(n)
    rhs[order] = math.factorial(order)
    return tuple(np.linalg.solve(a, rhs))


def grid_derivative(values: np.ndarray, spacing: float, order: int = 1) -> np.ndarray:
    """Derivative of uniformly sampled values: fourth-order stencils.

    Interior nodes use the five-point central stencils; the two nodes at
    each edge fall back to one-sided stencils of the same order.
    """
    v = np.asarray(values, dtype=float)
    h = float(spacing)
    n = v.size
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if n < 6:
        raise ValueError("need at least 6 samples for fourth-order stencils")
    out = np.empty_like(v)
    if order == 1:
        out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
        edge_offsets = [(0, (0, 1, 2, 3, 4)), (1, (-1, 0, 1, 2, 3))]
    else:
        out[2:-2] = (-v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2]
                     + 16.0 * v[3:-1] - v[4:]) / (12.0 * h * h)
        edge_offsets = [(0, (0, 1, 2, 3, 4, 5)), (1, (-1, 0, 1, 2, 3, 4))]
    scale = h ** order
    for idx, offs in edge_offsets:
        w = _stencil_weights(offs, order)
        out[idx] = sum(wi * v[idx + o] for wi, o in zip(w, offs)) / scale
        # mirrored stencil for the right edge
        offs_r = tuple(-o for o in offs)
        w_r = _stencil_weights(offs_r, order)
        ridx = n - 1 - idx
        out[ridx] = sum(wi * v[ridx + o] for wi, o in zip(w_r, offs_r)) / scale
    return out


def sturm_count(matrices, shifts) -> np.ndarray:
    """Eigenvalues of each matrix strictly below each of its shifts (Sturm sign count).

    shifts broadcasts to (len(matrices), s): one row of s shifts serves
    every matrix, or row r holds the shifts of matrix r.  Returns the
    (len(matrices), s) int64 counts from one LAPACK dlaebz call (IJOB=1)
    per matrix: the guarded LDL^T count that dstebz bisects with (Kahan
    1966; Demmel, Dhillon & Ren 1995), with pivots q_j = (d_j - e_{j-1}^2
    / q_{j-1}) - shift.  A pivot below pivmin = max(max e^2, 1) 2.3e-308
    in magnitude is taken as -pivmin, so it counts as negative, and a NaN
    pivot never counts.  A matrix whose couplings reach 2^500 is counted
    scaled, with its shifts, by a power of two, so no coupling squares to
    inf.
    """
    lam = np.atleast_2d(np.asarray(shifts, dtype=float))
    lam = np.broadcast_to(lam, (len(matrices), lam.shape[-1]))
    s = lam.shape[1]
    # the shifts are the ends of MINP intervals, in the Fortran (MINP, 2)
    # arrays AB and NAB: the first MINP are lower ends; an odd s takes a spare
    pairs = (s + 1) // 2
    ab, work = np.zeros(2 * pairs), np.empty(pairs)
    nab, iwork = np.empty(2 * pairs, dtype=np.int64), np.empty(pairs, dtype=np.int64)
    one, minp, mout, info = (ctypes.c_int64(v) for v in (1, pairs, 0, 0))
    unused = ctypes.c_double(0.0)
    counts = np.empty(lam.shape, dtype=np.int64)
    for r, matrix in enumerate(matrices):
        # a coupling of 2^512 or more would square to inf: the matrix and
        # its shifts are scaled by the power of two that brings its largest
        # coupling below 2^500, which leaves every count unchanged
        top = float(np.max(np.abs(matrix.offdiagonal), initial=0.0))
        scale = math.ldexp(1.0, min(0, 500 - math.frexp(top)[1]))
        e2 = (matrix.offdiagonal * scale) ** 2
        pivmin = ctypes.c_double(float(np.max(e2, initial=1.0)) * 2.3e-308)
        ab[:s] = lam[r] * scale
        # IJOB=1 reads only n, mmax, minp, pivmin, d, e2 and ab
        _dlaebz()(one, one, ctypes.c_int64(matrix.size), minp, minp, one, unused, unused,
                  pivmin, matrix.diagonal * scale, e2, e2, iwork, ab, work, mout, nab, work,
                  iwork, info)
        if info.value != 0:
            raise EigensolverFailure(f"LAPACK dlaebz returned info={info.value} "
                                     f"(n={matrix.size}, matrix {r + 1} of {len(matrices)})")
        counts[r] = nab[:s]
    return counts


def _lapack(routine: str, symbol: str):
    """A routine of the ILP64 LAPACK that numpy.linalg already links.

    numpy wheels bundle scipy-openblas, which exports LAPACK and LAPACKE
    with a scipy_ prefix and, being ILP64, a 64_ suffix and 64-bit integers.
    Each routine is resolved on the first eigensolve, so importing natpdm
    loads nothing.
    """
    from numpy.linalg import _umath_linalg

    try:
        return getattr(ctypes.CDLL(_umath_linalg.__file__), symbol)
    except (OSError, AttributeError) as exc:
        raise EigensolverFailure(
            f"LAPACK {routine} not found in numpy's linked LAPACK (natpdm needs a numpy>=2 "
            f"pip wheel with its bundled scipy-openblas): {exc}") from exc


_VEC = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
_IVEC = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
_COL_MAJOR = 102  # LAPACKE's LAPACK_COL_MAJOR


@lru_cache(maxsize=None)
def _dstebz():
    """LAPACKE dstebz: bisection for the lowest levels of one matrix."""
    fn = _lapack("dstebz", "scipy_LAPACKE_dstebz64_")
    lint = ctypes.c_int64
    # range, order, n, vl, vu, il, iu, abstol, d, e, m, nsplit, w, iblock, isplit
    fn.argtypes = [ctypes.c_char, ctypes.c_char, lint, ctypes.c_double, ctypes.c_double,
                   lint, lint, ctypes.c_double, _VEC, _VEC, _IVEC, _IVEC, _VEC, _IVEC, _IVEC]
    fn.restype = lint
    return fn


@lru_cache(maxsize=None)
def _dlaebz():
    """Fortran dlaebz, which has no LAPACKE wrapper: every argument by reference.

    A c_int64 or c_double given for a pointer argument is passed by reference.
    """
    fn = _lapack("dlaebz", "scipy_dlaebz_64_")
    pint, pdouble = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
    # ijob, nitmax, n, mmax, minp, nbmin, abstol, reltol, pivmin, d, e, e2,
    # nval, ab, c, mout, nab, work, iwork, info
    fn.argtypes = [pint] * 6 + [pdouble] * 3 + [_VEC, _VEC, _VEC, _IVEC, _VEC, _VEC, pint,
                                                _IVEC, _VEC, _IVEC, pint]
    fn.restype = None
    return fn


@lru_cache(maxsize=None)
def _dstein():
    """LAPACKE dstein: inverse iteration for the eigenvectors at given levels."""
    fn = _lapack("dstein", "scipy_LAPACKE_dstein64_")
    lint = ctypes.c_int64
    # matrix_layout, n, d, e, m, w, iblock, isplit, z, ldz, ifailv
    fn.argtypes = [ctypes.c_int, lint, _VEC, _VEC, lint, _VEC, _IVEC, _IVEC,
                   np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS"), lint, _IVEC]
    fn.restype = lint
    return fn


def _bisection_levels(matrix: TridiagonalSymmetric, k: int, where: str) -> np.ndarray:
    """The k lowest levels of matrix from one dstebz call at tolerance EIG_ATOL.

    Each level is within max(EIG_ATOL, 8 eps ||T||) of exact: the Sturm
    counts that bisection takes round by about eps ||T||.
    """
    n = matrix.size
    found = np.zeros(1, dtype=np.int64)
    nsplit = np.zeros(1, dtype=np.int64)
    w = np.empty(n)
    iblock = np.empty(n, dtype=np.int64)
    isplit = np.empty(n, dtype=np.int64)
    info = _dstebz()(b"I", b"E", n, 0.0, 0.0, 1, k, EIG_ATOL,
                     np.ascontiguousarray(matrix.diagonal),
                     np.ascontiguousarray(matrix.offdiagonal),
                     found, nsplit, w, iblock, isplit)
    # with RANGE='I', levels LAPACK could not find come back as info 2 or 3
    if info != 0:
        raise EigensolverFailure(f"LAPACK dstebz returned info={info} (n={n}, k={k}, {where})")
    return w[:k]


def _seeded_levels(matrix: TridiagonalSymmetric, seeds: np.ndarray):
    """Rayleigh quotients of dstein's inverse-iteration vectors at seeds, or None.

    None, for dstebz to solve the matrix instead, where the seeds are not
    finite and strictly ascending, dstein reports an error, or a quotient
    is not finite.
    """
    if not (np.all(np.isfinite(seeds)) and np.all(np.diff(seeds) > 0.0)):
        return None
    d, e = np.ascontiguousarray(matrix.diagonal), matrix.offdiagonal
    n, k = d.size, seeds.size
    # LAPACKE_dstein NaN-checks e and w over n entries, so both are padded to n
    e_n, w = np.zeros(n), np.zeros(n)
    e_n[:n - 1], w[:k] = e, seeds
    # the whole matrix is block 1: rows 1..n
    iblock, isplit = np.ones(k, dtype=np.int64), np.full(1, n, dtype=np.int64)
    # row i of z, in LAPACK's column-major layout, is the vector of level i
    z, ifail = np.empty((k, n)), np.empty(k, dtype=np.int64)
    if _dstein()(_COL_MAJOR, n, d, e_n, k, w, iblock, isplit, z, n, ifail) != 0:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        tz = d * z
        tz[:, :-1] += e * z[:, 1:]
        tz[:, 1:] += e * z[:, :-1]
        quotients = np.einsum("ij,ij->i", z, tz) / np.einsum("ij,ij->i", z, z)
    return quotients if np.all(np.isfinite(quotients)) else None


def lowest_eigenvalues(matrices, k: int, seeds_from=None) -> np.ndarray:
    """k smallest eigenvalues of each matrix, ascending, every one certified by a Sturm count.

    Returns a (len(matrices), k) array whose row r holds the levels of
    matrix r.  seeds_from is None, or holds for each matrix None or the
    index of an earlier row whose levels seed it, as the levels of a
    matrix assembled on a grid seed those of its Grid.refined() twin.  An
    unseeded matrix gets one LAPACK bisection (dstebz) call at tolerance
    EIG_ATOL.  A seeded matrix gets one
    inverse-iteration (dstein) call at its seeds instead, and each level
    is the Rayleigh quotient x^T T x / x^T x of its vector.

    Every level of every matrix is then certified by one sturm_count
    call: level i (1-based) passes only if count(E_i - delta) <= i - 1
    and count(E_i + delta) >= i, with delta = max(EIG_ATOL, 8 eps ||T||)
    and ||T|| the Gershgorin bound of its own matrix, so the margin grows
    with the rounding of the count itself.  delta, not EIG_ATOL, is the
    accuracy every returned level has.  Degenerate levels pass.  A
    seeded matrix falls back to dstebz when its seeds are not finite and
    strictly ascending, dstein reports an error, a quotient is not
    finite, or the certificate rejects it; only that last case pays for a
    second sturm_count call, over the matrices that fell back.  Raises
    ValueError for a k outside 1..n or a seed row that is not earlier,
    and EigensolverFailure when dstebz reports an error (non-finite
    entries and levels it could not find included), the certificate
    rejects a level dstebz located, or a routine cannot be found.
    """
    seeds_from = [None] * len(matrices) if seeds_from is None else list(seeds_from)
    if len(seeds_from) != len(matrices):
        raise ValueError(f"{len(seeds_from)} seed rows for {len(matrices)} matrices")
    where = [f"matrix {r + 1} of {len(matrices)}" for r in range(len(matrices))]
    levels = np.empty((len(matrices), k))
    delta = np.empty((len(matrices), 1))
    seeded = np.zeros(len(matrices), dtype=bool)
    for r, matrix in enumerate(matrices):
        n = matrix.size
        if not 1 <= k <= n:
            raise ValueError(f"k={k} outside 1..{n} ({where[r]})")
        s = seeds_from[r]
        if s is not None and not 0 <= s < r:
            raise ValueError(f"{where[r]} is seeded from row {s}, not an earlier row")
        found = None if s is None else _seeded_levels(matrix, levels[s])
        seeded[r] = found is not None
        levels[r] = _bisection_levels(matrix, k, where[r]) if found is None else found
        radius = np.abs(matrix.diagonal)
        if n > 1:
            ae = np.abs(matrix.offdiagonal)
            radius[:-1] += ae
            radius[1:] += ae
        delta[r] = max(EIG_ATOL, 8.0 * _EPS * float(radius.max()))

    counts = np.empty((len(matrices), 2 * k), dtype=np.int64)
    index = np.arange(1, k + 1)

    def rejected(rows):
        counts[rows] = sturm_count([matrices[r] for r in rows], np.concatenate(
            [levels[rows] - delta[rows], levels[rows] + delta[rows]], axis=1))
        return (counts[:, :k] > index - 1) | (counts[:, k:] < index)

    bad = rejected(np.arange(len(matrices)))
    retry = np.flatnonzero(bad.any(axis=1) & seeded)
    if retry.size:
        for r in retry:
            levels[r] = _bisection_levels(matrices[r], k, where[r])
        bad = rejected(retry)
    if np.any(bad):
        r, i = np.argwhere(bad)[0]
        raise EigensolverFailure(
            f"Sturm certificate rejects level {i + 1} of {k} of {where[r]} at "
            f"{levels[r, i]!r} (n={matrices[r].size}): "
            f"{counts[r, i]} below E - {delta[r, 0]:.3g}, "
            f"{counts[r, k + i]} below E + {delta[r, 0]:.3g}")
    return levels

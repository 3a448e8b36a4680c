"""Self-contained numerical kernel used by every other module.

Provides bisection and adaptive Simpson quadrature, both over arrays of
brackets or intervals with one call of a vectorised function per step,
Richardson-extrapolated central differences, fourth-order grid stencils,
and an eigensolver for real symmetric tridiagonal matrices: LAPACK
bisection (dstebz, reached through ctypes in the LAPACK that
numpy.linalg already links, so no extra dependency) whose levels, for
every matrix of one call, are certified by one Sturm sign-count sweep.

All operations are pure: inputs are never mutated and the only module
state is two caches of constants (stencil weights and the resolved LAPACK
routine), so concurrent callers are safe.
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
    "DimensionMismatch",
    "EigensolverFailure",
    "bisect",
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
# are more: at about 200 bytes a panel it bounds the memory of a rule
# that cannot converge (a non-finite integrand, or a tol below double
# rounding) near 13 MB
QUAD_MAX_PANELS = 2 ** 16
# absolute accuracy to which lowest_eigenvalues locates each level
EIG_ATOL = 1e-10

_EPS = float(np.finfo(float).eps)


class ToleranceNotMet(RuntimeError):
    """Adaptive refinement exhausted its depth or panel budget."""


class DimensionMismatch(ValueError):
    """Array lengths inconsistent with the requested operation."""


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
            raise DimensionMismatch("diagonal and offdiagonal must be 1-d")
        if d.size < 1:
            raise DimensionMismatch("empty diagonal")
        if e.size != d.size - 1:
            raise DimensionMismatch(
                f"offdiagonal length {e.size} != diagonal length {d.size} - 1"
            )
        object.__setattr__(self, "diagonal", d)
        object.__setattr__(self, "offdiagonal", e)

    @property
    def size(self) -> int:
        return self.diagonal.size

    def to_dense(self) -> np.ndarray:
        a = np.diag(self.diagonal)
        if self.size > 1:
            a += np.diag(self.offdiagonal, 1) + np.diag(self.offdiagonal, -1)
        return a


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


def bisect(f: Callable, lo, hi):
    """Root of a vectorised f in every bracket [lo, hi], by bisection.

    f(lo) and f(hi) must not share a sign.  Every bracket is halved
    together, keeping at its lo end the sign f has at lo, until its two
    ends are adjacent floats; the hi end, where f first leaves that sign,
    is returned, so rising and falling f are treated alike and a root at
    either end is returned exactly.  Scalar ends give a float.

    Raises ValueError if the ends of a bracket share a sign.
    """
    # own copies of the ends, updated in place
    lo, hi = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi))
    side = np.sign(f(lo))
    if np.any(side * np.sign(f(hi)) > 0.0):
        raise ValueError("f has the same sign at both ends of a bracket")
    np.copyto(hi, lo, where=side == 0.0)
    # f(lo) keeps the sign `side` and f(hi) does not, so a bracket already
    # down to adjacent floats is left unchanged by one more step
    while np.any((lo < (mid := _midpoint(lo, hi))) & (mid < hi)):
        keep = np.sign(f(mid)) == side
        np.copyto(lo, mid, where=keep)
        np.copyto(hi, mid, where=~keep)
    return float(hi) if hi.ndim == 0 else hi


def integrate(f: Callable, a, b, tol: float):
    """Adaptive Simpson quadrature of a vectorised f over every interval [a, b].

    Each interval is refined on its own: a panel is accepted when
    |err| <= 15 tol, with tol * (1 + |whole|) for the whole interval
    halved at each level, or when it is narrower than 1e-10 of the
    interval and its error is finite.  The panels of all intervals that
    have not converged are split together, one depth level at a time,
    with one call of f per level, and the accepted panels are summed back
    up the same binary tree, so each interval gets the value a recursive
    rule would give.  Simpson's rule makes polynomials up to cubics exact
    at the first level; a reversed interval integrates to minus its
    mirror, and an integral past the double range is inf.  Scalar ends
    give a float.

    Raises ValueError for a non-finite end, before f is called, and
    ToleranceNotMet when refinement exhausts its budget: depth
    QUAD_MAX_DEPTH, or more than max(QUAD_MAX_PANELS, number of
    intervals) panels at one level.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("integration ends must be finite")
    lo, hi = np.minimum(a, b).ravel(), np.maximum(a, b).ravel()
    out = np.zeros(lo.size)
    todo = np.flatnonzero(lo < hi)
    lo, hi = lo[todo], hi[todo]
    budget = max(QUAD_MAX_PANELS, todo.size)
    m = _midpoint(lo, hi)
    flo, fm, fhi = np.split(np.asarray(f(np.concatenate([lo, m, hi])), dtype=float), 3)
    with np.errstate(invalid="ignore", over="ignore"):
        whole = (hi - lo) / 6.0 * (flo + 4.0 * fm + fhi)
        tol_abs = tol * (1.0 + np.abs(whole))
    wfloor = 1e-10 * (hi - lo)

    # children of split panel k sit at 2k (left half) and 2k + 1 (right half)
    def halves(x, y):
        return np.stack([x[split], y[split]], axis=1).ravel()

    levels = []  # per depth: (panel values, mask of the panels split further)
    for depth in range(QUAD_MAX_DEPTH + 1):
        lm, rm = _midpoint(lo, m), _midpoint(m, hi)
        flm, frm = np.split(np.asarray(f(np.concatenate([lm, rm])), dtype=float), 2)
        with np.errstate(invalid="ignore", over="ignore"):
            left = (m - lo) / 6.0 * (flo + 4.0 * flm + fm)
            right = (hi - m) / 6.0 * (fm + 4.0 * frm + fhi)
            err = left + right - whole
            value = left + right + err / 15.0
            # a panel this narrow is dominated by rounding noise of the
            # integrand; further halving cannot improve a double evaluation
            done = (np.abs(err) <= 15.0 * tol_abs) | ((hi - lo <= wfloor) & np.isfinite(err))
        split = ~done
        levels.append((value, split))
        n_split = int(split.sum())
        if not n_split:
            break
        if depth == QUAD_MAX_DEPTH or 2 * n_split > budget:
            i = int(np.argmax(split))
            raise ToleranceNotMet(
                f"adaptive quadrature exceeded its budget of depth {QUAD_MAX_DEPTH} or "
                f"{budget} panels, at depth {depth} on [{lo[i]}, {hi[i]}]")
        lo, m, hi, flo, fm, fhi, whole = (
            halves(lo, m), halves(lm, rm), halves(m, hi), halves(flo, fm),
            halves(flm, frm), halves(fm, fhi), halves(left, right))
        tol_abs = np.repeat(0.5 * tol_abs[split], 2)
        wfloor = np.repeat(wfloor[split], 2)
    total = levels.pop()[0]
    while levels:
        value, split = levels.pop()
        # an integral past the double range sums to inf
        with np.errstate(over="ignore"):
            value[split] = total[0::2] + total[1::2]
        total = value
    out[todo] = total
    out = np.where(b < a, -out.reshape(a.shape), out.reshape(a.shape))
    return float(out) if out.ndim == 0 else out


def derivative(f: Callable, x, order: int = 1, h: float = 1e-2):
    """Central-difference derivative with one Richardson step (O(h^4)).

    Works on scalars and on numpy arrays as long as f is vectorised.
    The caller owns the step-size choice.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    if order == 1:
        def d(s):
            return (f(x + s) - f(x - s)) / (2.0 * s)
    elif order == 2:
        def d(s):
            return (f(x + s) - 2.0 * f(x) + f(x - s)) / (s * s)
    elif order == 3:
        def d(s):
            return (f(x + 2.0 * s) - 2.0 * f(x + s) + 2.0 * f(x - s) - f(x - 2.0 * s)) \
                / (2.0 * s ** 3)
    else:
        raise ValueError(f"order must be 1, 2 or 3, got {order}")
    return (4.0 * d(0.5 * h) - d(h)) / 3.0


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
        raise DimensionMismatch("need at least 6 samples for fourth-order stencils")
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
    (len(matrices), s) int64 counts.

    One LDL^T recurrence runs over the rows of the longest matrix, with
    every (matrix, shift) pair as a column of in-place operations on
    preallocated buffers.  Each matrix keeps its own pivmin, the guard
    against division by an exactly zero pivot.  Shorter matrices are
    padded at the end with a diagonal of +inf and zero coupling: their
    real rows come first, so those pivots are the ones a sweep of that
    matrix alone would give, and a padded pivot is inf or NaN at every
    shift, infinite shifts included, so it never counts.
    """
    lam = np.atleast_2d(np.asarray(shifts, dtype=float))
    lam = np.broadcast_to(lam, (len(matrices), lam.shape[-1]))
    n = max((matrix.size for matrix in matrices), default=0)
    d = np.full((n, len(matrices), 1), np.inf)
    e2 = np.zeros((n, len(matrices), 1))  # e2[i] couples rows i - 1 and i
    for r, matrix in enumerate(matrices):
        d[:matrix.size, r, 0] = matrix.diagonal
        e2[1:matrix.size, r, 0] = matrix.offdiagonal * matrix.offdiagonal
    pivmin = np.maximum(e2.max(axis=0, initial=1.0), 1.0) * 2.3e-308
    counts = np.zeros(lam.shape, dtype=np.int64)
    # the pivots are kept and counted once at the end: counting each row
    # as it is formed, with two row buffers, takes three more ufunc calls
    # per row and raised perfbench spectrum-mix latency_p50 from 0.045 to
    # 0.055 s (2-vCPU host).  Shift columns per pass over the rows bound
    # the pivot buffer near 16 MB, so a request for more levels than fit
    # takes a few passes
    step = max(1, 2 ** 21 // max(n * len(matrices), 1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # a pivot smaller than pivmin is replaced by -pivmin: its quotient
        e2_tiny = e2 / -pivmin
        for lo in range(0, lam.shape[1], step):
            # the shifted diagonal, overwritten row by row with the pivots
            q = d - lam[np.newaxis, :, lo:lo + step]
            t = np.empty(q.shape[1:])
            tiny = np.empty(q.shape[1:], dtype=bool)
            rows = list(q)
            for prev, row, e2_row, tiny_row in zip(rows, rows[1:], e2[1:], e2_tiny[1:]):
                np.abs(prev, out=t)
                np.less(t, pivmin, out=tiny)
                np.divide(e2_row, prev, out=t)
                np.copyto(t, tiny_row, where=tiny)
                np.subtract(row, t, out=row)
            # zero pivots count as negative, consistent with -pivmin
            counts[:, lo:lo + step] = np.count_nonzero(q <= 0.0, axis=0)
    return counts


@lru_cache(maxsize=None)
def _dstebz():
    """LAPACKE dstebz from the ILP64 LAPACK that numpy.linalg already links.

    Resolved on the first eigensolve, so importing natpdm loads nothing.
    """
    from numpy.linalg import _umath_linalg

    # numpy wheels bundle scipy-openblas, which exports LAPACKE with a
    # scipy_ prefix and, being ILP64, a 64_ suffix and 64-bit integers
    try:
        fn = ctypes.CDLL(_umath_linalg.__file__).scipy_LAPACKE_dstebz64_
    except (OSError, AttributeError) as exc:
        raise EigensolverFailure(
            "LAPACK dstebz not found in numpy's linked LAPACK (natpdm needs a numpy>=2 "
            f"pip wheel with its bundled scipy-openblas): {exc}") from exc
    lint = ctypes.c_int64
    vec = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    ivec = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
    # range, order, n, vl, vu, il, iu, abstol, d, e, m, nsplit, w, iblock, isplit
    fn.argtypes = [ctypes.c_char, ctypes.c_char, lint, ctypes.c_double, ctypes.c_double,
                   lint, lint, ctypes.c_double, vec, vec, ivec, ivec, vec, ivec, ivec]
    fn.restype = lint
    return fn


def lowest_eigenvalues(matrices, k: int) -> np.ndarray:
    """k smallest eigenvalues of each matrix, ascending, by LAPACK bisection (dstebz).

    Returns a (len(matrices), k) array whose row r holds the levels of
    matrix r.  Each level is located to within EIG_ATOL, one dstebz call
    per matrix, and then every level of every matrix is certified by one
    Sturm sweep: level i (1-based) passes only if count(E_i - delta) <=
    i - 1 and count(E_i + delta) >= i, with delta = max(EIG_ATOL, 8 eps
    ||T||) and ||T|| the Gershgorin bound of its own matrix, so the
    margin grows with the rounding of the count itself.  Degenerate
    levels pass.  Raises EigensolverFailure when LAPACK reports an error
    (non-finite entries and levels it could not find included), the
    certificate rejects a level, or the routine cannot be found.
    """
    levels = np.empty((len(matrices), k))
    delta = np.empty((len(matrices), 1))
    for r, matrix in enumerate(matrices):
        n = matrix.size
        if not 1 <= k <= n:
            raise DimensionMismatch(f"k={k} outside 1..{n} (matrix {r + 1} of {len(matrices)})")
        d = np.ascontiguousarray(matrix.diagonal)
        e = np.ascontiguousarray(matrix.offdiagonal)
        found = np.zeros(1, dtype=np.int64)
        nsplit = np.zeros(1, dtype=np.int64)
        w = np.empty(n)
        iblock = np.empty(n, dtype=np.int64)
        isplit = np.empty(n, dtype=np.int64)
        info = _dstebz()(b"I", b"E", n, 0.0, 0.0, 1, k, EIG_ATOL, d, e,
                         found, nsplit, w, iblock, isplit)
        # with RANGE='I', levels LAPACK could not find come back as info 2 or 3
        if info != 0:
            raise EigensolverFailure(f"LAPACK dstebz returned info={info} (n={n}, k={k}, "
                                     f"matrix {r + 1} of {len(matrices)})")
        levels[r] = w[:k]
        radius = np.abs(d)
        if n > 1:
            ae = np.abs(e)
            radius[:-1] += ae
            radius[1:] += ae
        delta[r] = max(EIG_ATOL, 8.0 * _EPS * float(radius.max()))

    counts = sturm_count(matrices, np.concatenate([levels - delta, levels + delta], axis=1))
    index = np.arange(1, k + 1)
    bad = (counts[:, :k] > index - 1) | (counts[:, k:] < index)
    if np.any(bad):
        r, i = np.argwhere(bad)[0]
        raise EigensolverFailure(
            f"Sturm certificate rejects level {i + 1} of {k} of matrix {r + 1} of "
            f"{len(matrices)} at {levels[r, i]!r} (n={matrices[r].size}): "
            f"{counts[r, i]} below E - {delta[r, 0]:.3g}, "
            f"{counts[r, k + i]} below E + {delta[r, 0]:.3g}")
    return levels

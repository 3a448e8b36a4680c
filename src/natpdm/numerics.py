"""Self-contained numerical kernel used by every other module.

Provides a bracketed Brent-style root finder, adaptive Simpson quadrature
(with an optional s = t**2 substitution for inverse-square-root endpoint
singularities), Richardson-extrapolated central differences, fourth-order
grid stencils, and an eigensolver for real symmetric tridiagonal
matrices: LAPACK bisection (dstebz, reached through ctypes in the LAPACK
that numpy.linalg already links, so no extra dependency) whose levels are
certified by one vectorised Sturm sign count.

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
    "NoSignChange",
    "MaxIterations",
    "ToleranceNotMet",
    "DimensionMismatch",
    "EigensolverFailure",
    "find_root",
    "integrate",
    "derivative",
    "grid_derivative",
    "sturm_count",
    "lowest_eigenvalues",
    "ROOT_MAX_ITER",
    "QUAD_MAX_DEPTH",
]

ROOT_MAX_ITER = 200
QUAD_MAX_DEPTH = 40

_EPS = float(np.finfo(float).eps)


class NoSignChange(ValueError):
    """The root bracket endpoints do not straddle a sign change."""


class MaxIterations(RuntimeError):
    """Iteration cap reached before the requested tolerance."""


class ToleranceNotMet(RuntimeError):
    """Adaptive refinement exhausted its depth budget."""


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

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    @property
    def midpoints(self) -> np.ndarray:
        p = self.points
        return 0.5 * (p[:-1] + p[1:])

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


def find_root(f: Callable[[float], float], bracket, tol: float) -> float:
    """Find a root of f inside a sign-change bracket.

    Brent-style: inverse-quadratic / secant steps with a guaranteed
    bisection fallback, so every iterate stays inside the current
    bracket.  Terminates when the bracket width or |f| drops below
    ``tol``.

    Raises NoSignChange if f(a) and f(b) have the same (nonzero) sign,
    MaxIterations if the iteration cap is hit first.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    a, b = float(bracket[0]), float(bracket[1])
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise NoSignChange(f"f({a})={fa} and f({b})={fb} have the same sign")

    c, fc = a, fa
    e = d = b - a
    for _ in range(ROOT_MAX_ITER):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol_b = 2.0 * _EPS * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= tol_b or fb == 0.0 or abs(fb) <= tol:
            return b
        if abs(e) < tol_b or abs(fa) <= abs(fb):
            e = d = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s = e
            e = d
            if 2.0 * p < 3.0 * m * q - abs(tol_b * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                e = d = m
        a, fa = b, fb
        if abs(d) > tol_b:
            b += d
        elif m > 0.0:
            b += tol_b
        else:
            b -= tol_b
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            e = d = b - a
    raise MaxIterations(f"no convergence in {ROOT_MAX_ITER} iterations")


def _adaptive_simpson(g, a, fa, m, fm, b, fb, whole, tol, wfloor, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = g(lm), g(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    # a panel this narrow is dominated by rounding noise of the integrand;
    # further halving cannot improve a double-precision evaluation
    if b - a <= wfloor and math.isfinite(err):
        return left + right + err / 15.0
    if depth >= QUAD_MAX_DEPTH:
        raise ToleranceNotMet(
            f"adaptive quadrature exceeded depth {QUAD_MAX_DEPTH} on [{a}, {b}]"
        )
    half = 0.5 * tol
    return _adaptive_simpson(g, a, fa, lm, flm, m, fm, left, half, wfloor, depth + 1) \
        + _adaptive_simpson(g, m, fm, rm, frm, b, fb, right, half, wfloor, depth + 1)


def integrate(f: Callable[[float], float], a: float, b: float, tol: float,
              sqrt_singularity: str | None = None) -> float:
    """Adaptive Simpson quadrature of f over [a, b].

    The result satisfies |result - integral| <= tol * (1 + |result|) for
    smooth integrands; Simpson's rule makes polynomials up to cubics
    exact at the first level.

    sqrt_singularity declares an integrable s**(-1/2) endpoint
    singularity at ``'lower'`` or ``'upper'``; the integral is then
    rewritten with s = t**2 before refinement, which makes the
    transformed integrand bounded.

    Raises ToleranceNotMet when refinement exhausts the depth budget.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if sqrt_singularity not in (None, "lower", "upper"):
        raise ValueError(f"unknown sqrt_singularity flag {sqrt_singularity!r}")
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    if b < a:
        flipped = {None: None, "lower": "upper", "upper": "lower"}[sqrt_singularity]
        return -integrate(f, b, a, tol, sqrt_singularity=flipped)

    if sqrt_singularity is None:
        g = f
        lo, hi = a, b
    else:
        width = b - a
        anchor = a if sqrt_singularity == "lower" else b
        # evaluations are floored at t0 so the endpoint arithmetic never
        # collapses onto the singular point: anchor -+ t0^2 must be
        # representable away from anchor.  the floor turns [0, t0] into a
        # constant plateau whose contribution is O(t0) relative.
        if anchor == 0.0:
            t0 = 1e-150
        else:
            t0 = 1e-5 * max(1.0, math.sqrt(abs(anchor)))
        if sqrt_singularity == "lower":
            def g(t, _f=f, _a=a, _t0=t0):
                tt = max(t, _t0)
                return _f(_a + tt * tt) * (2.0 * tt)
        else:
            def g(t, _f=f, _b=b, _t0=t0):
                tt = max(t, _t0)
                return _f(_b - tt * tt) * (2.0 * tt)
        lo, hi = 0.0, math.sqrt(width)

    mid = 0.5 * (lo + hi)
    flo, fmid, fhi = g(lo), g(mid), g(hi)
    whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
    tol_abs = tol * (1.0 + abs(whole))
    wfloor = 1e-10 * (hi - lo)
    return _adaptive_simpson(g, lo, flo, mid, fmid, hi, fhi, whole, tol_abs, wfloor, 0)


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


def sturm_count(matrix: TridiagonalSymmetric, lam):
    """Number of eigenvalues strictly below lam (Sturm sign count).

    lam may be a scalar or an array of trial values; the LDL^T
    recurrence is vectorised over the trial axis.
    """
    d = matrix.diagonal
    e = matrix.offdiagonal
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    e2 = e * e
    # guards division by an exactly zero pivot only
    pivmin = max(float(e2.max()) if e2.size else 1.0, 1.0) * 2.3e-308
    # zero pivots count as negative, consistent with the -pivmin replacement
    q = d[0] - lam_arr
    count = (q <= 0.0).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(1, d.size):
            q = np.where(np.abs(q) < pivmin, -pivmin, q)
            q = d[i] - lam_arr - e2[i - 1] / q
            count += q <= 0.0
    if np.isscalar(lam) or np.asarray(lam).ndim == 0:
        return int(count[0])
    return count


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


def lowest_eigenvalues(matrix: TridiagonalSymmetric, k: int, atol: float = 1e-10) -> np.ndarray:
    """k smallest eigenvalues, ascending, by LAPACK bisection (dstebz).

    Each level is located to within atol and then certified by one
    vectorised Sturm sweep: level i (1-based) passes only if
    count(E_i - delta) <= i - 1 and count(E_i + delta) >= i, with
    delta = max(atol, 8 eps ||T||) and ||T|| the Gershgorin bound, so
    the margin grows with the rounding of the count itself.  Degenerate
    levels pass.  Raises EigensolverFailure when LAPACK reports an error
    (non-finite entries and levels it could not find included), the
    certificate rejects a level, or the routine cannot be found.
    """
    n = matrix.size
    if not 1 <= k <= n:
        raise DimensionMismatch(f"k={k} outside 1..{n}")
    d = np.ascontiguousarray(matrix.diagonal)
    e = np.ascontiguousarray(matrix.offdiagonal)
    found = np.zeros(1, dtype=np.int64)
    nsplit = np.zeros(1, dtype=np.int64)
    w = np.empty(n)
    iblock = np.empty(n, dtype=np.int64)
    isplit = np.empty(n, dtype=np.int64)
    info = _dstebz()(b"I", b"E", n, 0.0, 0.0, 1, k, atol, d, e,
                     found, nsplit, w, iblock, isplit)
    # with RANGE='I', levels LAPACK could not find come back as info 2 or 3
    if info != 0:
        raise EigensolverFailure(f"LAPACK dstebz returned info={info} (n={n}, k={k})")
    levels = w[:k].copy()

    radius = np.abs(d)
    if n > 1:
        ae = np.abs(e)
        radius[:-1] += ae
        radius[1:] += ae
    delta = max(atol, 8.0 * _EPS * float(radius.max()))
    counts = sturm_count(matrix, np.concatenate([levels - delta, levels + delta]))
    index = np.arange(1, k + 1)
    bad = (counts[:k] > index - 1) | (counts[k:] < index)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise EigensolverFailure(
            f"Sturm certificate rejects level {i + 1} of {k} at {levels[i]!r} (n={n}): "
            f"{counts[i]} below E - {delta:.3g}, {counts[k + i]} below E + {delta:.3g}")
    return levels

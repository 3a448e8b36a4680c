"""Command-line surface: potential/map tables, spectra, and the verify pipeline.

Exit codes are a stable contract: 0 success, 1 residual-gate failure,
2 invalid configuration, 3 coordinate-inversion failure, 4 solver failure.
Reports are regression fixtures: identical configuration (including the
seed) produces byte-identical output, and CSV numbers carry 17 significant
digits.  JSON text is exactly what json.dumps(report, sort_keys=True,
indent=2) would write with nan and +-inf written as null, so it is strict
JSON (no NaN or Infinity tokens).  Table columns are written by
_float_text, a numpy kernel that gives the bytes of "%.17g" % v and
float.__repr__(v) wherever its error bound certifies them; Python's
formatter writes the rest.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import conformal, ginocchio, numerics, pdmsolver, verify
from .masses import MASS_REGISTRY, NonpositiveMass, parse_mass
from .natanzon import OrderingParams
from .numerics import Grid

EXIT_OK = 0
EXIT_GATE_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_INVERSION_FAILURE = 3
EXIT_SOLVER_FAILURE = 4

# potential tables stay finite for gamma in this range; beyond it the
# closed forms overflow (gamma^2 mu, gamma^6) or lose every digit
GAMMA_MIN = 1e-8
GAMMA_MAX = 1e6
# potential tables stay finite for j up to here at the gamma and mass
# range ends; far beyond it gamma^4 j(j + 1) overflows to -inf or nan
J_MAX = 1e6

# bound on the von Roos eta and epsilon: the ordering terms scale as
# eta^2 m'^2/m^3, which stays finite over the registry masses up to here
ORDERING_MAX = 1e6

# LAPACK dstebz squares the off-diagonal entries of the spectrum matrix
# and multiplies neighbouring diagonal entries, so each entry must stay
# below sqrt(DBL_MAX).  The largest is the kinetic diagonal 1/(m h^2) at
# the registry's mass floor m = 1e-6; this is the refined spacing h at
# which it reaches sqrt(DBL_MAX)
SPACING_MIN = 1.0 / math.sqrt(1e-6 * math.sqrt(sys.float_info.max))

DEFAULT_TOLERANCES = {
    "quad": 1e-10,
    "spectrum_gate": 5e-3,
    "eq27_vs_eq34_gate": 1e-9,
    "mass_independence_gate": 2e-3,
}


# library exceptions that end potential, spectrum and verify: 3 when the
# x -> mu -> u coordinate map fails (mu quadrature or its inversion),
# 4 when a solver fails
_FAILURE_EXITS = {
    numerics.ToleranceNotMet: EXIT_INVERSION_FAILURE,
    ginocchio.InversionFailure: EXIT_INVERSION_FAILURE,
    numerics.EigensolverFailure: EXIT_SOLVER_FAILURE,
    NonpositiveMass: EXIT_SOLVER_FAILURE,
}
_FAILURES = tuple(_FAILURE_EXITS)
_FAILURE_NAMES = {EXIT_INVERSION_FAILURE: "coordinate inversion failed",
                  EXIT_SOLVER_FAILURE: "solver failure"}


def _failure_exit(exc: Exception, where: str = "") -> int:
    """Report a library failure on stderr in one line and return its exit code."""
    code = next(c for kind, c in _FAILURE_EXITS.items() if isinstance(exc, kind))
    sys.stderr.write(f"{_FAILURE_NAMES[code]}{where}: {exc}\n")
    return code


class ConfigError(ValueError):
    pass


def _number(text: str, name: str, lo: float, hi: float, kind=float):
    try:
        value = kind(text)
    except ValueError:
        raise ConfigError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {text!r}") from None
    # a nan fails both comparisons
    if not lo <= value <= hi:
        raise ConfigError(f"{name} must lie in [{lo:g}, {hi:g}], got {value}")
    return value


def _parse_ordering(text: str) -> OrderingParams:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"ordering takes 'eta,epsilon', got {text!r}")
    try:
        eta, epsilon = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"ordering must be numeric 'eta,epsilon': {exc}") from exc
    # a nan fails both comparisons
    if not (abs(eta) <= ORDERING_MAX and abs(epsilon) <= ORDERING_MAX):
        raise ConfigError(f"eta and epsilon must lie in [{-ORDERING_MAX:g}, {ORDERING_MAX:g}], "
                          f"got {text!r}")
    return OrderingParams(eta, epsilon)


def _checked_mass(text: str) -> str:
    try:
        parse_mass(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return text


def _parse_grid(text: str) -> Grid:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError("grid takes 'xmin,xmax,N'")
    try:
        return Grid(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


def _one_of(text: str, name: str, choices) -> str:
    if text not in choices:
        raise ConfigError(f"{name} must be one of {', '.join(choices)}, got {text!r}")
    return text


def _parse_tols(items, command: str) -> dict:
    """The command's tolerances: its defaults, overridden by name=value items in order."""
    out = {name: DEFAULT_TOLERANCES[name] for name in COMMANDS[command].tols}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--tol takes name=value, got {item!r}")
        name = name.strip()
        if name not in COMMANDS[command].tols:
            known = ", ".join(COMMANDS[command].tols)
            raise ConfigError(f"{command} reads no tolerance {name!r} (it reads: {known})")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise ConfigError(f"invalid tolerance value in {item!r}: {exc}") from exc
        if not 0.0 < out[name] < math.inf:
            raise ConfigError(f"tolerance {name} must be positive and finite, got {value!r}")
    return out


def _build_config(args: argparse.Namespace) -> argparse.Namespace:
    """Each flag of the command, read from the command line, else the file, else its default."""
    file_values = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        # ValueError covers malformed JSON, bytes that are not UTF-8 and
        # a NUL in the file name
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object of flag values")
        if "config" in file_values:
            raise ConfigError("config file key 'config' is refused: a config file "
                              "cannot name another")
        flags = set(vars(args)) - {"command", "config"}
        unknown = sorted(set(file_values) - flags)
        if unknown:
            raise ConfigError(f"config file keys {unknown} name no flag of {args.command} "
                              f"(known: {', '.join(sorted(flags))})")

    file_tols = file_values.get("tol", {})
    if not isinstance(file_tols, dict):
        raise ConfigError(f"config file tol must be a JSON object of name: value, "
                          f"got {file_tols!r}")
    file_tols = [f"{k}={v}" for k, v in file_tols.items()]
    cfg = argparse.Namespace()
    for name in COMMANDS[args.command].flags:
        flag, text = _FLAGS[name], getattr(args, name)
        if name == "tol":
            cfg.tol = _parse_tols([*file_tols, *(text or [])], args.command)
            continue
        if text is None:
            text = file_values.get(name, flag.default)
            # a JSON number stands for its JSON text; true and false are bools, not numbers
            if flag.number and type(text) in (int, float):
                text = json.dumps(text)
            if name in file_values and not isinstance(text, str):
                kind = "string or number" if flag.number else "string"
                raise ConfigError(f"{name} must be a JSON {kind}, got {json.dumps(text)}")
        setattr(cfg, name, None if text is None else flag.read(text))

    # only potential and spectrum take a grid, and both anchor mu at x = 0
    if "grid" in vars(cfg) and not cfg.grid.x_min <= 0.0 <= cfg.grid.x_max:
        raise ConfigError(f"grid [{cfg.grid.x_min}, {cfg.grid.x_max}] must contain "
                          f"the anchor x = 0")
    # spectrum assembles the grid and its refinement at half the spacing
    if args.command == "spectrum" and 0.5 * cfg.grid.spacing < SPACING_MIN:
        raise ConfigError(f"grid spacing {cfg.grid.spacing:g} is too fine to discretize: "
                          f"its half must be at least {SPACING_MIN:.3g}")
    # spectrum solves for floor(j) + 2 levels on the interior nodes
    if args.command == "spectrum" and cfg.grid.n_points - 2 < math.floor(cfg.j) + 2:
        raise ConfigError(f"grid has {cfg.grid.n_points - 2} interior nodes; spectrum "
                          f"at j = {cfg.j} needs at least {math.floor(cfg.j) + 2}")
    return cfg


def _emit(text: str, output: str | None) -> None:
    if output in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    # ValueError: a NUL in the file name
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot write output file {output!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# float text
#
# _float_text writes a float array as CPython writes each value, "%.17g" % v
# or float.__repr__(v), in a few dozen numpy passes instead of one dtoa call
# per value.  Each normal |v| = m 2^e (m in [0.5, 1)) is scaled to
# y = |v| 10^(16 - k), in [1e16, 1e17) for the right decimal exponent k, as
# a double-double: m times hi + lo, where 10^(16 - k) = (hi + lo) 2^b, by a
# Veltkamp/Dekker product, then times 2^(e + b).  Two roundings of the
# product's tail and the table's own rounding put m (hi + lo) within 2^-105
# of exact, and 2^(e + b) <= 4 y < 2^59, so y is known to 2^-46.5 units of
# its 17th digit; the rounding of y to 17 digits, and repr's test of the
# nearest 16- and 15-digit decimals against the half gap of v in the same
# units, add at most 2^-46.  A decision is taken only where y clears its
# threshold by _DIGIT_CERT.  Python's formatter writes the rest: values
# that near a tie or a round-trip boundary, subnormals, and for repr a
# significand that is a power of two (its gap below is half its gap above).

_VELTKAMP = 2.0 ** 27 + 1.0
# decimal exponents of the normal doubles, and the scales 10^(16 - k) that
# they and one step of correction past either end need
_K_MIN, _K_MAX = -308, 308
_Q_MIN, _Q_MAX = 16 - _K_MAX - 1, 16 - _K_MIN + 1
# 2^-40 units of the 17th digit, over 30 times the bound on a decision's error
_DIGIT_CERT = 2.0 ** -40
_SPECIAL_TEXT = {"%.17g": ("0", "-0", "nan", "inf", "-inf"),
                 "repr": ("0.0", "-0.0", "null", "null", "null")}


@lru_cache(maxsize=None)
def _powers_of_ten():
    """hi, lo, hi's two Veltkamp halves and b of each 10^q from _Q_MIN, and 10^k as doubles.

    Built from exact integers on first use: hi, in [0.5, 1), is the
    correctly rounded 10^q 2^-b and lo the correctly rounded remainder.
    """
    hi, lo, b = [], [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        shift = num.bit_length() - den.bit_length()
        if num << max(-shift, 0) >= den << max(shift, 0):
            shift += 1
        num, den = num << max(-shift, 0), den << max(shift, 0)
        hi.append(num / den)
        lo.append((num * 2 ** 53 - int(hi[-1] * 2.0 ** 53) * den) / (den * 2 ** 53))
        b.append(shift)
    hi = np.array(hi)
    split = _VELTKAMP * hi
    head = split - (split - hi)
    ten = np.array([1 / 10 ** -k if k < 0 else float(10 ** k) if k <= _K_MAX else math.inf
                    for k in range(_K_MIN, _K_MAX + 2)])
    return hi, np.array(lo), head, hi - head, np.array(b), ten


def _scaled(m, e, q):
    """m 2^e 10^q as a double-double (hi, lo), and v's half gap in the same units."""
    hi, lo, head, tail, b, _ = _powers_of_ten()
    i = q - _Q_MIN
    hi, lo, head, tail = (np.take(t, i, mode="clip") for t in (hi, lo, head, tail))
    # 2^(e + b), near 2^57, as the bits of a double
    scale = ((e + np.take(b, i, mode="clip") + 1023).astype(np.int64) << 52).view(np.float64)
    split = _VELTKAMP * m
    m_head = split - (split - m)
    m_tail = m - m_head
    p = m * hi
    s = (((m_head * head - p) + m_head * tail + m_tail * head) + m_tail * tail) + m * lo
    y_hi = p + s
    return y_hi * scale, (s - (y_hi - p)) * scale, hi * scale * 2.0 ** -54


def _certified_digits(a, shortest: bool):
    """Decimal significands d in [1e16, 1e17) of positive normal doubles, their
    exponents k (a ~ d 10^(k - 16)), and where the significand is not certain.

    d holds the 17 digits of "%.17g", or, when shortest, the digits of repr
    padded with zeros.
    """
    m, e = np.frexp(a)
    # floor((e - 1) log10 2) is k or k - 1; the test against 10^(k + 1) as a
    # double leaves k wrong only next to a power of ten, where the range
    # check of d below moves it
    k = ((e - 1) * 78913) >> 18
    k += a >= np.take(_powers_of_ten()[5], k + 1 - _K_MIN, mode="clip")
    y_hi, y_lo, half_gap = _scaled(m, e, 16 - k)
    rounded = np.rint(y_lo)
    d = y_hi.astype(np.int64) + rounded.astype(np.int64)
    f = y_lo - rounded  # exact: y = d + f
    uncertain = np.zeros(a.shape, bool)
    moved = slice(None)
    for _ in range(2):
        # a rounding tie, or the tie of 10 y at the next k down
        uncertain[moved] |= ((np.abs(np.abs(f[moved]) - 0.5) <= _DIGIT_CERT)
                             | (np.abs(f[moved] + 0.05) <= _DIGIT_CERT))
        # y below 1e16 - 0.05 rounds to 17 digits at the next k down, y at
        # or above 1e17 - 0.5 to 1e16 at the next k up
        step = (d >= 10 ** 17).astype(np.int32) - (
            (d < 10 ** 16) | ((d == 10 ** 16) & (f < -0.05)))
        moved = np.flatnonzero(step)
        if not moved.size:
            break
        k[moved] += step[moved]
        y_hi, y_lo, half_gap[moved] = _scaled(m[moved], e[moved], 16 - k[moved])
        rounded = np.rint(y_lo)
        d[moved] = y_hi.astype(np.int64) + rounded.astype(np.int64)
        f[moved] = y_lo - rounded
    else:
        # k0 is off by at most one, so one move settles every value
        uncertain[moved] = True
    if shortest:
        # the nearest 16- and 15-digit decimals; the shorter one within the
        # half gap reads back as a, and no other decimal of its length does.
        # The half gap is below 11.2 units, so of the ties only the 16-digit
        # one can decide
        pick = d
        for unit in (10, 100):
            r = d - d // unit * unit
            c = d - r + unit * ((2 * r > unit) | ((2 * r == unit) & (f > 0)))
            distance = np.abs((c - d) - f)
            uncertain |= np.abs(distance - half_gap) <= _DIGIT_CERT
            uncertain |= (2 * r == unit) & (np.abs(f) <= _DIGIT_CERT)
            pick = np.where(distance < half_gap, c, pick)
        d = pick
        carry = d == 10 ** 17
        d[carry] = 10 ** 16
        k[carry] += 1
        uncertain |= (a.view(np.uint64) & np.uint64(2 ** 52 - 1)) == 0
    return d, k, uncertain


def _word(text: str) -> int:
    """text, at most 8 ASCII characters, as a little-endian uint64."""
    return int.from_bytes(text.encode().ljust(8, b"\0"), "little")


# the first of the 17 digits each digit word holds
_WORD_STARTS = (1, 5, 9, 13)


@lru_cache(maxsize=None)
def _digit_tables():
    """Digit words and masks, keyed by 4-digit group or by (printed digits, point).

    A digit word holds four digits at its odd bytes, each after the place
    of a point.  quad[g] is group g's word, lengths[w][g] the digit count a
    value has when g is its last nonzero group and word w holds it, and
    keep[w], dots[w] are word w's AND and OR masks for key 18 L + t: L
    printed digits and a point after digit t (17: none).
    """
    g = np.arange(10000)
    quad = sum((48 + g // 10 ** (3 - i) % 10).astype(np.uint64) << np.uint64(8 + 16 * i)
               for i in range(4))
    tail_zeros = np.zeros(10000, np.int64)
    for unit in (10, 100, 1000):
        tail_zeros += g % unit == 0
    lengths = [np.where(g == 0, 1, start + 4 - tail_zeros) for start in _WORD_STARTS]
    key = np.arange(18 * 18)
    printed, point = key // 18, key % 18
    masks = np.array([0, 2 ** 16 - 1, 2 ** 32 - 1, 2 ** 48 - 1, 2 ** 64 - 1], dtype=np.uint64)
    keep = [masks[np.clip(printed - start, 0, 4)] for start in _WORD_STARTS]
    dots = [np.where((point < 17) & (point // 4 == w), 46 << 16 * (point % 4), 0).astype(np.uint64)
            for w in range(4)]
    return quad, lengths, keep, dots


@lru_cache(maxsize=None)
def _text_tables(fmt: str):
    """Per format: the exponent word of each k, the lead words, the special values' words."""
    sci_from = 16 if fmt == "repr" else 17
    exp = np.array([_word("\0e%+03d" % k) if not -4 <= k < sci_from else 0
                    for k in range(_K_MIN, _K_MAX + 1)], dtype=np.uint64)
    lead = np.array([_word("\0" + sign + zeros) for sign in ("", "-")
                     for zeros in ("", "0.", "0.0", "0.00", "0.000")], dtype=np.uint64)
    special = np.array([0] + [_word("\0" + text) for text in _SPECIAL_TEXT[fmt]], dtype=np.uint64)
    return exp, lead, special, sci_from


# values per _float_slots call: its arrays take about 300 bytes a value, so
# a 2401-row table costs 2 MB at a time, not 6, and no more time
_CHUNK = 2 ** 13


def _float_text(values: np.ndarray, fmt: str, sep: str, row_sep: str) -> str:
    """row_sep.join(sep.join(text(v) for v in row) for row in values); 1-d values are one row.

    text is "%.17g" % v for fmt "%.17g" and float.__repr__ for "repr",
    where nan and +-inf are null.
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    flat = values.ravel()
    return "".join(_float_slots(flat[i:i + _CHUNK], i, values.shape[1], fmt, sep, row_sep)
                   for i in range(0, flat.size, _CHUNK))


def _float_slots(v: np.ndarray, start: int, row: int, fmt: str, sep: str, row_sep: str) -> str:
    """The text of v, values start on of a table with rows of row values, in one kernel pass.

    Each value is preceded by its separator: none for value 0, row_sep
    where a row starts, sep elsewhere.  Each value gets a slot of uint64
    words laid out by its class, the zero bytes of the slots are dropped
    once and the rest decoded once.  A slot is: the separator (its last
    byte shares the lead word); the lead word (sign, the "0.000" of a fixed
    value below 1, the first digit); four digit words, with the place of a
    point before each digit; and, if any value needs one, the exponent.
    """
    n = v.size
    a = np.abs(v)
    neg = np.signbit(v)
    normal = (a >= sys.float_info.min) & (a <= sys.float_info.max)
    all_normal = normal.all()
    d, k, uncertain = _certified_digits(a if all_normal else np.where(normal, a, 1.0),
                                        fmt == "repr")
    ok = ~uncertain if all_normal else normal & ~uncertain
    exp, lead, special, sci_from = _text_tables(fmt)
    quad, lengths, keep, dots = _digit_tables()

    sci = (k < -4) | (k >= sci_from)
    # words of separator before the lead word, whose first byte ends it
    lead_at = -(-(max(len(sep), len(row_sep), 1) - 1) // 8)
    words = np.zeros((lead_at + 5 + bool(sci.any()), n), np.uint64)

    # the 17 digits: the first in the lead word, then four groups of four
    first = d // 10 ** 16
    rest = d - first * 10 ** 16
    upper = rest // 10 ** 8
    digits = np.ones(n, np.int64)
    for w, half in ((0, upper), (2, rest - upper * 10 ** 8)):
        top = half // 10 ** 4
        for word, group in ((w, top), (w + 1, half - top * 10 ** 4)):
            np.take(quad, group, out=words[lead_at + 1 + word], mode="clip")
            np.maximum(digits, np.take(lengths[word], group, mode="clip"), out=digits)
    below_one = ~sci & (k < 0)
    # printed digits: trailing zeros up to the point, and a repr integer's ".0"
    whole = np.where(digits > k + 1, digits, k + 2) if fmt == "repr" else np.maximum(digits, k + 1)
    printed = np.where(sci | below_one, digits, whole)
    point = np.where(sci, 0, k)
    key = printed * 18 + np.where(below_one | (printed <= point + 1), 17, point)
    for w in range(4):
        words[lead_at + 1 + w] &= np.take(keep[w], key, mode="clip")
        words[lead_at + 1 + w] |= np.take(dots[w], key, mode="clip")
    words[lead_at] = (first.astype(np.uint64) + np.uint64(48)) << np.uint64(56)
    words[lead_at] |= np.take(lead, neg * 5 + np.where(below_one, -k, 0), mode="clip")
    if len(words) > lead_at + 5:
        words[-1] = np.take(exp, k - _K_MIN, mode="clip")

    bad = np.flatnonzero(~ok)
    if bad.size:
        words[lead_at:, bad] = 0
        vb, nb = v[bad], neg[bad]
        words[lead_at, bad] = special[np.where(vb == 0, 1 + nb, np.where(
            np.isnan(vb), 3, np.where(np.isinf(vb), 4 + nb, 0)))]
        # Python writes each distinct value the kernel cannot certify once
        python = bad[(vb != 0) & np.isfinite(vb)]
        if python.size:
            distinct, where = np.unique(v[python], return_inverse=True)
            one = float.__repr__ if fmt == "repr" else "%.17g".__mod__
            texts = np.array([one(x).encode() for x in distinct.tolist()], dtype="S24")
            words[lead_at + 1:lead_at + 4, python] = texts.view(np.uint64).reshape(-1, 3)[where].T

    place = np.arange(start, start + n)
    which = np.where(place % row == 0, 2, 1)
    which[place == 0] = 0
    width = 8 * lead_at + 1
    padded = [("\0" * width + text)[-width:] for text in ("", sep, row_sep)]
    for i in range(lead_at + 1):
        sep_words = np.array([_word(text[8 * i:8 * i + 8]) for text in padded], dtype=np.uint64)
        words[i] |= np.take(sep_words, which)
    return np.ascontiguousarray(words.T).tobytes().translate(None, b"\0").decode("ascii")


def _csv_text(columns: dict) -> str:
    """The columns as CSV, one per key in order, under a header of their keys.

    Each number is "%.17g" % v, nan and inf included, from one _float_text
    call over the whole table.
    """
    table = np.column_stack(list(columns.values()))
    body = _float_text(table, "%.17g", ",", "\n") + "\n" if len(table) else ""
    return ",".join(columns) + "\n" + body


_json_str = json.encoder.encode_basestring_ascii


def _json_text(payload) -> str:
    """Every JSON report goes through here, so each one is strict JSON.

    The text is exactly what json.dumps(payload, sort_keys=True, indent=2)
    writes once nan and +-inf are replaced by null, numpy scalars by
    their Python values and arrays by lists, in one pass.  Keys are
    strings.  Each 1-d float array is written by _float_text, the float
    columns of one length in a dict by one call; scalars and lists, as in
    spectrum and verify reports, take float.__repr__.
    """
    return _json_value(payload, "\n") + "\n"


def _float_column(obj) -> bool:
    return isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "f" and obj.size > 0


def _json_value(obj, newline: str) -> str:
    """obj as json.dumps writes it; newline is a line break and the indent obj starts at."""
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return _json_str(obj)
    # bool before int: True is an int
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return float.__repr__(value) if math.isfinite(value) else "null"
    if _float_column(obj):
        return _float_columns([obj], newline)[0]
    if isinstance(obj, np.ndarray):
        return _json_value(obj.tolist(), newline)
    inner = newline + "  "
    if isinstance(obj, dict):
        brackets = "{}"
        keys = sorted(obj)
        # a dict's float columns of one length share one kernel call
        by_length = {}
        for key in keys:
            if _float_column(obj[key]):
                by_length.setdefault(obj[key].size, []).append(key)
        texts = {}
        for group in by_length.values():
            texts.update(zip(group, _float_columns([obj[key] for key in group], inner)))
        items = [f"{_json_str(key)}: {texts[key] if key in texts else _json_value(obj[key], inner)}"
                 for key in keys]
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        items = [_json_value(v, inner) for v in obj]
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _float_columns(columns: list, newline: str) -> list:
    """The JSON text of each nonempty float column, all of one length."""
    inner = newline + "  "
    # "|" is in no number and no separator, so it splits the columns apart
    body = _float_text(np.stack(columns), "repr", "," + inner, "|")
    return [f"[{inner}{text}{newline}]" for text in body.split("|")]


# ---------------------------------------------------------------------------
# map


def cmd_map(cfg: argparse.Namespace) -> int:
    half = conformal.BAND_HALF_WIDTH
    re, im = np.meshgrid(np.linspace(-half, half, 21), np.linspace(-2.0, 2.0, 21), indexing="ij")
    z = np.ravel(re + 1j * im)
    # third derivative of tan peaks at the band edge; h = 1e-5 keeps the
    # truncation well under the residual gate
    res = conformal.conformality_residual(conformal.strip_to_disk, z, h=1e-5)
    w = conformal.strip_to_disk(z)
    text = _csv_text({"z_re": z.real, "z_im": z.imag, "w_re": w.real, "w_im": w.imag,
                      "cr_residual": res})
    _emit(text, cfg.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# potential


def cmd_potential(cfg: argparse.Namespace) -> int:
    try:
        table = ginocchio.potential_on_x_grid(
            cfg.gamma, cfg.j, parse_mass(cfg.mass), cfg.ordering, cfg.grid,
            tol=cfg.tol["quad"],
        )
    except _FAILURES as exc:
        return _failure_exit(exc)
    text = _json_text({**table, "gamma": cfg.gamma, "j": cfg.j, "mass": cfg.mass}) \
        if cfg.format == "json" else _csv_text(table)
    _emit(text, cfg.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(cfg: argparse.Namespace) -> int:
    try:
        report = pdmsolver.verify_spectrum(
            cfg.gamma, cfg.j, parse_mass(cfg.mass), cfg.ordering, cfg.grid,
            quad_tol=cfg.tol["quad"],
        )
    except _FAILURES as exc:
        return _failure_exit(exc)

    tol = cfg.tol
    fit = report["best_fit_index_map"]
    matched = fit["pairs"] if fit.get("status") == "MATCHED" else []
    gates = []
    if matched:
        gates.append(("index_map_mismatch", fit["max_mismatch"], tol["spectrum_gate"]))
    finite_qc = [r for r in report["residuals"]["eq27_vs_eq34"] if math.isfinite(r)]
    if finite_qc:
        gates.append(("eq27_vs_eq34", max(finite_qc), tol["eq27_vs_eq34_gate"]))
    mi = report["mass_independence"]["max_diff"]
    if mi is not None:
        gates.append(("mass_independence", mi, tol["mass_independence_gate"]))

    # coverage is the one lower bound: a run that compares no analytic
    # level with a numeric one fails instead of passing on no evidence
    report["gates"] = [{"name": "coverage", "measured": len(matched), "threshold": 1,
                        "passed": bool(matched)}] + [
        {"name": name, "measured": measured, "threshold": threshold,
         "passed": bool(measured <= threshold)}
        for name, measured, threshold in gates
    ]
    _emit(_json_text(report), cfg.output)
    return EXIT_OK if all(g["passed"] for g in report["gates"]) else EXIT_GATE_FAILURE


# ---------------------------------------------------------------------------
# verify


def cmd_verify(cfg: argparse.Namespace) -> int:
    modules = (cfg.only,) if cfg.only else verify.SUITES
    report = {"seed": cfg.seed, "modules": {}}
    all_hard = True
    for name in modules:
        rng = np.random.default_rng(cfg.seed)
        try:
            checks = verify.SUITES[name](cfg.tol, rng)
        except _FAILURES as exc:
            return _failure_exit(exc, f" in the {name} suite")
        hard_ok = all(c["passed"] for c in checks if c["kind"] == "hard")
        all_hard = all_hard and hard_ok
        report["modules"][name] = {"checks": checks, "hard_passed": hard_ok}
    report["hard_gates_passed"] = all_hard
    _emit(_json_text(report), cfg.output)
    return EXIT_OK if all_hard else EXIT_GATE_FAILURE


# ---------------------------------------------------------------------------
# argument parsing


class Flag(NamedTuple):
    options: tuple
    help: str
    # the text read when neither the command line nor the config file gives one
    default: str | None
    read: Callable[[str], object] = str
    # a config file may give the value as a JSON number instead of a string
    number: bool = False


_FLAGS = {
    "gamma": Flag(("--gamma",), f"deformation parameter gamma in [{GAMMA_MIN:g}, {GAMMA_MAX:g}]",
                  "1", lambda text: _number(text, "gamma", GAMMA_MIN, GAMMA_MAX), number=True),
    "j": Flag(("--j",), f"potential-strength label j in [0, {J_MAX:g}]", "2",
              lambda text: _number(text, "j", 0.0, J_MAX), number=True),
    "ordering": Flag(("--ordering",), f"von Roos parameters 'eta,epsilon' (rho = -1 - eta - "
                                      f"epsilon); |eta|, |epsilon| <= {ORDERING_MAX:g}",
                     "0,-1", _parse_ordering),
    "mass": Flag(("--mass",), "mass profile 'name' or 'name:param' with the param in "
                 + ", ".join(f"[{lo:g}, {hi:g}] for {name}"
                             for name, (_, (lo, hi)) in MASS_REGISTRY.items()),
                 "constant", _checked_mass),
    "grid": Flag(("--grid",), "grid 'xmin,xmax,N'", "-12,12,1201", _parse_grid),
    "format": Flag(("--format",), "output format: csv or json", None,
                   lambda text: _one_of(text, "format", ("csv", "json"))),
    "tol": Flag(("--tol",), "tolerance override, repeatable", None),
    "only": Flag(("--only",), f"restrict verify to one module suite: {', '.join(verify.SUITES)}",
                 None, lambda text: _one_of(text, "only", verify.SUITES)),
    # numpy seeds its generators from non-negative integers only
    "seed": Flag(("--seed",), "seed for sampled checks (reports embed it)", "0",
                 lambda text: _number(text, "seed", 0, math.inf, int), number=True),
    "config": Flag(("--config",), "JSON file of flag values; explicit flags win", None),
    "output": Flag(("--output", "-o"), "output file (default: stdout)", None),
}


class Command(NamedTuple):
    run: Callable[[argparse.Namespace], int]
    help: str
    flags: tuple
    tols: tuple = ()


# the one declaration of what each command reads: it takes no other flag,
# and a --tol name or config-file key outside it exits 2
COMMANDS = {
    "map": Command(cmd_map, "tabulate the band-to-disk conformal map with residuals",
                   ("config", "output")),
    "potential": Command(cmd_potential, "tabulate the potential V_hyp + Um on the physical grid",
                         ("gamma", "j", "ordering", "mass", "grid", "format", "tol",
                          "config", "output"), ("quad",)),
    "spectrum": Command(cmd_spectrum, "numeric vs analytic bound-state spectra as JSON",
                        ("gamma", "j", "ordering", "mass", "grid", "tol", "config",
                         "output"), tuple(DEFAULT_TOLERANCES)),
    "verify": Command(cmd_verify, "run the module property suites and report residuals",
                      ("tol", "only", "seed", "config", "output"),
                      ("quad", "mass_independence_gate")),
}


# built once per process: parse_args keeps its results in a new namespace
# each call and leaves the parser as it was
@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="natpdm",
        description="Natanzon-class potentials in a position-dependent-mass "
                    "background: tables, spectra, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for name in command.flags:
            flag = _FLAGS[name]
            if name == "tol":
                p.add_argument(*flag.options, action="append", metavar="NAME=VALUE",
                               help=f"{flag.help}; names: {', '.join(command.tols)}")
            else:
                p.add_argument(*flag.options, help=flag.help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = None
    try:
        cfg = _build_config(args)
        return COMMANDS[args.command].run(cfg)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG_ERROR
    except MemoryError:
        # only a grid's arrays grow with the input; a kill by the kernel's
        # OOM killer ends the process before Python can raise this
        grid = getattr(cfg, "grid", None)
        named = f"grid {grid.x_min:g},{grid.x_max:g},{grid.n_points}" if grid else "the run"
        sys.stderr.write(f"config error: {named} needs more memory than can be allocated\n")
        return EXIT_CONFIG_ERROR


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

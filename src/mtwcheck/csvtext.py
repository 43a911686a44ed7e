"""CSV text of float64 blocks, byte for byte as "%.17g" formats each value.

format_rows(values, ncols) returns the bytes of

    ",".join("%.17g" % x for x in row) + "\\r\\n"

for each row of ncols values, in order: the bytes csv.writer gives for those
strings, since none of them needs quoting.

Digits.  A finite nonzero x is |x| = m * 2**ex with 0.5 <= m < 1
(np.frexp).  For the X0 with 10**X0 <= 2**(ex-1) < 10**(X0+1), the decimal
exponent X of x is X0, or X0 + 1 when |x| >= 10**(X0+1); that test compares
|x| with the smallest double at or above 10**(X0+1), so it is exact.  The 17
significant digits are N = round(S), with

    S = m * T,   T = 2**ex * 10**(16 - X),   10**16 <= S < 10**17,

except that S may round to 10**17, which becomes 10**16 with X + 1.  T is
held as hi + lo, hi = fl(T) and lo = fl(T - hi), both by exact integer
division, built for the exponents present and cached per exponent.  m * hi
is formed exactly as p + e by Dekker's product, and q = e + m * lo, so that
S = p + q with p an integer (p > 2**53).

Error bound.  |lo - (T - hi)| <= 2**-49, and the roundings of m * lo and of
e + m * lo add at most 2**-49 and 2**-48, so |S - (p + q)| < 2**-47, below
2**-45.  N = p + floor(q) + (frac(q) > 1/2) is therefore the correctly
rounded value unless the fraction of S lies within 2**-45 of 1/2.  Every
value whose computed fraction lies within 1e-6 of 1/2, exact ties such as
1234567890123456.75 included, is formatted by "%.17g" % x instead.

Assembly.  Each value gets a 32-byte slot of NUL-padded text, written as
whole words taken from small tables:

    bytes 0-7    sign and lead ("-", "0.000", "0", "nan", "-inf", ...) with
                 the first digit, and the point after it in exponent form
    bytes 8-23   the other 16 digits, four per word, trailing zeros NUL
    bytes 24-31  exponent and separator ("e-05,", "\\r\\n", ...)

Fixed form with 10 <= |x| < 10**17 puts the point after digit X instead:
digits 1..X are copied in one byte left of their place, from an unstripped
copy, and the byte after them becomes "." or NUL.  Dropping the NUL bytes
gives the text.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1: Dekker's split of a double into halves
_TIE_GUARD = 1e-6
_WIDTH = 32
_GROUP = 10 ** 4

# decimal exponents of %.17g: 4.9406564584124654e-324 .. 1.7976931348623157e+308
_EXP_MIN, _EXP_MAX = -324, 308
# lead kinds: 0 none; 1-4 "0." to "0.000" (X = -1..-4); then the specials
_LEADS = ("", "0.", "0.0", "0.00", "0.000", "0", "nan", "inf")
_ZERO, _NAN, _INF = 5, 6, 7


def _words(texts, width):
    """The NUL-padded ASCII of texts as one native unsigned word each."""
    raw = b"".join(t.encode().ljust(width, b"\0") for t in texts)
    return np.frombuffer(raw, dtype=np.dtype(f"u{width}")).copy()


def _lead_text(sign, kind, digit, point):
    if kind >= _ZERO:
        return sign + _LEADS[kind]
    if kind:  # "0.00" and the first digit in byte 7
        return (sign + _LEADS[kind]).ljust(7, "\0") + str(digit)
    return sign.ljust(6, "\0") + str(digit) + ("." if point else "")


# word 0 of a slot, at sign * 160 + kind * 20 + first digit * 2 + point
_LEAD_WORDS = _words([_lead_text(sign, kind, digit, point) for sign in ("", "-")
                      for kind in range(len(_LEADS)) for digit in range(10)
                      for point in (0, 1)], 8)


def _digit_groups():
    """uint32 words of the groups 0000..9999 as printed, then the same with
    their trailing zeros NUL."""
    d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    text = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), axis=-1).reshape(-1, 4)
    trailing = np.logical_and.accumulate(text[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    stripped = np.where(trailing, np.uint8(0), text)
    return np.concatenate([text, stripped]).view(np.uint32).ravel()


_GROUP_WORDS = _digit_groups()

# per slot: 0 for no exponent, X - _EXP_MIN + 1 for X in [_EXP_MIN, _EXP_MAX],
# then zero, nan and inf
_X = np.arange(_EXP_MIN - 1, _EXP_MAX + 1)
_FIXED = (_X >= -4) & (_X < 17)
_SPECIAL_SLOT = len(_X) - _ZERO  # the slot of special kind k is _SPECIAL_SLOT + k
_LEAD_OF = np.concatenate([np.where(_FIXED & (_X < 0), -_X, 0), [_ZERO, _NAN, _INF]]) * 20
_DOT_OF = np.concatenate([np.where(_FIXED, np.maximum(_X, -1), 0), [-1, -1, -1]])
_EXP_OF = np.concatenate([np.where(_FIXED, 0, np.arange(len(_X))), [0, 0, 0]]) * 2
# word 3 of a slot, at exponent slot * 2 + is-last-column
_EXP_WORDS = _words([exp + sep for exp in [""] + ["e%+03d" % x for x in _X[1:]]
                     for sep in (",", "\r\n")], 8)
_SLOTS = np.arange(1, 17)


def _ratio(base, k):
    """base**k as (numerator, denominator)."""
    return (base ** k, 1) if k >= 0 else (1, base ** -k)


@functools.lru_cache(maxsize=None)
def _binade(ex):
    """The scales of the values m * 2**ex, 0.5 <= m < 1.

    Returns a (5, 2) array: column 0 for the values below 10**(X0+1),
    column 1 for the others; its rows are the threshold (the smallest double
    at or above 10**(X0+1)), the slot of X, and hi_h, hi_l, lo, with
    hi_h + hi_l = hi.
    """
    # 10**x0 <= 2**e < 10**(x0+1); no power of 2 above 1 is one of 10
    e = ex - 1
    x0 = len(str(2 ** e)) - 1 if e >= 0 else -len(str(2 ** -e))
    num, den = _ratio(10, x0 + 1)
    threshold = num / den
    a, b = threshold.as_integer_ratio()
    if a * den < num * b:
        threshold = math.nextafter(threshold, math.inf)
    out = np.empty((5, 2))
    for col, x in enumerate((x0, x0 + 1)):
        (c, d), (f, g) = _ratio(2, ex), _ratio(10, 16 - x)
        num, den = c * f, d * g
        hi = num / den
        a, b = hi.as_integer_ratio()
        hi_h = _SPLITTER * hi - (_SPLITTER * hi - hi)
        out[:, col] = (threshold, x - _EXP_MIN + 1, hi_h, hi - hi_h,
                       (num * b - a * den) / (den * b))
    return out


def _scales(ex):
    """The columns of _binade for the exponents in ex, side by side in a
    (5, 2 * span) table, and each value's column for X0."""
    low = int(ex.min())
    cols = 2 * (ex - low)
    present = np.zeros(int(ex.max()) - low + 1, dtype=bool)
    present[cols // 2] = True
    table = np.empty((5, 2 * len(present)))
    for i in np.flatnonzero(present).tolist():
        table[:, 2 * i:2 * i + 2] = _binade(low + i)
    return table, cols


def format_rows(values, ncols):
    """The CSV bytes of values, a row-major float64 block of ncols columns."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    n = len(x)
    if n % ncols:
        raise ValueError(f"{n} values do not fill rows of {ncols}")
    ax = np.abs(x)
    finite = (ax > 0.0) & (ax < np.inf)
    plain = bool(finite.all())
    m, ex = np.frexp(ax)
    if not plain:
        m[~finite] = 0.5
        ex[~finite] = 1

    # N = round(S), 10**16 <= N < 10**17, by S = p + q in double-double
    table, cols = _scales(ex)
    cols += ax >= table[0].take(cols)
    slot, hi_h, hi_l, lo = table[1:].take(cols, axis=1)
    hi = hi_h + hi_l
    p = m * hi
    mc = _SPLITTER * m
    m_h = mc - (mc - m)
    m_l = m - m_h
    q = ((m_h * hi_h - p) + m_h * hi_l + m_l * hi_h) + m_l * hi_l + m * lo
    floor_q = np.floor(q)
    frac = q - floor_q
    N = p.astype(np.int64) + floor_q.astype(np.int64) + (frac > 0.5)
    slot = slot.astype(np.int64)
    carry = N == 10 ** 17
    if carry.any():
        N[carry] = 10 ** 16
        slot += carry
    fallback = np.abs(frac - 0.5) < _TIE_GUARD
    if not plain:
        N[~finite] = 0
        fallback &= finite
        slot[~finite] = _SPECIAL_SLOT + np.where(np.isnan(x), _NAN,
                                                 np.where(ax == 0.0, _ZERO, _INF))[~finite]

    # N is d0 g1 g2 g3 g4, g_k of 4 digits; tail_k: the groups after g_k are 0
    high = N // 10 ** 8
    g4 = N - high * 10 ** 8
    g3 = g4 // _GROUP
    g4 -= g3 * _GROUP
    g1 = high // _GROUP
    g2 = high - g1 * _GROUP
    d0 = g1 // _GROUP
    g1 -= d0 * _GROUP
    tail3 = g4 == 0
    tail2 = tail3 & (g3 == 0)
    tail1 = tail2 & (g2 == 0)
    point = ~(tail1 & (g1 == 0))

    W = np.zeros((n, _WIDTH), dtype=np.uint8)
    W64, W32 = W.view(np.uint64), W.view(np.uint32)
    sign = np.signbit(x) & (x == x)  # "%.17g" prints nan unsigned
    W64[:, 0] = _LEAD_WORDS.take(sign * 160 + _LEAD_OF.take(slot) + d0 * 2 + point)
    W32[:, 2] = _GROUP_WORDS.take(g1 + _GROUP * tail1)
    W32[:, 3] = _GROUP_WORDS.take(g2 + _GROUP * tail2)
    W32[:, 4] = _GROUP_WORDS.take(g3 + _GROUP * tail3)
    W32[:, 5] = _GROUP_WORDS.take(g4 + _GROUP)

    dot_at = _DOT_OF.take(slot)
    wide = np.flatnonzero(dot_at > 0)
    if len(wide):
        # fixed form above 10: digits 1..dot_at go one byte left, into
        # bytes 7..6+dot_at, and the point after them if a digit follows
        at = dot_at[wide]
        rows = np.arange(len(wide))
        sub = W[wide]
        digits = np.empty((len(wide), 16), dtype=np.uint8)  # 1..16 unstripped
        for k, g in enumerate((g1, g2, g3, g4)):
            digits.view(np.uint32)[:, k] = _GROUP_WORDS.take(g[wide])
        dot = np.where(sub[rows, 8 + at] != 0, np.uint8(ord(".")), np.uint8(0))
        np.copyto(sub[:, 7:23], digits, where=_SLOTS <= at[:, None])
        sub[rows, 7 + at] = dot
        W[wide] = sub

    exp = _EXP_OF.take(slot).reshape(-1, ncols)
    exp[:, -1] += 1
    W64[:, 3] = _EXP_WORDS.take(exp.ravel())

    for i in np.flatnonzero(fallback).tolist():
        text = ("%.17g" % x[i] + ("\r\n" if i % ncols == ncols - 1 else ",")).encode()
        W[i] = 0
        W[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return W.tobytes().translate(None, b"\0")

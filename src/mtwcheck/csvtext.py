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
division.  A table with a pair of columns per exponent ex, for X0 and X0 + 1,
holds the threshold, hi and lo; a column pair is computed the first time a
block has a value of its exponent, and the table lives for the process.
m * hi is formed exactly as p + e by Dekker's product, and q = e + m * lo,
so that S = p + q with p an integer (p > 2**53).

Error bound.  |lo - (T - hi)| <= 2**-49, and the roundings of m * lo and of
e + m * lo add at most 2**-49 and 2**-48, so |S - (p + q)| < 2**-47; with
|q| < 24, forming r = q + 1/2 adds at most 2**-48, so |S + 1/2 - (p + r)| <
2**-46.  N = p + floor(r) is therefore the correctly rounded value unless the
fraction of S lies within 2**-46 of 1/2.  Every value whose r lies within
1e-6 of an integer, exact ties such as 1234567890123456.75 included, is
formatted by "%.17g" % x instead.

Zero needs no case of its own: np.frexp gives m = 0 and ex = 0, so N = 0 in
the fixed form of X = -1, whose lead with first digit 0 is "0".  inf and nan
get m = 0 as well, and slots of their own.

Assembly.  Each value gets a 32-byte slot of NUL-padded text, every byte of
it written as whole words taken from small tables:

    bytes 0-7    sign and lead ("-", "0.000", "0", "nan", "-inf", ...) with
                 the first digit, and the point after it in exponent form
    bytes 8-23   the other 16 digits, four per word, trailing zeros NUL
    bytes 24-31  exponent and separator ("e-05,", "\\r\\n", ...)

The four digit groups of all values are split and looked up as one (4, n)
array.  Fixed form with 10 <= |x| < 10**17 puts the point after digit X
instead: digits 1..X are copied in one byte left of their place, from an
unstripped copy, and the byte after them becomes "." or NUL.  Dropping the
NUL bytes gives the text.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InputError

_SPLITTER = 134217729.0  # 2**27 + 1: Dekker's split of a double into halves
_TIE_GUARD = 1e-6
_WIDTH = 32
_GROUP = 10 ** 4

# decimal exponents of %.17g: 4.9406564584124654e-324 .. 1.7976931348623157e+308
_EXP_MIN, _EXP_MAX = -324, 308
# np.frexp's exponents of the finite nonzero doubles, subnormals included
_FREXP_MIN, _FREXP_MAX = -1073, 1024
# lead kinds: 0 none; 1-4 "0." to "0.000" (X = -1..-4); then nan and inf
_LEADS = ("", "0.", "0.0", "0.00", "0.000", "nan", "inf")
_NAN, _INF = 5, 6


def _words(texts, width):
    """The NUL-padded ASCII of texts as one native unsigned word each."""
    raw = b"".join(t.encode().ljust(width, b"\0") for t in texts)
    return np.frombuffer(raw, dtype=np.dtype(f"u{width}")).copy()


def _lead_text(sign, kind, digit, bare):
    if kind == _NAN:  # "%.17g" prints nan unsigned
        return _LEADS[kind]
    if kind == _INF:
        return sign + _LEADS[kind]
    if kind == 1 and digit == 0:  # zero: N = 0 in the slot of X = -1
        return sign + "0"
    if kind:  # "0.00" and the first digit in byte 7
        return (sign + _LEADS[kind]).ljust(7, "\0") + str(digit)
    return sign.ljust(6, "\0") + str(digit) + ("" if bare else ".")


# word 0 of a slot, at sign * 140 + kind * 20 + first digit * 2 + bare, where
# bare means that no digit follows the first
_LEAD_WORDS = _words([_lead_text(sign, kind, digit, bare) for sign in ("", "-")
                      for kind in range(len(_LEADS)) for digit in range(10)
                      for bare in (0, 1)], 8)


def _digit_groups():
    """uint32 words of the groups 0000..9999 as printed, then the same with
    their trailing zeros NUL."""
    d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    text = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), axis=-1).reshape(-1, 4)
    trailing = np.logical_and.accumulate(text[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    stripped = np.where(trailing, np.uint8(0), text)
    return np.concatenate([text, stripped]).view(np.uint32).ravel()


_GROUP_WORDS = _digit_groups()

# per slot: 0 unused, X - _EXP_MIN + 1 for X in [_EXP_MIN, _EXP_MAX], then
# nan and inf
_X = np.arange(_EXP_MIN - 1, _EXP_MAX + 1)
_FIXED = (_X >= -4) & (_X < 17)
_SPECIAL_SLOT = len(_X) - _NAN  # the slot of special kind k is _SPECIAL_SLOT + k
_SLOT_X0 = -_EXP_MIN + 1  # the slot of X = 0
_LEAD_OF = np.concatenate([np.where(_FIXED & (_X < 0), -_X, 0), [_NAN, _INF]]) * 20
# word 3 of a slot, at slot: exponent and ",", or "\r\n" in the last column
_EXPS = ["" if fixed else "e%+03d" % x for x, fixed in zip(_X, _FIXED)] + ["", ""]
_EXP_WORDS = _words([exp + "," for exp in _EXPS], 8)
_EXP_LAST_WORDS = _words([exp + "\r\n" for exp in _EXPS], 8)
_SLOTS = np.arange(1, 17)


def _ratio(base, k):
    """base**k as (numerator, denominator)."""
    return (base ** k, 1) if k >= 0 else (1, base ** -k)


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


@functools.cache
def _scales():
    """The _binade columns of every exponent of np.frexp, 0 until a block
    needs them: the thresholds, and the other four rows as one row each, so
    that take gathers a value's four in one copy.  Those of ex are at 2 * ex
    and 2 * ex + 1, for ex < 0 counted from the end, as take counts a
    negative index.

    Filling all 2,098 exponents costs more than a whole default-grid export,
    so format_rows fills those its blocks meet.  A functools cache, so that
    clearing the package's caches starts it empty, as in a new process.
    """
    size = 2 * (_FREXP_MAX - _FREXP_MIN + 1)
    return np.zeros(size), np.zeros((size, 4))


def format_rows(values, ncols):
    """The CSV bytes of values, a row-major float64 block of ncols columns."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    n = len(x)
    if n % ncols:
        raise InputError(f"{n} values do not fill rows of {ncols}")
    if not n:
        return b""
    # two steps, so that each one's temporaries are freed before the next
    N, slot, fallback = _digits(x)
    return _slots(x, ncols, N, slot, fallback).translate(None, b"\0")


def _digits(x):
    """N and the slot of each value of x, and the indices of the values
    that "%" formats."""
    ax = np.abs(x)
    m, ex = np.frexp(ax)
    # inf and nan: m = 0 makes N = 0, and their slots are set below
    finite = m < 1.0
    special = None if finite.all() else np.flatnonzero(~finite)
    if special is not None:
        m[special] = 0.0

    # N = round(S), 10**16 <= N < 10**17, by S = p + q in double-double
    thresholds, scales = _scales()
    cols = np.multiply(ex, 2, dtype=np.intp)
    threshold = thresholds.take(cols)
    if threshold.min() == 0.0:
        for e in set(ex[threshold == 0.0].tolist()):
            col = 2 * e % len(scales)
            binade = _binade(e)
            thresholds[col:col + 2], scales[col:col + 2] = binade[0], binade[1:].T
        threshold = thresholds.take(cols)
    cols += ax >= threshold
    # one row per value, copied into contiguous rows for the arithmetic
    slot, hi_h, hi_l, lo = scales.take(cols, axis=0).T.copy()
    p = hi_h + hi_l
    p *= m
    m_h = m * _SPLITTER
    m_l = m_h - m
    m_h -= m_l
    np.subtract(m, m_h, out=m_l)
    # q = ((m_h * hi_h - p) + m_h * hi_l + m_l * hi_h) + m_l * hi_l + m * lo
    q = m_h * hi_h
    q -= p
    m_h *= hi_l
    q += m_h
    hi_h *= m_l
    q += hi_h
    hi_l *= m_l
    q += hi_l
    lo *= m
    q += lo
    q += 0.5  # r
    floor_q = np.floor(q)
    N = p.astype(np.int64)
    N += floor_q.astype(np.int64)
    q -= floor_q
    # q becomes |frac(r) - 1/2|, above 1/2 - _TIE_GUARD where r is near an integer
    q -= 0.5
    np.abs(q, out=q)
    fallback = []
    if q.max() > 0.5 - _TIE_GUARD:
        fallback = np.flatnonzero(q > 0.5 - _TIE_GUARD).tolist()
    slot = slot.astype(np.intp)
    if N.max() == 10 ** 17:
        carry = N == 10 ** 17
        N[carry] = 10 ** 16
        slot += carry
    if special is not None:
        slot[special] = _SPECIAL_SLOT + np.where(np.isnan(x[special]), _NAN, _INF)
    return N, slot, fallback


def _slots(x, ncols, N, slot, fallback):
    """The bytes of the 32-byte slots of x, whose digits are N."""
    # N is d0 g1 g2 g3 g4, g_k of 4 digits, groups[k] = g_k+1; tail[k]: the
    # groups after it are 0, so that its trailing zeros drop
    n = len(x)
    high = N // 10 ** 8
    halves = np.empty((2, n), dtype=np.int32)
    halves[0] = high
    high *= 10 ** 8
    np.subtract(N, high, out=halves[1], casting="unsafe")
    groups = np.empty((4, n), dtype=np.int32)
    np.floor_divide(halves, _GROUP, out=groups[0::2])
    np.multiply(groups[0::2], _GROUP, out=groups[1::2])
    np.subtract(halves, groups[1::2], out=groups[1::2])
    d0 = groups[0] // _GROUP
    groups[0] -= d0 * _GROUP
    zero = groups == 0
    tail = np.empty((4, n), dtype=bool)
    tail[3] = True
    tail[2] = zero[3]
    np.logical_and(zero[2], tail[2], out=tail[1])
    np.logical_and(zero[1], tail[1], out=tail[0])

    W = np.empty((n, _WIDTH), dtype=np.uint8)
    W64, W32 = W.view(np.uint64), W.view(np.uint32)
    # word 0 at sign * 140 + kind * 20 + first digit * 2 + bare
    d0 *= 2
    d0 += zero[0] & tail[0]
    d0 += np.signbit(x).view(np.uint8) * np.int32(140)
    lead = _LEAD_OF.take(slot)
    lead += d0
    W64[:, 0] = _LEAD_WORDS.take(lead)
    groups += tail.view(np.uint8) * np.int32(_GROUP)
    for k, words in enumerate(_GROUP_WORDS.take(groups)):
        W32[:, 2 + k] = words

    # fixed form at or above 10: the slots of X = 1..16, which only a block
    # with a slot above that of X = 0 can have
    wide = ()
    if slot.max() > _SLOT_X0:
        wide = np.flatnonzero((slot > _SLOT_X0) & (slot <= _SLOT_X0 + 16))
    if len(wide):
        # digits 1..at go one byte left, into bytes 7..6+at, and the point
        # after them if a digit follows: byte 8+at, the next digit stripped,
        # is not NUL.  at = 16 has no next digit, and byte 24 is not written yet
        at = slot[wide] - _SLOT_X0
        rows = np.arange(len(wide))
        sub = W[wide]
        # digits 1..16 unstripped
        digits = np.ascontiguousarray(_GROUP_WORDS.take(groups[:, wide] % _GROUP).T)
        follows = (at < 16) & (sub[rows, 8 + at % 16] != 0)
        np.copyto(sub[:, 7:23], digits.view(np.uint8), where=_SLOTS <= at[:, None])
        sub[rows, 7 + at] = np.where(follows, np.uint8(ord(".")), np.uint8(0))
        W[wide] = sub

    W64[:, 3] = _EXP_WORDS.take(slot)
    last = slice(ncols - 1, None, ncols)
    W64[last, 3] = _EXP_LAST_WORDS.take(slot[last])

    for i in fallback:
        text = ("%.17g" % x[i] + ("\r\n" if i % ncols == ncols - 1 else ",")).encode()
        W[i] = 0
        W[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return W.tobytes()

"""Truncated Taylor arithmetic: scalar jets of up to order 6.

A jet stores the Taylor-normalized coefficients c_k = f^(k)(z0)/k! of a
scalar function at a basepoint z0, for k = 0..L-1 with 1 <= L <= 7.
Arithmetic and composition with elementary functions propagate coefficients
exactly through order L-1.  Order 6 covers fourth derivatives, and at
z = 0 it gives the series in h of the profiles' second derivatives and of
their quotients by z^2 through order 2; a computation that reads fewer
orders asks for a shorter jet.

Truncation rule: a binary operation on jets of lengths L1 and L2 returns a
jet of length min(L1, L2), and an operation with a scalar returns a jet of
the jet operand's length.  Coefficient n of every result depends only on
operand coefficients of order <= n, and is accumulated in the same order at
every length, so the coefficients a shorter jet keeps are bitwise equal to
those of the full-length computation.

A scalar operand s of + - * and of division by s acts on each coefficient:
J + s and J - s change only the constant term, J * s and J / s scale every
coefficient.  (s / J needs the division recursion and runs it on the
constant jet of s.)  The result is bitwise the one of the computation with s
promoted to the constant jet (s, 0, ..., 0), whose extra terms are products
with an exact zero, with two exceptions: a coefficient that is an exact
zero may differ in sign, and an inf or nan coefficient, which times 0 gives
nan, no longer spreads nan to the other coefficients.  The same holds where
J ** n starts from J rather than from the product with the constant 1, and
where _compose_table skips the terms of a variable jet's zero orders.

Coefficients may be plain floats or numpy arrays of a common shape, so a
single jet can carry a whole batch of basepoints at once; all operations
broadcast.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DegenerateJetError, DomainError

ORDER = 6
N_COEFFS = ORDER + 1

_FACTORIAL = (1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0)


class Jet:
    """Truncated Taylor expansion of a scalar function at a point, order <= 6."""

    __slots__ = ("coeffs", "basepoint")

    # make ndarray <op> Jet defer to the reflected Jet operators instead of
    # broadcasting the jet into an object array
    __array_ufunc__ = None

    def __init__(self, coeffs, basepoint=0.0):
        coeffs = tuple(coeffs)
        if not 1 <= len(coeffs) <= N_COEFFS:
            raise ValueError(f"a jet has 1 to {N_COEFFS} coefficients, got {len(coeffs)}")
        self.coeffs = coeffs
        self.basepoint = basepoint

    @classmethod
    def variable(cls, z0, length=N_COEFFS):
        """Jet of the identity function z -> z at z0: (z0, 1, 0, ..., 0)."""
        return cls(((z0, 1.0) + (0.0,) * (length - 2))[:length], basepoint=z0)

    @classmethod
    def constant(cls, value, basepoint=0.0, length=N_COEFFS):
        return cls((value,) + (0.0,) * (length - 1), basepoint=basepoint)

    @property
    def value(self):
        return self.coeffs[0]

    def derivative(self, k):
        """k-th derivative at the basepoint (coefficient times k!)."""
        return self.coeffs[k] * _FACTORIAL[k]

    def series_derivative(self):
        """Jet of f' at the same basepoint, one coefficient shorter.

        A jet of length L gives f' exactly through order L-2, and the result
        holds those orders only; a jet of length 1 has no derivative orders.
        """
        c = self.coeffs
        return Jet(tuple((k + 1) * c[k + 1] for k in range(len(c) - 1)), self.basepoint)

    def _require_common_basepoint(self, other):
        # the jets of one computation share their basepoint object, so the
        # O(N) comparison runs only for jets built apart
        if self.basepoint is not other.basepoint and not np.array_equal(
                np.asarray(self.basepoint), np.asarray(other.basepoint)):
            raise ValueError("jet arithmetic requires a common basepoint")

    def __neg__(self):
        return Jet(tuple(-c for c in self.coeffs), self.basepoint)

    def __add__(self, other):
        c = self.coeffs
        if not isinstance(other, Jet):
            return Jet((c[0] + other,) + c[1:], self.basepoint)
        self._require_common_basepoint(other)
        return Jet(tuple(a + b for a, b in zip(c, other.coeffs)), self.basepoint)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        c = self.coeffs
        if not isinstance(other, Jet):
            return Jet((c[0] - other,) + c[1:], self.basepoint)
        self._require_common_basepoint(other)
        return Jet(tuple(a - b for a, b in zip(c, other.coeffs)), self.basepoint)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        a = self.coeffs
        if not isinstance(other, Jet):
            return Jet(tuple(c * other for c in a), self.basepoint)
        self._require_common_basepoint(other)
        b = other.coeffs
        out = []
        for k in range(min(len(a), len(b))):
            acc = a[0] * b[k]
            for i in range(1, k + 1):
                acc = acc + a[i] * b[k - i]
            out.append(acc)
        return Jet(out, self.basepoint)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        a = self.coeffs
        is_jet = isinstance(other, Jet)
        if is_jet:
            self._require_common_basepoint(other)
        b0 = other.coeffs[0] if is_jet else other
        if np.any(np.asarray(b0) == 0.0):
            raise DegenerateJetError("division by a jet with zero constant term")
        if not is_jet:
            return Jet(tuple(c / other for c in a), self.basepoint)
        b = other.coeffs
        out = [a[0] / b0]
        for k in range(1, min(len(a), len(b))):
            acc = a[k]
            for j in range(k):
                acc = acc - out[j] * b[k - j]
            out.append(acc / b0)
        return Jet(out, self.basepoint)

    def __rtruediv__(self, other):
        return Jet.constant(other, basepoint=self.basepoint,
                            length=len(self.coeffs)).__truediv__(self)

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)):
            raise TypeError("jet exponents must be integers")
        n = int(n)
        if n < 0:
            return 1.0 / self.__pow__(-n)
        if n == 0:
            return Jet.constant(1.0, basepoint=self.basepoint, length=len(self.coeffs))
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __repr__(self):
        return f"Jet({list(self.coeffs)!r}, basepoint={self.basepoint!r})"


def _check_domain(name, bad_mask, values):
    bad_mask = np.asarray(bad_mask)
    if np.any(bad_mask):
        vals = np.asarray(values)
        offending = float(vals[bad_mask][0]) if vals.ndim else float(vals)
        raise DomainError(f"{name} evaluated outside its domain at {offending}", value=offending)


def _power_coeff(d, prev, k, m):
    """[t^m] d^k from the row prev[i] = [t^i] d^(k-1), for d with d[0] = 0.

    Only d[1..m-k+1] and prev[k-1..m-1] enter, since [t^i] d^(k-1) vanishes
    for i < k-1.
    """
    return sum(d[j] * prev[m - j] for j in range(1, m - k + 2))


def _term(entry, multiplier):
    """entry * multiplier; None (no term) for the Python float 0.0, and entry
    itself for 1.0, the multipliers that a variable jet's orders give."""
    if type(multiplier) is float:
        if multiplier == 0.0:
            return None
        if multiplier == 1.0:
            return entry
    return entry * multiplier


def _compose_table(table, a):
    """Compose a derivative-coefficient table with jet a from a power table.

    table[k] must equal f^(k)(a0)/k! at a0 = a.coeffs[0].  With d = a - a0,
    coefficient n of f(a) is sum_{k<=n} table[k] * [t^n] d^k, built from the
    power rows [t^m] d^k = sum_{j>=1} d_j [t^(m-j)] d^(k-1).  The increment d
    has zero constant term, so [t^n] d^k vanishes for k > n: the rows up to
    k = L-1 hold every term through order L-1, for L the shorter of the
    table and the jet, and the sum is exact there.  Only the previous row is
    kept while the next one is built, so no more than two rows of batch-wide
    temporaries are alive at once.  For a variable jet, d = (., 1, 0, ...)
    and the rows hold Python floats 0.0 and 1.0, so coefficient n is
    table[n] with no arithmetic at all.
    """
    d = a.coeffs
    length = min(len(table), len(d))
    out = [table[0]] + [_term(table[1], d[n]) for n in range(1, length)]
    row = d  # [t^m] d^1; d[0] is never read
    for k in range(2, length):
        row = [None] * k + [_power_coeff(d, row, k, m) for m in range(k, length)]
        for n in range(k, length):
            term = _term(table[k], row[n])
            if term is not None:
                out[n] = term if out[n] is None else out[n] + term
    return Jet([0.0 if c is None else c for c in out], a.basepoint)


def _integrate(dfda, a, value0):
    """Jet of F(a(z)) from F(a0) and the jet of F'(a(z)).

    Uses F(a)' = F'(a) a'; for a jet a of length L the antiderivative
    recurrence is exact through order L-1 because the integrand only needs
    orders 0..L-2, which is what a.series_derivative() holds.
    """
    if len(a.coeffs) == 1:
        return Jet((value0,), a.basepoint)
    g = dfda * a.series_derivative()
    return Jet([value0] + [g.coeffs[k - 1] / k for k in range(1, len(a.coeffs))], a.basepoint)


def _table_log(a0, log_a0, length):
    r = 1.0 / a0
    table = [log_a0]
    p = r
    for k in range(1, length):
        table.append(p / k if k % 2 == 1 else -p / k)
        p = p * r
    return tuple(table)


def _table_sqrt(a0, sqrt_a0, length):
    table = [sqrt_a0]
    for k in range(1, length):
        table.append(table[-1] * (0.5 - (k - 1)) / (k * a0))
    return tuple(table)


# f -> its partner g and the signs in f^(k) = signs[k % 4] * (f, g)[k % 2]
_CIRCULAR = {
    "sin": ("cos", (1.0, 1.0, -1.0, -1.0)),
    "cos": ("sin", (1.0, -1.0, -1.0, 1.0)),
    "sinh": ("cosh", (1.0, 1.0, 1.0, 1.0)),
    "cosh": ("sinh", (1.0, 1.0, 1.0, 1.0)),
}


def _table_circular(name, vals, length):
    """Derivative-coefficient table of f from vals = (f(a0), g(a0))."""
    signs = _CIRCULAR[name][1]
    return tuple(signs[k % 4] * vals[k % 2] / _FACTORIAL[k] for k in range(length))


def _compose_circular(name, f, a):
    a0 = a.coeffs[0]
    g = ELEMENTARY_FUNCTIONS[_CIRCULAR[name][0]][0]
    return _compose_table(_table_circular(name, (f(a0), g(a0)), len(a.coeffs)), a)


def jet_compose_pair(name, a):
    """Jets of (cos o a, sin o a) for name "cos", (cosh o a, sinh o a) for "cosh".

    Both tables read the same two function values at a.coeffs[0], so these
    are evaluated once; each jet is bitwise the one jet_compose returns.
    """
    partner = _CIRCULAR[name][0]
    a0, length = a.coeffs[0], len(a.coeffs)
    vals = (ELEMENTARY_FUNCTIONS[name][0](a0), ELEMENTARY_FUNCTIONS[partner][0](a0))
    return (_compose_table(_table_circular(name, vals, length), a),
            _compose_table(_table_circular(partner, vals[::-1], length), a))


# Each composition takes the numpy function f of its own row of
# ELEMENTARY_FUNCTIONS, which gives the value f(a0).

def _compose_exp(f, a):
    e = f(a.coeffs[0])
    return _compose_table(tuple(e / _FACTORIAL[k] for k in range(len(a.coeffs))), a)


def _compose_log(f, a):
    a0 = a.coeffs[0]
    _check_domain("log", np.asarray(a0) <= 0.0, a0)
    return _compose_table(_table_log(a0, f(a0), len(a.coeffs)), a)


def _compose_sqrt(f, a):
    a0 = a.coeffs[0]
    _check_domain("sqrt", np.asarray(a0) <= 0.0, a0)
    return _compose_table(_table_sqrt(a0, f(a0), len(a.coeffs)), a)


def _compose_tan(f, a):
    cos, sin = jet_compose_pair("cos", a)
    return sin / cos


def _compose_atan(f, a):
    dfda = 1.0 / (1.0 + a * a)
    return _integrate(dfda, a, f(a.coeffs[0]))


def _compose_asinh(f, a):
    dfda = 1.0 / jet_compose("sqrt", 1.0 + a * a)
    return _integrate(dfda, a, f(a.coeffs[0]))


def _compose_atanh(f, a):
    _check_domain("atanh", np.abs(np.asarray(a.coeffs[0])) >= 1.0, a.coeffs[0])
    dfda = 1.0 / (1.0 - a * a)
    return _integrate(dfda, a, f(a.coeffs[0]))


# The one table of elementary functions: name -> (numpy function, jet
# composition).  The parser accepts its names, expressions.evaluate applies
# the numpy functions, and jet_compose the compositions.
ELEMENTARY_FUNCTIONS = {
    "exp": (np.exp, _compose_exp),
    "log": (np.log, _compose_log),
    "sqrt": (np.sqrt, _compose_sqrt),
    "sin": (np.sin, functools.partial(_compose_circular, "sin")),
    "cos": (np.cos, functools.partial(_compose_circular, "cos")),
    "tan": (np.tan, _compose_tan),
    "sinh": (np.sinh, functools.partial(_compose_circular, "sinh")),
    "cosh": (np.cosh, functools.partial(_compose_circular, "cosh")),
    "atan": (np.arctan, _compose_atan),
    "asinh": (np.arcsinh, _compose_asinh),
    "atanh": (np.arctanh, _compose_atanh),
}


def jet_compose(name, a):
    """Jet of f o a for an elementary function f named by tag."""
    try:
        f, compose = ELEMENTARY_FUNCTIONS[name]
    except KeyError:
        raise ValueError(f"unknown elementary function {name!r}") from None
    return compose(f, a)

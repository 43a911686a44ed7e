"""Truncated Taylor arithmetic: scalar jets of up to order 6.

A jet is the tuple of Taylor-normalized coefficients c_k = f^(k)(z0)/k! of
a scalar function at a point z0, for k = 0..L-1 with 1 <= L <= 7.  The jet
does not store z0: the caller that builds it knows where it is, and all jets
of one computation come from one Jet.variable(z0), or are built at 0.
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
where _compose_table returns the table itself for a variable jet, whose
coefficients 1 and up are the Python floats (1.0, 0.0, ...).

Exact-float terms of a product of two jets follow the same rule.  In each
Cauchy sum, a term with a factor that is a Python float zero is skipped,
a term with a factor 1.0 is the other factor, with no multiplication, and
a sum with no term left is 0.0.  So z^2 and z^4 do not multiply whole
arrays by the 1.0 and 0.0 of the variable jet's tail.  The result is
bitwise the full Cauchy product, with the two exceptions above.

Coefficients may be plain floats or float arrays of a common shape, so a
single jet can carry a whole batch of points z0 at once; all operations
broadcast.  No operation writes into an operand's coefficients: products
and quotients accumulate in place, but only in arrays they have just made.
So jets may share coefficient arrays, as a table shares f(a0) with the
caller, exp's table holds e^a0 twice, and a product coefficient whose one
term is a factor is that factor.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError, InputError

ORDER = 6
N_COEFFS = ORDER + 1

_FACTORIAL = (1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0)


class Jet:
    """Truncated Taylor expansion of a scalar function at a point, order <= 6."""

    __slots__ = ("coeffs",)

    # make ndarray <op> Jet defer to the reflected Jet operators instead of
    # broadcasting the jet into an object array
    __array_ufunc__ = None

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not 1 <= len(coeffs) <= N_COEFFS:
            raise InputError(f"a jet has 1 to {N_COEFFS} coefficients, got {len(coeffs)}")
        self.coeffs = coeffs

    @classmethod
    def variable(cls, z0, length=N_COEFFS):
        """Jet of the identity function z -> z at z0: (z0, 1, 0, ..., 0)."""
        return cls(((z0, 1.0) + (0.0,) * (length - 2))[:length])

    @classmethod
    def constant(cls, value, length=N_COEFFS):
        return cls((value,) + (0.0,) * (length - 1))

    def derivative(self, k):
        """k-th derivative at z0 (coefficient times k!)."""
        return self.coeffs[k] * _FACTORIAL[k]

    def series_derivative(self):
        """Jet of f' at the same point, one coefficient shorter.

        A jet of length L gives f' exactly through order L-2, and the result
        holds those orders only; a jet of length 1 has no derivative orders.
        """
        c = self.coeffs
        return Jet(tuple((k + 1) * c[k + 1] for k in range(len(c) - 1)))

    def __neg__(self):
        return Jet(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        c = self.coeffs
        if not isinstance(other, Jet):
            return Jet((c[0] + other,) + c[1:])
        return Jet(tuple(a + b for a, b in zip(c, other.coeffs)))

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        c = self.coeffs
        if not isinstance(other, Jet):
            return Jet((c[0] - other,) + c[1:])
        return Jet(tuple(a - b for a, b in zip(c, other.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        a = self.coeffs
        if not isinstance(other, Jet):
            return Jet(tuple(c * other for c in a))
        b = other.coeffs
        return Jet(_cauchy(a, b, range(min(len(a), len(b)))))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        a = self.coeffs
        is_jet = isinstance(other, Jet)
        b0 = other.coeffs[0] if is_jet else other
        if (np.asarray(b0) == 0.0).any():
            raise DomainError("division by a jet with zero constant term")
        if not is_jet:
            return Jet(tuple(c / other for c in a))
        b = other.coeffs
        out = [a[0] / b0]
        for k in range(1, min(len(a), len(b))):
            # a fresh difference, so -= and /= work in an array no operand holds
            acc = a[k] - out[0] * b[k]
            for j in range(1, k):
                acc -= out[j] * b[k - j]
            acc /= b0
            out.append(acc)
        return Jet(out)

    def __rtruediv__(self, other):
        return Jet.constant(other, length=len(self.coeffs)).__truediv__(self)

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)):
            raise TypeError("jet exponents must be integers")
        n = int(n)
        if n < 0:
            return 1.0 / self.__pow__(-n)
        if n == 0:
            return Jet.constant(1.0, length=len(self.coeffs))
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __repr__(self):
        return f"Jet({list(self.coeffs)!r})"


def _cauchy(a, b, orders):
    """[sum_(i=0..k) a_i b_(k-i) for k in orders], each k below the lengths
    of both coefficient sequences, summed in index order with the
    exact-float terms skipped or taken as the module docstring states.  A
    term taken may be an operand's own array, so a sum it starts is made by
    a new addition: += accumulates only in an array made here.
    """
    out = []
    for k in orders:
        acc = None
        for i in range(k + 1):
            x, y = a[i], b[k - i]
            if type(x) is float and (x == 0.0 or x == 1.0):
                if x == 0.0:
                    continue
                term, made = y, False
            elif type(y) is float and (y == 0.0 or y == 1.0):
                if y == 0.0:
                    continue
                term, made = x, False
            else:
                term, made = x * y, True
            if acc is None:
                acc, fresh = term, made
            elif fresh:
                acc += term
            else:
                acc, fresh = acc + term, True
        out.append(0.0 if acc is None else acc)
    return out


def _check_domain(name, bad_mask, values):
    bad_mask = np.asarray(bad_mask)
    if bad_mask.any():
        vals = np.asarray(values)
        offending = float(vals[bad_mask][0]) if vals.ndim else float(vals)
        raise DomainError(f"{name} evaluated outside its domain at {offending}")


_VARIABLE_TAIL = (1.0,) + (0.0,) * (N_COEFFS - 2)


def _compose_table(table, a):
    """Compose a derivative-coefficient table with jet a by Horner's rule.

    table[k] must equal f^(k)(a0)/k! at a0 = a.coeffs[0].  With d = a - a0,
    f(a) = t0 + d (t1 + d (t2 + ...)), for L the shorter of the table and
    the jet.  d has zero constant term, so the k-th inner sum is needed only
    through order L-1-k: each step multiplies it by d/t, the jet (d1, d2, ...)
    one order shorter, whose product Jet.__mul__ truncates to that order, and
    prepends t_k.  Coefficient n is the same expression at every L.  For a
    variable jet, d/t = (1, 0, ...) in Python floats and the result is the
    table itself, with no arithmetic.
    """
    length = min(len(table), len(a.coeffs))
    tail = a.coeffs[1:length]
    if all(type(c) is float for c in tail) and tail == _VARIABLE_TAIL[:length - 1]:
        return Jet(table[:length])
    d_over_t = Jet(tail)
    acc = Jet((table[length - 1],))
    for k in range(length - 2, -1, -1):
        acc = Jet((table[k],) + (d_over_t * acc).coeffs)
    return acc


def _integrate(dfda, a, value0):
    """Jet of F(a(z)) from F(a0) and the jet of F'(a(z)).

    Uses F(a)' = F'(a) a'; for a jet a of length L the antiderivative
    recurrence is exact through order L-1 because the integrand only needs
    orders 0..L-2, which is what a.series_derivative() holds.
    """
    if len(a.coeffs) == 1:
        return Jet((value0,))
    g = dfda * a.series_derivative()
    return Jet([value0] + [g.coeffs[k - 1] / k for k in range(1, len(a.coeffs))])


def _divided(value, divisor):
    """value / divisor, and value itself where the divisor is 1.

    A divisor s k!, with s = +-1, gives the bits of (s value) / k!.
    """
    return value if divisor == 1.0 else value / divisor


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
    """Derivative-coefficient table of f from vals = (f(a0), g(a0)).

    Entry k is signs[k % 4] vals[k % 2] / k!; entries 0 and 1 of a plus sign
    are the values themselves.
    """
    signs = _CIRCULAR[name][1]
    return tuple(_divided(vals[k % 2], signs[k % 4] * _FACTORIAL[k]) for k in range(length))


def _compose_circular(name, f, a):
    a0 = a.coeffs[0]
    g = ELEMENTARY_FUNCTIONS[_CIRCULAR[name][0]][0]
    return _compose_table(_table_circular(name, (f(a0), g(a0)), len(a.coeffs)), a)


# Each composition takes the numpy function f of its own row of
# ELEMENTARY_FUNCTIONS, which gives the value f(a0).

def _compose_exp(f, a):
    e = f(a.coeffs[0])
    return _compose_table(tuple(_divided(e, _FACTORIAL[k]) for k in range(len(a.coeffs))), a)


def _compose_log(f, a):
    """Jet b of log(a) by the recurrence that a b' = a' gives, order by order:

        b_0 = log a_0,  b_k = (a_k - (1/k) sum_{j=1}^{k-1} j b_j a_{k-j}) / a_0,

    with the sum's exact-float terms skipped or taken as in Jet.__mul__.
    """
    c = a.coeffs
    a0 = c[0]
    _check_domain("log", np.asarray(a0) <= 0.0, a0)
    # the sum is coefficient k - 2 of the product of (1 b_1, 2 b_2, ..) and
    # (a_1, a_2, ..), and jb holds the first factor's known terms
    b, jb = [f(a0)], []
    if len(c) > 1:
        b.append(c[1] / a0)
    for k in range(2, len(c)):
        jb.append(b[1] if k == 2 else (k - 1) * b[k - 1])
        b.append((c[k] - (1.0 / k) * _cauchy(jb, c[1:], (k - 2,))[0]) / a0)
    return Jet(b)


def _compose_sqrt(f, a):
    a0 = a.coeffs[0]
    _check_domain("sqrt", np.asarray(a0) <= 0.0, a0)
    return _compose_table(_table_sqrt(a0, f(a0), len(a.coeffs)), a)


def _compose_tan(f, a):
    return jet_compose("sin", a) / jet_compose("cos", a)


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
        raise InputError(f"unknown elementary function {name!r}") from None
    return compose(f, a)

"""Jet arithmetic and elementary composition against independent oracles."""

import contextlib
import math
import zlib

import numpy as np
import pytest
from helpers import central_derivative
from hypothesis import given, settings
from hypothesis import strategies as st

from mtwcheck import Jet, jet_compose
from mtwcheck.errors import DomainError, InputError
from mtwcheck.jets import (_FACTORIAL, ELEMENTARY_FUNCTIONS, N_COEFFS, _compose_table,
                          _table_circular)


def coeffs(jet):
    return np.array([float(c) for c in jet.coeffs])


def test_variable_jet_shape():
    j = Jet.variable(1.5)
    assert j.coeffs == (1.5, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_variable_squared():
    j = Jet.variable(2.0)
    assert np.allclose(coeffs(j * j), [4.0, 4.0, 1.0, 0.0, 0.0, 0.0, 0.0])


def test_self_division_is_one():
    a = Jet((0.7, -1.2, 0.3, 2.0, -0.5, 0.1, 0.9))
    assert np.allclose(coeffs(a / a), [1, 0, 0, 0, 0, 0, 0], atol=1e-15)


def test_division_by_degenerate_jet():
    a = Jet.variable(1.0)
    zero_head = Jet((0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(DomainError, match="division by a jet with zero constant term"):
        a / zero_head


def test_double_angle_identity():
    # sinh(z)*cosh(z) against the jet of sinh(2z)/2, both computed by the
    # implementation itself
    z0 = 0.7
    j = Jet.variable(z0)
    product = jet_compose("sinh", j) * jet_compose("cosh", j)
    double = jet_compose("sinh", 2.0 * Jet.variable(z0))
    assert np.allclose(coeffs(product), 0.5 * coeffs(double), atol=1e-12)


def test_sinh_maclaurin():
    s = jet_compose("sinh", Jet.variable(0.0))
    assert np.allclose(coeffs(s), [0, 1, 0, 1 / 6, 0, 1 / 120, 0], atol=1e-16)


def test_log_of_one():
    assert np.allclose(coeffs(jet_compose("log", Jet.constant(1.0))), 0.0, atol=1e-16)


def test_cosh_jet_against_finite_differences():
    jet = jet_compose("cosh", Jet.variable(1.0))
    for k in range(1, 5):
        fd = central_derivative(np.cosh, 1.0, k, h=0.02)
        assert jet.derivative(k) == pytest.approx(fd, abs=1e-6)


def test_domain_errors_carry_value():
    with pytest.raises(DomainError, match=r"log evaluated outside its domain at -2\.0$"):
        jet_compose("log", Jet.variable(-2.0))
    with pytest.raises(DomainError, match=r"sqrt evaluated outside its domain at 0\.0$"):
        jet_compose("sqrt", Jet.variable(0.0))
    with pytest.raises(DomainError, match=r"atanh evaluated outside its domain at 1\.0$"):
        jet_compose("atanh", Jet.variable(1.0))


def test_integer_powers():
    j = Jet.variable(1.3)
    assert np.allclose(coeffs(j ** 3), coeffs(j * j * j), atol=1e-14)
    assert np.allclose(coeffs(j ** 0), coeffs(Jet.constant(1.0)))
    assert np.allclose(coeffs(j ** -2), coeffs(1.0 / (j * j)), atol=1e-14)


def test_add_sub_mul_div_roundtrips():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        a = Jet(rng.standard_normal(N_COEFFS))
        b_coeffs = rng.standard_normal(N_COEFFS)
        # keep the division well-conditioned; the algebraic property itself
        # does not depend on the magnitude of b0
        b_coeffs[0] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        b = Jet(b_coeffs)
        assert np.allclose(coeffs((a + b) - b), coeffs(a), atol=1e-12)
        assert np.allclose(coeffs((a * b) / b), coeffs(a), atol=1e-12)


_DOMAINS = {
    "exp": (-2.0, 2.0), "log": (0.1, 3.0), "sqrt": (0.1, 3.0),
    "sin": (-3.0, 3.0), "cos": (-3.0, 3.0), "tan": (-1.2, 1.2),
    "sinh": (-2.0, 2.0), "cosh": (-2.0, 2.0),
    "atan": (-3.0, 3.0), "asinh": (-3.0, 3.0), "atanh": (-0.9, 0.9),
}


@pytest.mark.parametrize("name", sorted(_DOMAINS))
def test_elementary_derivatives_match_finite_differences(name):
    # Reference: mpmath's own finite differences at 40 digits, where neither
    # truncation near a singularity nor roundoff at small steps matters.
    # crc32 rather than hash(): str hashes are salted per process.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    lo, hi = _DOMAINS[name]
    f = getattr(mpmath, name)
    for _ in range(100):
        x0 = rng.uniform(lo, hi)
        jet = jet_compose(name, Jet.variable(x0))
        for k in range(1, 5):
            with mpmath.mp.workdps(40):
                reference = float(mpmath.diff(f, mpmath.mpf(x0), k))
            value = jet.derivative(k)
            scale = max(1.0, abs(reference))
            assert abs(value - reference) <= 1e-5 * scale, (name, x0, k, value, reference)


def test_composition_associativity():
    # f(g(z)) composed stepwise equals the one-shot jet of the composite
    z0 = 0.4
    stepwise = jet_compose("exp", jet_compose("sin", Jet.variable(z0)))
    composite = jet_compose("exp", jet_compose("sin", Jet.variable(z0)))

    def direct(k):
        return central_derivative(lambda t: np.exp(np.sin(t)), z0, k, h=0.02)

    assert np.allclose(coeffs(stepwise), coeffs(composite), atol=1e-12)
    for k in range(1, 5):
        assert stepwise.derivative(k) == pytest.approx(direct(k), rel=1e-6, abs=1e-6)


def test_array_coefficients_broadcast():
    z = np.linspace(0.3, 1.4, 11)
    jet = jet_compose("cosh", Jet.variable(z))
    assert np.allclose(np.asarray(jet.coeffs[0]), np.cosh(z))
    assert np.allclose(np.asarray(jet.coeffs[1]), np.sinh(z))
    assert np.allclose(2.0 * np.asarray(jet.coeffs[2]), np.cosh(z))


def test_derivative_accessor_uses_factorials():
    jet = Jet(tuple(1.0 / _FACTORIAL[k] for k in range(N_COEFFS)))
    for k in range(N_COEFFS):
        assert jet.derivative(k) == pytest.approx(1.0)


_TABLE_DOMAINS = {
    "exp": (-2.0, 2.0), "log": (0.5, 3.0), "sqrt": (0.5, 3.0),
    "sin": (-3.0, 3.0), "cos": (-3.0, 3.0), "tan": (-1.2, 1.2),
    "sinh": (-2.0, 2.0), "cosh": (-2.0, 2.0),
    "atan": (-2.0, 2.0), "asinh": (-2.0, 2.0), "atanh": (-0.8, 0.8),
}


def _taylor_of_composite(mpmath, name, a):
    """Taylor coefficients of f(a(t)) at t = 0 for a polynomial a, at 40 digits."""
    f = getattr(mpmath, name)
    with mpmath.mp.workdps(40):
        coeffs = [mpmath.mpf(c) for c in a]
        ref = mpmath.taylor(lambda t: f(sum(c * t ** k for k, c in enumerate(coeffs))),
                            0, N_COEFFS - 1)
    return [float(r) for r in ref]


@pytest.mark.parametrize("name", sorted(_TABLE_DOMAINS))
def test_table_composition_matches_mpmath_taylor(name):
    # every coefficient of a random inner jet is nonzero, so all powers of
    # the increment up to the sixth enter the composition
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    lo, hi = _TABLE_DOMAINS[name]

    def inner():
        return [rng.uniform(lo, hi)] + list(0.3 * rng.uniform(-1.0, 1.0, N_COEFFS - 1))

    scalar_cases = [inner() for _ in range(3)]
    lanes = [inner() for _ in range(4)]
    scaled = [0.5 * rng.uniform(lo, hi) for _ in range(2)]
    array_jet = Jet([np.array(c) for c in zip(*lanes)])
    array_coeffs = [np.asarray(c) for c in jet_compose(name, array_jet).coeffs]
    got = [coeffs(jet_compose(name, Jet(a))) for a in scalar_cases]
    got += [np.array([c[lane] for c in array_coeffs]) for lane in range(len(lanes))]
    # 2 * Jet.variable(x0) has the Python-float tail (2.0, 0.0, ...), so it
    # takes Horner's rule, not the variable jet's shortcut
    got += [coeffs(jet_compose(name, 2.0 * Jet.variable(x0))) for x0 in scaled]
    for a, value in zip(scalar_cases + lanes + [[2.0 * x0, 2.0] for x0 in scaled], got):
        reference = _taylor_of_composite(mpmath, name, a)
        for n in range(N_COEFFS):
            assert abs(value[n] - reference[n]) <= 1e-13 * max(1.0, abs(reference[n])), \
                (name, a, n, value[n], reference[n])


@pytest.mark.parametrize("z0", [0.7, np.linspace(0.3, 1.4, 5)])
def test_variable_jet_composes_to_the_table(z0):
    # a variable jet's increment is t itself, so f(a) is the table, bitwise
    table = tuple(np.cosh(z0) * (k + 1.0) for k in range(N_COEFFS))
    for length in range(1, N_COEFFS + 1):
        got = _compose_table(table, Jet.variable(z0, length))
        assert len(got.coeffs) == length
        assert all(c is t for c, t in zip(got.coeffs, table))


@pytest.mark.parametrize("call,error,message", [
    (lambda: Jet.variable(1.0) ** 0.5, TypeError, "jet exponents must be integers"),
    (lambda: jet_compose("erf", Jet.variable(0.5)), InputError,
     "unknown elementary function 'erf'"),
], ids=["fractional-power", "unknown-function"])
def test_invalid_jet_operation_is_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_jet_length_bounds():
    with pytest.raises(InputError, match="a jet has 1 to 7 coefficients, got 0"):
        Jet(())
    with pytest.raises(InputError, match="a jet has 1 to 7 coefficients, got 8"):
        Jet((1.0,) * (N_COEFFS + 1))
    assert Jet.variable(0.5, 1).coeffs == (0.5,)
    assert Jet.variable(0.5, 3).coeffs == (0.5, 1.0, 0.0)
    assert Jet.constant(2.0, length=2).coeffs == (2.0, 0.0)


_COEFF = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
_TAIL = st.tuples(*[_COEFF] * (N_COEFFS - 1))
# a0 in the domain of every elementary function, b0 away from zero
_A0 = st.floats(0.1, 0.9)
_B0 = st.floats(0.5, 2.0) | st.floats(-2.0, -0.5)


def _head(jet, length):
    return Jet(jet.coeffs[:length])


@settings(max_examples=150, deadline=None)
@given(_A0, _TAIL, _B0, _TAIL, st.integers(-3, 5))
def test_truncated_arithmetic_keeps_leading_coefficients(a0, a_tail, b0, b_tail, n):
    # a jet cut to its first L coefficients gives the first L coefficients of
    # the full-length result exactly, whatever L and whichever operation
    a, b = Jet((a0,) + a_tail), Jet((b0,) + b_tail)
    binary = [lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
              lambda x, y: x / y, lambda x, y: y / x, lambda x, y: _compose_table(y.coeffs, x)]
    # an op of x alone has one cut operand, x: op(short_a) stands for
    # op(short_a, short_b) and op(short_a, b), and op(a, short_b) is op(a)
    unary = [lambda x: 2.5 - x, lambda x: 0.75 / x, lambda x: x ** n]
    unary += [lambda x, name=name: jet_compose(name, x) for name in ELEMENTARY_FUNCTIONS]
    binary_fulls = [op(a, b).coeffs for op in binary]
    unary_fulls = [op(a).coeffs for op in unary]
    for length in range(1, N_COEFFS + 1):
        short_a, short_b = _head(a, length), _head(b, length)
        for op, full in zip(binary, binary_fulls):
            assert op(short_a, short_b).coeffs == full[:length]
            assert op(short_a, b).coeffs == full[:length]
            assert op(a, short_b).coeffs[:length] == full[:length]
        for op, full in zip(unary, unary_fulls):
            assert op(short_a).coeffs == full[:length]
        if length > 1:
            assert short_a.series_derivative().coeffs == a.series_derivative().coeffs[:length - 1]


def _promoted(s, jet):
    """The scalar s as the constant jet (s, 0, ..., 0) of jet's length."""
    return Jet.constant(s, length=len(jet.coeffs))


def _pow_promoted(jet, n):
    """jet ** n by binary powering from the constant jet 1, with jet products."""
    if n < 0:
        return _promoted(1.0, jet) / _pow_promoted(jet, -n)
    result, base = _promoted(1.0, jet), jet
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def _bits(jet):
    return [(np.shape(c), np.asarray(c, dtype=float).tobytes()) for c in jet.coeffs]


# finite nonzero magnitudes whose products and quotients, and powers up to
# the 9th, stay normal: no exact zero, whose sign may differ, and no inf, for
# which inf * 0 is nan, arises.  One float draw each: a magnitude below
# 1e-30 becomes +-1e-30, the sign kept.
_magnitudes = st.floats(-1e30, 1e30).map(lambda v: math.copysign(max(abs(v), 1e-30), v))


@st.composite
def _jet_and_scalar(draw):
    """A jet of length 1-7 with float or array coefficients, and a scalar."""
    length = draw(st.integers(1, N_COEFFS))
    width = draw(st.sampled_from([None, 1, 3]))
    values = [draw(_magnitudes) for _ in range(length * (width or 1))]
    if width is not None:
        values = list(np.reshape(values, (length, width)))
    return Jet(values), draw(_magnitudes)


@settings(max_examples=300, deadline=None)
@given(_jet_and_scalar(), st.integers(-4, 9))
def test_scalar_operands_match_the_promoted_constant_jet(jet_and_scalar, n):
    # a scalar acts on the coefficients; the result is bitwise the one of the
    # Cauchy product or division recursion with the constant jet of s
    jet, s = jet_and_scalar
    c = _promoted(s, jet)
    assert _bits(jet + s) == _bits(jet + c)
    assert _bits(s + jet) == _bits(c + jet)
    assert _bits(jet - s) == _bits(jet - c)
    assert _bits(s - jet) == _bits(c - jet)
    assert _bits(jet * s) == _bits(jet * c)
    assert _bits(s * jet) == _bits(c * jet)
    assert _bits(jet / s) == _bits(jet / c)
    # 1 / jet ** -n may overflow, in the same division recursion on both sides
    with np.errstate(over="ignore", invalid="ignore"):
        assert _bits(jet ** n) == _bits(_pow_promoted(jet, n))


def test_scalar_division_by_zero_raises():
    with pytest.raises(DomainError, match="division by a jet with zero constant term"):
        Jet.variable(1.0) / 0.0
    with pytest.raises(DomainError, match="division by a jet with zero constant term"):
        Jet.variable(np.array([1.0, 2.0])) / np.array([1.0, 0.0])


def test_operations_leave_their_operands_unchanged():
    # products and quotients accumulate in place, so an operand whose arrays
    # another jet shares, or that a table shares with its caller, must come
    # out of every operation bitwise as it went in
    z = np.linspace(0.2, 0.8, 9)
    rng = np.random.default_rng(18)
    a = Jet([z] + list(0.3 * rng.uniform(-1.0, 1.0, (N_COEFFS - 1, z.size))))
    b = Jet([1.0 + z] + list(0.3 * rng.uniform(-1.0, 1.0, (N_COEFFS - 1, z.size))))
    # one array in every coefficient
    shared = Jet((z,) * N_COEFFS)
    # exp's table holds e^z twice, and a variable jet composes to the table
    exp = jet_compose("exp", Jet.variable(z))
    assert exp.coeffs[0] is exp.coeffs[1]
    # a table's entries 0 and 1 are the function values themselves, which
    # building the table leaves as they are
    vals = (np.cosh(z), np.sinh(z))
    vals_before = [v.copy() for v in vals]
    table = _table_circular("cosh", vals, N_COEFFS)
    assert table[0] is vals[0] and table[1] is vals[1]
    assert all(v.tobytes() == ref.tobytes() for v, ref in zip(vals, vals_before))
    # two jets that share their arrays
    cosh = Jet(table)
    sinh = Jet(_table_circular("sinh", vals[::-1], N_COEFFS))
    assert cosh.coeffs[0] is sinh.coeffs[1]
    # the variable jet's Python-float tail makes a product take the other
    # factor itself as a term, and its square carries the floats 1.0, 0.0, ..
    variable = Jet.variable(z)
    square = variable ** 2
    assert type(square.coeffs[2]) is float
    jets = [a, b, shared, exp, cosh, sinh, variable, square]
    arrays = {id(c): c for jet in jets for c in jet.coeffs if isinstance(c, np.ndarray)}
    before = {key: c.copy() for key, c in arrays.items()}
    for x in jets:
        results = [x * x, x / x, x ** 3, x ** -2, 2.5 - x, 0.75 / x, 2.0 * x, x / 2.0, -x]
        for y in jets:
            results += [x + y, x - y, x * y, x / y, _compose_table(y.coeffs, x)]
        for name in ELEMENTARY_FUNCTIONS:
            with contextlib.suppress(DomainError):
                results.append(jet_compose(name, x))
        assert all(len(r.coeffs) == len(x.coeffs) for r in results)
    for key, c in arrays.items():
        assert c.tobytes() == before[key].tobytes()


def _full_cauchy_product(a, b, shape):
    """Every term of the Cauchy product, exact floats included, as arrays of
    shape, summed in index order."""
    full_a = [np.broadcast_to(np.float64(c), shape) for c in a.coeffs]
    full_b = [np.broadcast_to(np.float64(c), shape) for c in b.coeffs]
    out = []
    for k in range(min(len(full_a), len(full_b))):
        acc = full_a[0] * full_b[k]
        for i in range(1, k + 1):
            acc += full_a[i] * full_b[k - i]
        out.append(acc)
    return out


def test_exact_float_terms_keep_the_bits_of_the_full_product():
    # a product skips the terms with a Python-float factor 0.0 and takes the
    # other factor for 1.0; on finite nonnegative coefficients, where no
    # zero has a sign to lose and no inf or nan meets a 0.0, its result is
    # bitwise the full Cauchy product's
    rng = np.random.default_rng(30)
    shape = (5,)

    def coefficient():
        kind = rng.integers(6)
        if kind == 0:
            return 0.0
        if kind == 1:
            return 1.0
        if kind == 2:
            return float(rng.uniform(0.0, 2.0))
        if kind == 3:
            return np.float64(rng.choice([0.0, 1.0]))  # a numpy scalar takes no shortcut
        values = rng.uniform(0.0, 2.0, shape)
        values[rng.random(shape) < 0.2] = 0.0
        return values

    for _ in range(400):
        a = Jet([coefficient() for _ in range(rng.integers(1, N_COEFFS + 1))])
        b = Jet([coefficient() for _ in range(rng.integers(1, N_COEFFS + 1))])
        got = (a * b).coeffs
        ref = _full_cauchy_product(a, b, shape)
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert np.broadcast_to(np.float64(g), shape).tobytes() == r.tobytes(), (a, b)

"""Closed-form curvature layer for radial costs on space forms.

Everything here flows from two scalar functions of z = |v|:

    A(z) = 1/h'(z)
    B(z) = z*coth(h(z))  [K=-1],   z/h(z)  [K=0],   z*cot(h(z))  [K=+1]

with h the inverse of l'.  Their first two derivatives feed a five-term
closed formula for the curvature of the transport cost, the four coefficient
functions alpha, beta, gamma, delta that drive the inequality checker, and a
second analytic route that differentiates A and B along s -> |v + s*w| with
an s-jet.  Away from z = 0, A, B and their derivatives are explicit in the
derivatives of l at h(z); at z = 0 their Taylor series come from series
reversion of the l' expansion.  No finite differences enter anywhere in this
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .costs import eval_cost_jet, inverse_lprime
from .errors import LimitError, OutOfRangeError, PoleError, ZeroVectorError
from .geometry import Point, TangentVector
from .jets import Jet, _compose_table, _power_coeff, jet_compose, jet_compose_pair

# Below this argument A, B and the coefficient functions switch from direct
# evaluation at basepoint z to evaluation of their series at basepoint 0,
# whose shifted coefficients give the z -> 0 limits exactly.
SERIES_SWITCH = 1e-4

_LIMIT_TOL = 1e-7
_POLE_TOL = 1e-9


@dataclass(frozen=True)
class MtwInput:
    """Base point with the three tangent vectors of a curvature evaluation."""

    x: Point
    u: TangentVector
    v: TangentVector
    w: TangentVector

    def validate(self, form):
        for vec in (self.u, self.v, self.w):
            if vec.base is not self.x and not np.allclose(vec.base.coords, self.x.coords,
                                                          atol=1e-9):
                raise ValueError("all tangent vectors must share the base point")
        if form.norm(self.v) == 0.0:
            raise ZeroVectorError("v must be nonzero")


def _revert(w):
    """Compositional inverse of a series with zero constant term.

    w must be a formal jet at 0 with w1 != 0; g has w's length L.  The
    inverse is found order by order: g1 = 1/w1 and, for n = 2..L-1,
    coefficient n of w(g(t)) = t gives

        g_n = -(sum_{k=2..n} w_k [t^n] g^k) / w_1,

    with the power table [t^n] g^k = sum_{j>=1} g_j [t^(n-j)] g^(k-1).  For
    k >= 2 that entry only involves g_1..g_(n-k+1), so column n of the table
    is complete before g_n is needed, and each g_n is exact given w_1..w_n.
    """
    c = w.coeffs
    length = len(c)
    g = [0.0, 1.0 / c[1]] if length > 1 else [0.0]
    # powers[k][n] = [t^n] g^k, filled column by column as g grows
    powers = [None, g] + [[0.0] * length for _ in range(2, length)]
    for n in range(2, length):
        acc = 0.0
        for k in range(2, n + 1):
            powers[k][n] = _power_coeff(g, powers[k - 1], k, n)
            acc = acc + c[k] * powers[k][n]
        g.append(-acc * g[1])
    return Jet(g, basepoint=w.basepoint)


def _lprime_increment_series(ljet):
    """Formal series of l'(h0 + u) - l'(h0) from the jet of l at h0.

    The series has the jet's length L.  Its top coefficient would need order
    L of l and is set to zero; for L = 7 at basepoint 0 it genuinely
    vanishes because l' is odd.
    """
    c = ljet.coeffs
    coeffs = [0.0] + [(k + 1) * c[k + 1] for k in range(1, len(c) - 1)] + [0.0]
    return Jet(coeffs[:len(c)], basepoint=0.0)


def _check_pole(K, h0):
    if K == 1:
        gap = np.pi - np.abs(np.asarray(h0))
        if np.any(gap < _POLE_TOL):
            raise PoleError("h(z) within tolerance of the cot pole at pi")


@lru_cache(maxsize=64)
def _ab_series_origin(cost, K):
    """Taylor coefficients of A and B at z = 0, exact through order 5.

    Both series exist because h is odd with h'(0) = 1/l''(0) != 0; the
    apparent 0/0 in B cancels after shifting the vanishing numerator and
    denominator series by one order.
    """
    ljet = eval_cost_jet(cost, 0.0)
    # degree-6 coefficient of l' vanishes exactly by parity, so the reversion
    # is exact through order 6 here
    g = _revert(_lprime_increment_series(ljet))
    a_jet = 1.0 / g.series_derivative()
    if K == 0:
        num, den = Jet.constant(1.0), g
    else:
        num, den = jet_compose_pair("cosh" if K == -1 else "cos", g)
    shifted = Jet(den.coeffs[1:] + (0.0,), basepoint=0.0)
    b_jet = num / shifted
    a = tuple(float(c) for c in a_jet.coeffs)
    b = tuple(float(c) for c in b_jet.coeffs)
    scale = max(1.0, abs(a[0]), abs(b[0]))
    if abs(a[0] - b[0]) > _LIMIT_TOL * scale or abs(a[1] - b[1]) > _LIMIT_TOL * scale \
            or abs(a[1]) > _LIMIT_TOL * scale or abs(b[1]) > _LIMIT_TOL * scale:
        raise LimitError("A - B does not vanish to second order at z = 0; "
                         "cost is inadmissible or h is inconsistent")
    return a, b


def _poly(coeffs, z, weight, shift):
    """sum_k weight(k) * coeffs[k] * z^(k-shift), Horner-evaluated."""
    acc = np.zeros_like(np.asarray(z, dtype=float))
    for k in reversed(range(shift, len(coeffs))):
        acc = acc * z + weight(k) * coeffs[k]
    return acc


_PROFILE_KEYS = ("A", "Aprime", "Adprime", "B", "Bprime", "Bdprime",
                 "alpha", "beta", "gamma", "delta")


def _direct_profiles(cost, K, z):
    """All profile quantities at an array of z >= SERIES_SWITCH, each
    evaluated directly at its own basepoint.

    With d/dz = (1/l'') d/dh, each quantity is explicit in l' .. l'''' at
    h0 = h(z) and in C(h) = coth h, 1/h or cot h for K = -1, 0, +1:

        A = l'',  A' = l'''/l'',  A'' = (l'''' - l''' A')/l''^2,
        B = l' C,  B' = C + s C',  B'' = (2C' + s (C'' - C' A'))/l'',

    with s = l'/l'', C' = -K - C^2 and C'' = -2 C C'.

    h0 is exact only as the inverse of zeff = l'(h0), which differs from z
    by the inverse's residual (up to 1e-13 relative for the Newton inverse).
    B cancels against A to second order, so B is built at zeff, the argument
    that matches h0, and alpha..delta divide by zeff as well.
    """
    h0 = np.asarray(inverse_lprime(cost, z))
    _check_pole(K, h0)
    # l^(k) = k! c_k, written into arrays of z's shape: a coefficient that
    # does not depend on z (c_2 of z^2/2, say) is a float.  No name holds
    # the jet, so its arrays are freed before the formulas below run.
    zeff, l2, l3, l4 = (np.multiply(c, math.factorial(k), out=np.empty_like(h0))
                        for k, c in enumerate(eval_cost_jet(cost, h0, 5).coeffs[1:], 1))
    r = 1.0 / l2
    A, Ap = l2, l3 * r
    Add = (l4 - l3 * Ap) * (r * r)
    # coth from cosh and sinh, whose numpy loops the costs' jets load anyway;
    # a first call of np.tanh maps 128 KB more of numpy into the process
    C = np.cosh(h0) / np.sinh(h0) if K == -1 else 1.0 / (np.tan(h0) if K == 1 else h0)
    Cp = -K - C * C
    Cpp = -2.0 * C * Cp
    s = zeff * r
    B, Bp = zeff * C, C + s * Cp
    Bdd = (2.0 * Cp + s * (Cpp - Cp * Ap)) * r
    amb = A - B
    zsq = zeff * zeff
    return {
        "A": A, "Aprime": Ap, "Adprime": Add, "B": B, "Bprime": Bp, "Bdprime": Bdd,
        "alpha": (zsq * Add + 6.0 * amb - 4.0 * zeff * (Ap - Bp)) / zsq,
        "beta": (zeff * Ap - 2.0 * amb) / zsq,
        "gamma": Bdd,
        "delta": Bp / zeff,
    }


def _profiles(cost, K, z):
    """All profile quantities at an array of z >= 0 values.

    Entries below SERIES_SWITCH use the origin series (limits); the rest are
    evaluated directly at their own basepoint.  An array with no entry below
    SERIES_SWITCH gets the direct-branch arrays as they are.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise OutOfRangeError("profile arguments must be nonnegative")
    if np.any(z > cost.zmax * (1.0 + 1e-9) + 1e-15):
        raise OutOfRangeError(f"z beyond |l'(D)| = {cost.zmax}")
    small = z < SERIES_SWITCH
    if not np.any(small):
        return _direct_profiles(cost, K, z)
    out = {key: np.empty_like(z) for key in _PROFILE_KEYS}
    a, b = _ab_series_origin(cost, K)
    zs = z[small]
    amb = tuple(ai - bi for ai, bi in zip(a, b))
    out["A"][small] = _poly(a, zs, lambda k: 1, 0)
    out["Aprime"][small] = _poly(a, zs, lambda k: k, 1)
    out["Adprime"][small] = _poly(a, zs, lambda k: k * (k - 1), 2)
    out["B"][small] = _poly(b, zs, lambda k: 1, 0)
    out["Bprime"][small] = _poly(b, zs, lambda k: k, 1)
    out["Bdprime"][small] = _poly(b, zs, lambda k: k * (k - 1), 2)
    # alpha and beta come from the numerator series shifted down by z^2;
    # the degree-0/1 terms vanish (checked in _ab_series_origin)
    n_coeffs = tuple(k * (k - 1) * a[k] + (6 - 4 * k) * amb[k] for k in range(7))
    m_coeffs = tuple(k * a[k] - 2 * amb[k] for k in range(7))
    out["alpha"][small] = _poly(n_coeffs, zs, lambda k: 1, 2)
    out["beta"][small] = _poly(m_coeffs, zs, lambda k: 1, 2)
    out["gamma"][small] = _poly(b, zs, lambda k: k * (k - 1), 2)
    out["delta"][small] = _poly(b, zs, lambda k: k, 2)
    large = ~small
    if np.any(large):
        for key, col in _direct_profiles(cost, K, z[large]).items():
            out[key][large] = col
    return out


def coefficient_arrays(cost, K, z):
    """A, B, their first two derivatives and alpha..delta at each z >= 0.

    The one public entry point of the profiles: z is a scalar or an array,
    and every value comes back as an array of z's size.
    """
    return _profiles(cost, K, np.atleast_1d(np.asarray(z, dtype=float)))


@lru_cache(maxsize=64)
def _profile_row(cost, K, z):
    """The profile quantities at one z >= 0, as floats.

    _profiles gives the same bits on the scalar z as on np.array([z]), at
    less cost.  The row is memoised, so that the closed and Jacobi routes of
    one evaluation share it, and read-only, since every caller gets the same
    one.
    """
    return MappingProxyType({key: float(col) for key, col in _profiles(cost, K, z).items()})


def decompose(form, u, v):
    """Split u into its components along v and orthogonal to v."""
    vv = form.inner(v, v)
    if vv == 0.0:
        raise ZeroVectorError("cannot decompose against a zero vector")
    u0 = v * (form.inner(u, v) / vv)
    return u0, u - u0


def _tangential_factor(K, d):
    """|v|*coth(|v|) / 1 / |v|*cot(|v|) with its series limit at |v| -> 0."""
    if K == 0:
        return 1.0
    if d < SERIES_SWITCH:
        d2 = d * d
        return 1.0 + K * d2 / 3.0 - d2 * d2 / 45.0
    if K == -1:
        return d / math.tanh(d)
    if math.pi - d < _POLE_TOL:
        raise PoleError("|v| within tolerance of the sphere conjugate point at pi")
    return d / math.tan(d)


def jacobi_map_closed(form, u, v):
    """Initial covariant derivative of the Jacobi field with J(0)=u, J(1)=0.

    Equals -u0 - f(|v|) u1 where f is the tangential factor above.
    """
    d = form.norm(v)
    if d == 0.0:
        raise ZeroVectorError("the Jacobi map needs a nonzero geodesic direction")
    u0, u1 = decompose(form, u, v)
    return -u0 - _tangential_factor(form.curvature, d) * u1


def mtw_closed(cost, form, inp):
    """Transport-cost curvature by the five-term closed formula.

    u and w are decomposed against v; no orthogonality between u and w is
    assumed.
    """
    inp.validate(form)
    z = form.norm(inp.v)
    ab = _profile_row(cost, form.curvature, z)
    u0, u1 = decompose(form, inp.u, inp.v)
    w0, w1 = decompose(form, inp.w, inp.v)
    u0sq, u1sq = form.inner(u0, u0), form.inner(u1, u1)
    w0sq, w1sq = form.inner(w0, w0), form.inner(w1, w1)
    cross = form.inner(u0, w0) * form.inner(u1, w1)
    u1w1 = form.inner(u1, w1)
    total = (
        ab["Adprime"] * u0sq * w0sq
        + ab["Bdprime"] * u1sq * w0sq
        + ab["Aprime"] / z * (u0sq * w1sq + 4.0 * cross)
        + ab["Bprime"] / z * (u1sq * w1sq - 4.0 * cross)
        + 2.0 * (ab["A"] - ab["B"]) / (z * z) * (u1w1 * u1w1 - u0sq * w1sq - 2.0 * cross)
    )
    return -1.5 * total


def mtw_via_jacobi(cost, form, inp):
    """Transport-cost curvature as -(3/2) d^2/ds^2 of the Jacobi-map reduction.

    The scalar s -> A(|v+sw|)|u0(s)|^2 + B(|v+sw|)|u1(s)|^2 is differentiated
    twice at s = 0 with a jet in s, so this route and the closed formula share
    only A, B and their first two derivatives at |v|, read from the same
    profile row, and differ in every algebraic step after that.  The s-jets
    have length 3, the orders that coefficient 2 of the result reads.
    """
    inp.validate(form)
    v, w, u = inp.v, inp.w, inp.u
    z0 = form.norm(v)
    ab = _profile_row(cost, form.curvature, z0)
    a_table = (ab["A"], ab["Aprime"], 0.5 * ab["Adprime"])
    b_table = (ab["B"], ab["Bprime"], 0.5 * ab["Bdprime"])
    q = Jet((z0 * z0, 2.0 * form.inner(v, w), form.inner(w, w)), basepoint=0.0)
    r = jet_compose("sqrt", q)
    a_of_r = _compose_table(a_table, r)
    b_of_r = _compose_table(b_table, r)
    p = Jet((form.inner(u, v), form.inner(u, w), 0.0), basepoint=0.0)
    u0sq = p * p / q
    g = a_of_r * u0sq + b_of_r * (form.inner(u, u) - u0sq)
    return -3.0 * float(g.coeffs[2])

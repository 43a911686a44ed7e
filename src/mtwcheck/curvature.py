"""Closed-form curvature layer for radial costs on space forms.

Everything here flows from two scalar functions of z = |v|:

    A(z) = 1/h'(z)
    B(z) = z*coth(h(z))  [K=-1],   z/h(z)  [K=0],   z*cot(h(z))  [K=+1]

with h the inverse of l'.  Their first two derivatives feed a five-term
closed formula for the curvature of the transport cost, the four coefficient
functions alpha, beta, gamma, delta that drive the inequality checker, and a
second analytic route that differentiates A and B along s -> |v + s*w| with
an s-jet.  Both routes take u, v and w as ambient arrays: tangent vectors at
one point of a SpaceForm, which neither route reads.

With d/dz = (1/l'') d/dh, A, B and their derivatives are functions of h,
built from the derivatives of l: away from z = 0 they are explicit in the
derivatives of l at h(z), and near z = 0 their Taylor series in h come from
the jet of l at 0 and are evaluated at h(z).  No finite differences and no
series reversion enter anywhere in this module.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .costs import eval_cost_jet, inverse_lprime
from .errors import InputError
from .jets import Jet, _compose_table, jet_compose, jet_compose_pair

# Below this argument A, B and the coefficient functions switch from direct
# evaluation at h(z) to evaluation of their series in h at 0, whose shifted
# coefficients give the z -> 0 limits exactly.
SERIES_SWITCH = 1e-4

# Where l''(0) is small, the series' radius in h can be tiny and h(z) can
# leave it at z < SERIES_SWITCH.  A point takes the series only where h(z)
# lies within this fraction of the radius, so that the first order the
# series drop, h^4, is below 1e-12 of the leading one.
SERIES_RADIUS_FRACTION = 1e-3

_POLE_TOL = 1e-9

# The largest working diameter on the sphere: h(z) runs up to D, which
# stays ten pole tolerances clear of the cot pole at pi.
SPHERE_MAX_DIAMETER = math.pi - 10.0 * _POLE_TOL


_PROFILE_KEYS = ("A", "Aprime", "Adprime", "B", "Bprime", "Bdprime",
                 "alpha", "beta", "gamma", "delta")


def _shift(jet, k):
    """jet / h^k for a jet at 0 whose orders below k vanish."""
    return Jet(jet.coeffs[k:])


def _times_h(jet):
    """jet * h for a jet at 0: one order longer, with a zero constant term."""
    return Jet((0.0,) + jet.coeffs)


@lru_cache(maxsize=64)
def _origin_series(cost, K):
    """Taylor coefficients in h at h = 0 of every profile quantity.

    Let lp be the jet of l' at 0 and P = lp/h, so that z = h P(h).  With
    d/dz = (1/l'') d/dh:

        A = l'',  A' = (dA/dh)/A,  A'' = (dA'/dh)/A,
        B = P (h C(h)),  B' = (dB/dh)/A,  B'' = (dB'/dh)/A,

    with h C(h) = cosh/(sinh/h), 1 or cos/(sin/h) for K = -1, 0, +1.  The
    divisions by z and z^2 in alpha..delta are shifts by one and two orders
    of h followed by a division by P or P^2, whose constant term l''(0) is
    nonzero; the two orders they drop from A - B vanish on an even l, as
    cost construction checks.  Each series keeps the orders that the
    order-6 jet of l makes exact: orders 0..2 for A'', B'' and alpha..delta,
    which are even in h, so their truncation error is of order h^4.
    """
    lp = eval_cost_jet(cost, 0.0).series_derivative()
    P = _shift(lp, 1)
    A = lp.series_derivative()
    if K == 0:
        B = P
    else:
        cosh, sinh = jet_compose_pair("cosh" if K == -1 else "cos", Jet.variable(0.0))
        B = P * (cosh / _shift(sinh, 1))
    amb = A - B
    Ap, Bp = A.series_derivative() / A, B.series_derivative() / A
    Add, Bdd = Ap.series_derivative() / A, Bp.series_derivative() / A
    Psq = P * P
    series = {
        "A": A, "Aprime": Ap, "Adprime": Add, "B": B, "Bprime": Bp, "Bdprime": Bdd,
        "alpha": Add + _shift(6.0 * amb - 4.0 * _times_h(P * (Ap - Bp)), 2) / Psq,
        "beta": _shift(_times_h(P * Ap) - 2.0 * amb, 2) / Psq,
        "gamma": Bdd,
        "delta": _shift(Bp, 1) / P,
    }
    return MappingProxyType({key: tuple(float(c) for c in jet.coeffs)
                             for key, jet in series.items()})


@lru_cache(maxsize=64)
def series_limit(cost, K):
    """The z below which the profiles take the origin series.

    That is SERIES_SWITCH, or less where h(z) would leave
    SERIES_RADIUS_FRACTION of the series' radius in h.  The radius is
    estimated as r = min_k |a_0/a_k|^(1/k) over the Taylor coefficients a_k
    of A = l'' at 0: by Fujiwara's bound no zero of the truncated l'', each
    a pole of the profiles, lies within r/2 of 0.  It is capped at pi for
    K = -1, +1, where h C(h) has its poles at i pi or pi.  Since |l'| grows
    on [0, D], h(z) < h_max holds where z < |l'(h_max)|.
    """
    a = _origin_series(cost, K)["A"]
    radius = min([abs(a[0] / c) ** (1.0 / k) for k, c in enumerate(a) if k and c]
                 + [math.inf if K == 0 else math.pi])
    h_max = SERIES_RADIUS_FRACTION * radius
    if h_max >= cost.diameter:
        return SERIES_SWITCH
    return min(SERIES_SWITCH, abs(float(cost.lprime(h_max))))


def _horner(coeffs, h):
    """sum_k coeffs[k] * h^k."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * h + c
    return acc


def _direct_profiles(cost, K, h0):
    """All profile quantities at an array of h0 = h(z), z >= SERIES_SWITCH,
    each evaluated directly at its own h0.

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
    # l^(k) = k! c_k, written into arrays of h0's shape: a coefficient that
    # does not depend on z (c_2 of z^2/2, say) is a float.  No name holds
    # the jet, so its arrays are freed before the formulas below run.  On a
    # 0-d h0, [()] makes them numpy scalars.
    zeff, l2, l3, l4 = (np.multiply(c, math.factorial(k), out=np.empty_like(h0))[()]
                        for k, c in enumerate(eval_cost_jet(cost, h0, 5).coeffs[1:], 1))
    # Each step below is one of the formulas' operations, written into an
    # array made here, by augmented assignment or into scratch (l3, once A''
    # is formed).  Numpy scalars are rebound instead, and take out=None.
    scratch = l3 if h0.ndim else None
    r = 1.0 / l2
    A, Ap = l2, l3 * r
    l3 *= Ap
    l4 -= l3
    Add = l4
    Add *= np.multiply(r, r, out=scratch)
    # coth from cosh and sinh, whose numpy loops the costs' jets load anyway;
    # a first call of np.tanh maps 128 KB more of numpy into the process
    if K == -1:
        C = np.cosh(h0)
        C /= np.sinh(h0)
    else:
        C = 1.0 / (np.tan(h0) if K == 1 else h0)
    # C' = -K - C^2 as (-C^2) + (-K), the same bits: a - b is a + (-b), and
    # -K is the int 0, so +0.0, at K = 0
    Cp = -C
    Cp *= C
    Cp += -K
    Cpp = -2.0 * C
    Cpp *= Cp
    s = zeff * r
    B = zeff * C
    Bp = s * Cp
    Bp += C
    Cpp -= np.multiply(Cp, Ap, out=scratch)
    Cpp *= s
    Bdd = Cp
    Bdd *= 2.0
    Bdd += Cpp
    Bdd *= r
    amb = A - B
    zsq = zeff * zeff
    alpha = zsq * Add
    alpha += np.multiply(6.0, amb, out=scratch)
    t = np.multiply(4.0, zeff, out=scratch)
    t *= Ap - Bp
    alpha -= t
    alpha /= zsq
    beta = zeff * Ap
    amb *= 2.0
    beta -= amb
    beta /= zsq
    return {
        "A": A, "Aprime": Ap, "Adprime": Add, "B": B, "Bprime": Bp, "Bdprime": Bdd,
        "alpha": alpha, "beta": beta, "gamma": Bdd, "delta": Bp / zeff,
    }


def _profiles(cost, K, z):
    """All profile quantities at an array of z >= 0 values.

    h0 = h(z) is computed once for all of z.  Entries below
    series_limit(cost, K) Horner-evaluate the origin series at h0; the rest
    are evaluated directly at their own h0.  An array with no entry
    below that limit gets the direct-branch arrays as they are.
    """
    if K not in (-1, 0, 1):
        raise InputError(f"curvature must be -1, 0, or +1, got {K!r}")
    if K == 1 and cost.diameter > SPHERE_MAX_DIAMETER:
        raise InputError(f"on the sphere the diameter must be at most "
                         f"{SPHERE_MAX_DIAMETER!r}, clear of the cot pole at pi")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise InputError("profile arguments must be nonnegative")
    h0 = np.asarray(inverse_lprime(cost, z))
    small = z < SERIES_SWITCH
    if np.any(small):
        # only here, so that no z above SERIES_SWITCH builds the series
        limit = series_limit(cost, K)
        if limit < SERIES_SWITCH:
            small = z < limit
    if not np.any(small):
        return _direct_profiles(cost, K, h0)
    hs = h0[small]
    if np.all(small):
        out = {key: np.empty_like(z) for key in _PROFILE_KEYS}
    else:
        # the direct branch on the whole array, each series point standing
        # in as the first direct one; the series then overwrite those points
        # (into one array for gamma and B'', which they give equal bits)
        out = _direct_profiles(cost, K, np.where(small, h0.flat[np.argmin(small)], h0))
    for key, coeffs in _origin_series(cost, K).items():
        out[key][small] = _horner(coeffs, hs)
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
        raise InputError("cannot decompose against a zero vector")
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
        raise InputError("|v| within tolerance of the sphere conjugate point at pi")
    return d / math.tan(d)


def jacobi_map_closed(form, u, v):
    """Initial covariant derivative of the Jacobi field with J(0)=u, J(1)=0.

    Equals -u0 - f(|v|) u1 where f is the tangential factor above.
    """
    d = form.norm(v)
    if d == 0.0:
        raise InputError("the Jacobi map needs a nonzero geodesic direction")
    u0, u1 = decompose(form, u, v)
    return -u0 - _tangential_factor(form.curvature, d) * u1


def _speed(form, v):
    """|v|, which every route needs nonzero."""
    z = form.norm(v)
    if z == 0.0:
        raise InputError("v must be nonzero")
    return z


def mtw_closed(cost, form, u, v, w):
    """Transport-cost curvature by the five-term closed formula.

    u, v and w are tangent vectors at one point, which the formula does not
    read.  u and w are decomposed against v; no orthogonality between u and
    w is assumed.
    """
    z = _speed(form, v)
    ab = _profile_row(cost, form.curvature, z)
    u0, u1 = decompose(form, u, v)
    w0, w1 = decompose(form, w, v)
    u0sq, u1sq = form.inner(u0, u0), form.inner(u1, u1)
    w0sq, w1sq = form.inner(w0, w0), form.inner(w1, w1)
    cross = form.inner(u0, w0) * form.inner(u1, w1)
    u1w1 = form.inner(u1, w1)
    # 2(A - B)/z^2 as A'/z - beta, from beta = A'/z - 2(A - B)/z^2: near
    # z = 0, A - B cancels to roundoff, while the row's beta comes from the
    # origin series, where the division by z^2 is an exact shift
    total = (
        ab["Adprime"] * u0sq * w0sq
        + ab["Bdprime"] * u1sq * w0sq
        + ab["Aprime"] / z * (u0sq * w1sq + 4.0 * cross)
        + ab["Bprime"] / z * (u1sq * w1sq - 4.0 * cross)
        + (ab["Aprime"] / z - ab["beta"]) * (u1w1 * u1w1 - u0sq * w1sq - 2.0 * cross)
    )
    return -1.5 * total


def mtw_via_jacobi(cost, form, u, v, w):
    """Transport-cost curvature as -(3/2) d^2/ds^2 of the Jacobi-map reduction.

    The scalar s -> A(|v+sw|)|u0(s)|^2 + B(|v+sw|)|u1(s)|^2 is differentiated
    twice at s = 0 with a jet in s, so this route and the closed formula share
    only A, B and their first two derivatives at |v|, read from the same
    profile row, and differ in every algebraic step after that.  The s-jets
    have length 3, the orders that coefficient 2 of the result reads.
    """
    z0 = _speed(form, v)
    ab = _profile_row(cost, form.curvature, z0)
    a_table = (ab["A"], ab["Aprime"], 0.5 * ab["Adprime"])
    b_table = (ab["B"], ab["Bprime"], 0.5 * ab["Bdprime"])
    q = Jet((z0 * z0, 2.0 * form.inner(v, w), form.inner(w, w)))
    r = jet_compose("sqrt", q)
    a_of_r = _compose_table(a_table, r)
    b_of_r = _compose_table(b_table, r)
    p = Jet((form.inner(u, v), form.inner(u, w), 0.0))
    u0sq = p * p / q
    g = a_of_r * u0sq + b_of_r * (form.inner(u, u) - u0sq)
    return -3.0 * float(g.coeffs[2])

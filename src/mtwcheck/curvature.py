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

Floating-point policy: alpha and beta divide cancelling differences by z^2, so
their noise grows like eps/z^2 as z -> 0.  coefficient_arrays returns with the
values a per-point band, shaped by each point's branch, by which the checker
widens the pass/fail boundary: coefficients that are identically zero then
land in the band (weak, not strict) instead of flipping to "fails" on
roundoff, while any genuine violation dwarfs the band away from z = 0.
"""

from __future__ import annotations

import math

import numpy as np

from .costs import derivative_arrays, eval_cost_jet, inverse_lprime
from .errors import InputError
from .jets import Jet, _compose_table, jet_compose

# Below this argument A, B and the coefficient functions switch from direct
# evaluation at h(z) to evaluation of their series in h at 0, whose shifted
# coefficients give the z -> 0 limits exactly.
SERIES_SWITCH = 1e-4

# Where l''(0) is small, the series' radius in h can be tiny and h(z) can
# leave it at z < SERIES_SWITCH.  A point takes the series only where h(z)
# lies within this fraction of the radius, so that the first order the
# series drop, h^4, is below 1e-12 of the leading one.
SERIES_RADIUS_FRACTION = 1e-3

# Multiple of machine epsilon for the band of direct-branch points; measured
# pipeline noise sits about an order and a half below the resulting band.
_NOISE_BAND_COEFF = 500.0 * np.finfo(float).eps

_POLE_TOL = 1e-9

# The largest working diameter on the sphere: h(z) runs up to D, which
# stays ten pole tolerances clear of the cot pole at pi.
SPHERE_MAX_DIAMETER = math.pi - 10.0 * _POLE_TOL


def check_sphere_diameter(K, diameter):
    """Refuse a working diameter above SPHERE_MAX_DIAMETER on the sphere."""
    if K == 1 and diameter > SPHERE_MAX_DIAMETER:
        raise InputError(f"the diameter (--diameter) must be at most {SPHERE_MAX_DIAMETER!r} "
                         f"on the sphere (K = 1), clear of the cot pole at pi; got {diameter!r}")


def _shift(jet, k):
    """jet / h^k for a jet at 0 whose orders below k vanish."""
    return Jet(jet.coeffs[k:])


def _origin_series(cost, K):
    """(series, limit): the Taylor series in h at h = 0 of every profile
    quantity, as jets, and the z below which the profiles take them.

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
        h = Jet.variable(0.0)
        cosh, sinh = (jet_compose(f, h) for f in (("cosh", "sinh") if K == -1 else ("cos", "sin")))
        B = P * (cosh / _shift(sinh, 1))
    amb = A - B
    Ap, Bp = A.series_derivative() / A, B.series_derivative() / A
    Add, Bdd = Ap.series_derivative() / A, Bp.series_derivative() / A
    Psq = P * P
    series = {
        "A": A, "Aprime": Ap, "Adprime": Add, "B": B, "Bprime": Bp,
        "alpha": Add + (_shift(6.0 * amb, 2) - 4.0 * _shift(P * (Ap - Bp), 1)) / Psq,
        "beta": (_shift(P * Ap, 1) - _shift(2.0 * amb, 2)) / Psq,
        "gamma": Bdd,
        "delta": _shift(Bp, 1) / P,
    }
    # The limit is SERIES_SWITCH, or less where h(z) would leave
    # SERIES_RADIUS_FRACTION of the series' radius in h, estimated as r =
    # min_k |a_0/a_k|^(1/k) over the coefficients a_k of A = l'' at 0: by
    # Fujiwara's bound no zero of the truncated l'', a pole of the profiles,
    # lies within r/2 of 0.  r is capped at pi for K = -1, +1, where h C(h)
    # has its poles at i pi or pi.  As |l'| grows on [0, D], h(z) < h_max
    # holds where z < |l'(h_max)|.
    a = A.coeffs
    radius = min([abs(a[0] / c) ** (1.0 / k) for k, c in enumerate(a) if k and c]
                 + [math.inf if K == 0 else math.pi])
    h_max = SERIES_RADIUS_FRACTION * radius
    if h_max >= cost.diameter:
        return series, SERIES_SWITCH
    return series, min(SERIES_SWITCH, abs(float(cost.lprime(h_max))))


def _horner(coeffs, h):
    """sum_k coeffs[k] * h^k."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * h + c
    return acc


def _cot(K, h):
    """cot_K(h): coth h, 1/h or cot h at K = -1, 0, +1, as a new array or scalar."""
    # coth from cosh and sinh, whose numpy loops the costs' jets load anyway;
    # a first call of np.tanh maps 128 KB more of numpy into the process
    if K == -1:
        C = np.cosh(h)
        C /= np.sinh(h)
        return C
    return 1.0 / (np.tan(h) if K == 1 else h)


def _direct_profiles(cost, K, h0):
    """All profile quantities at an array of h0 = h(z), z >= SERIES_SWITCH,
    each evaluated directly at its own h0.

    With d/dz = (1/l'') d/dh, each quantity is explicit in l' .. l'''' at
    h0 = h(z) and in C(h) = coth h, 1/h or cot h for K = -1, 0, +1:

        A = l'',  A' = l'''/l'',  A'' = (l'''' - l''' A')/l''^2,
        B = l' C,  B' = C + s C',  B'' = (2C' + s (C'' - C' A'))/l'',

    with s = l'/l'', C' = -K - C^2 and C'' = -2 C C'.

    h0 is exact only as the inverse of zeff = l'(h0), which differs from z
    by the inverse's residual: up to 1e-13 relative for the Newton inverse,
    or 1e-9 where it takes a z above |l'(D)| as |l'(D)|.  B cancels against
    A to second order, so B is built at zeff, and alpha..delta divide by it.
    """
    # the jet of l is freed before the formulas below run
    zeff, l2, l3, l4 = derivative_arrays(cost, h0, 4)
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
    C = _cot(K, h0)
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
        "A": A, "Aprime": Ap, "Adprime": Add, "B": B, "Bprime": Bp,
        "alpha": alpha, "beta": beta, "gamma": Bdd, "delta": Bp / zeff,
    }


def _profiles(cost, K, z):
    """All profile quantities at an array of z >= 0 values, and the limit
    below which a point took the origin series.

    h0 = h(z) is computed once for all of z.  Entries below the limit, the
    one _origin_series returns or, with no z below SERIES_SWITCH,
    SERIES_SWITCH, Horner-evaluate the origin series at h0; the rest are
    evaluated directly.
    """
    if K not in (-1, 0, 1):
        raise InputError(f"curvature must be -1, 0, or +1, got {K!r}")
    check_sphere_diameter(K, cost.diameter)
    z = np.asarray(z, dtype=float)
    if (z < 0.0).any():
        raise InputError("profile arguments must be nonnegative")
    h0 = np.asarray(inverse_lprime(cost, z))
    limit = SERIES_SWITCH
    small = z < limit
    if small.any():
        # only here, so that no z above SERIES_SWITCH builds the series
        series, limit = _origin_series(cost, K)
        small = z < limit
    if not small.any():
        return _direct_profiles(cost, K, h0), limit
    hs = h0[small]
    if small.all():
        out = {key: np.empty_like(z) for key in series}
    else:
        # the direct branch on the whole array, each series point standing
        # in as the first direct one; the series then overwrite those points
        out = _direct_profiles(cost, K, np.where(small, h0.flat[np.argmin(small)], h0))
    for key, jet in series.items():
        out[key][small] = _horner(jet.coeffs, hs)
    return out, limit


def _noise_band(z, profile, limit):
    """Per-point widening of the pass/fail boundary; see the module docstring.
    Points below limit, the one _profiles returns, took the origin series.

    Two roundoff amplifiers shape the band on the direct branch: the division
    of cancelling differences by z^2, and the factor 1/l''^3 in A'' and B''
    (A = l''), which grows like (scale/|A|)^3 where l'' gets small.
    Series-branch points Horner-evaluate at h(z) the Taylor series in h of
    each quantity, in which the divisions by z and z^2 are exact shifts, so
    they carry no cancellation and only need an absolute floor at the
    roundoff scale.  Elementwise, and bitwise:

        scale = maximum(1, maximum(|A|, |B|))
        tiny = clip(|A|, 1e-3, 1)
        band = where(z >= limit, _NOISE_BAND_COEFF * (scale / tiny)**3
                     * (1 + 1 / maximum(z, limit)**2), 1e-12 * scale)

    Each step writes into one of three arrays made here.
    """
    tiny = np.abs(profile["A"])
    scale = np.abs(profile["B"])
    np.maximum(tiny, scale, out=scale)
    np.maximum(1.0, scale, out=scale)
    np.clip(tiny, 1e-3, 1.0, out=tiny)
    direct = np.divide(scale, tiny, out=tiny)
    np.power(direct, 3, out=direct)
    direct *= _NOISE_BAND_COEFF
    zterm = np.maximum(z, limit)
    np.square(zterm, out=zterm)
    np.divide(1.0, zterm, out=zterm)
    direct *= np.add(1.0, zterm, out=zterm)
    scale *= 1e-12
    np.copyto(scale, direct, where=z >= limit)
    return scale


def coefficient_arrays(cost, K, z):
    """A, B, A', A'', B', alpha..delta (gamma is B'') and band at each z >= 0.

    The scan's entry point of the profiles; profile_row is the routes' one,
    and both read _profiles.  z is a scalar or an array, and every value
    comes back as an array of z's size.  band is the roundoff band of
    alpha..delta (_noise_band), shaped by each point's branch.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    profile, limit = _profiles(cost, K, z)
    profile["band"] = _noise_band(z, profile, limit)
    return profile


def profile_row(cost, form, v):
    """The profile quantities at z = |v|, as floats, and z itself: the one
    row that mtw_closed and mtw_via_jacobi read.

    form.speed tests |v|, and _profiles gives the same bits on the scalar z
    as on np.array([z]), at less cost.  The row carries no band, which no
    route reads.
    """
    z = form.speed(v)
    profile, _ = _profiles(cost, form.curvature, z)
    return {"z": z} | {key: float(col) for key, col in profile.items()}


def decompose(form, u, v):
    """Split u into its components along v and orthogonal to v."""
    vv = form.inner(v, v)
    if vv == 0.0:
        raise InputError("cannot decompose against a zero vector")
    u0 = v * (form.inner(u, v) / vv)
    return u0, u - u0


def jacobi_map_closed(form, u, v):
    """Initial covariant derivative of the Jacobi field with J(0)=u, J(1)=0.

    Equals -u0 - |v| C(|v|) u1, with u0 and u1 the components of u along
    and orthogonal to v and C = cot_K read from _cot.
    """
    d = form.speed(v)
    if form.curvature == 1 and math.pi - d < _POLE_TOL:
        raise InputError("|v| within tolerance of the sphere conjugate point at pi")
    u0, u1 = decompose(form, u, v)
    return -u0 - d * _cot(form.curvature, d) * u1


def mtw_closed(row, form, u, v, w):
    """Transport-cost curvature by the five-term closed formula.

    row is profile_row(cost, form, v).  u, v and w are tangent vectors at
    one point, which the formula does not read.  u and w are decomposed
    against v; no orthogonality between u and w is assumed.
    """
    z = row["z"]
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
        row["Adprime"] * u0sq * w0sq
        + row["gamma"] * u1sq * w0sq
        + row["Aprime"] / z * (u0sq * w1sq + 4.0 * cross)
        + row["Bprime"] / z * (u1sq * w1sq - 4.0 * cross)
        + (row["Aprime"] / z - row["beta"]) * (u1w1 * u1w1 - u0sq * w1sq - 2.0 * cross)
    )
    return -1.5 * total


def mtw_via_jacobi(row, form, u, v, w):
    """Transport-cost curvature as -(3/2) d^2/ds^2 of the Jacobi-map reduction.

    The scalar s -> A(|v+sw|)|u0(s)|^2 + B(|v+sw|)|u1(s)|^2 is differentiated
    twice at s = 0 with a jet in s, so this route and the closed formula share
    only A, B and their first two derivatives at |v|, read from the same
    profile_row, and differ in every algebraic step after that.  The s-jets
    have length 3, the orders that coefficient 2 of the result reads.
    """
    a_table = (row["A"], row["Aprime"], 0.5 * row["Adprime"])
    b_table = (row["B"], row["Bprime"], 0.5 * row["gamma"])
    q = Jet((row["z"] * row["z"], 2.0 * form.inner(v, w), form.inner(w, w)))
    r = jet_compose("sqrt", q)
    a_of_r = _compose_table(a_table, r)
    b_of_r = _compose_table(b_table, r)
    p = Jet((form.inner(u, v), form.inner(u, w), 0.0))
    u0sq = p * p / q
    g = a_of_r * u0sq + b_of_r * (form.inner(u, u) - u0sq)
    return -3.0 * float(g.coeffs[2])

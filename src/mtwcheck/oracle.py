"""Brute-force ground truth that never touches the closed-form layer.

Two independent checks live here: the transport-cost curvature computed
straight from its definition as a fourth mixed derivative of
l(d(exp_x(t*u), cost-exp_x(v+s*w))) on an explicit model, and direct
integration of the Jacobi field equation along a geodesic.  Both take the
point x and tangent vectors at x as ambient arrays.  The definitional route
uses nothing from the closed-form layer; the Jacobi integration consumes the
closed Jacobi map only as the initial data whose correctness it is testing.
"""

from __future__ import annotations

import numpy as np

from .costs import in_lprime_range
from .errors import InputError, NumericError
from .geometry import cost_exp, orthonormal_tangent_frame

# Step in t, and in s where the s-stencil fits (see _s_step), of the
# mixed-derivative stencil.  mtw_definitional halves both once and
# Richardson-extrapolates the two stencils.
STENCIL_STEP = 1e-2


def _s_step(cost, form, v, w):
    """The step in s: STENCIL_STEP where every cost-exponential argument
    v + s w of the two stencils lies in the invertible range of l', and else
    (|l'(D)| - |v|) / (2 |w|), whose stencils reach at most half way from |v|
    to |l'(D)|.  Where that step is not positive, or so small that the
    stencil's divisor (ht hs)^2 would leave the normal floats, no step is
    usable, and InputError names |v|, |w| and |l'(D)|.
    """
    zv, zw = form.norm(v), form.norm(w)
    # |v| + STENCIL_STEP |w| bounds every argument's norm; only where it
    # leaves the range are the arguments themselves measured
    if zv + STENCIL_STEP * zw <= cost.zmax or in_lprime_range(
            cost, max(form.norm(v + (j * hs) * w)
                      for hs in (STENCIL_STEP, STENCIL_STEP / 2.0) for j in (-1, 1))):
        return STENCIL_STEP
    room = cost.zmax - zv
    step = room / (2.0 * zw) if room > 0.0 else 0.0
    # the fine stencil divides by (STENCIL_STEP / 2)^2 (step / 2)^2
    if not (0.25 * STENCIL_STEP * step) ** 2 >= np.finfo(float).tiny:
        raise InputError(
            f"no usable step in s keeps the oracle's stencil in the invertible range of "
            f"l': |v| = {zv!r}, |w| = {zw!r}, |l'(D)| = {cost.zmax!r}")
    return step


def _mixed_second_differences(cost, form, x, u, v, w, ht, hs):
    """(d^2/dt^2)(d^2/ds^2) F at 0 via the 3x3 product of central stencils.

    F is l of the distance from exp_x(i ht u) to cost-exp_x(v + j hs w), for
    i, j in (-1, 0, 1): the three targets come from one cost_exp call, the
    nine distances from one distance call and their l from one call of the
    cost.  The weighted sum runs pair by pair, i outer and j inner.
    """
    targets = cost_exp(cost, form, x, np.array([v + (j * hs) * w for j in (-1, 0, 1)]))
    starts = np.array([form.exp_map(x, u * (i * ht)) for i in (-1, 0, 1)])
    values = cost(form.distance(starts, targets))
    if not np.isfinite(values).all():
        raise NumericError("stencil produced a non-finite cost value")
    weights = (1.0, -2.0, 1.0)
    acc = 0.0
    for wi, row in zip(weights, values.tolist()):
        for wj, value in zip(weights, row):
            acc += wi * wj * value
    return acc / (ht * ht * hs * hs)


def _power_of_two_scale(form, vec):
    """The a of vec 2^-a: 0 where n = round(log2 |vec|) is 0, 1 or 2, or |vec|
    is 0 or not finite; else n - 1."""
    norm = form.norm(vec)
    n = round(float(np.log2(norm))) if 0.0 < norm < np.inf else 0
    return 0 if 0 <= n <= 2 else n - 1


def mtw_definitional(cost, form, x, u, v, w):
    """Curvature straight from the definition: -(3/2) of the 4th mixed derivative.

    u, v and w are tangent vectors at the point x, as ambient arrays.  The
    stencil is second order in each step; it runs at steps (STENCIL_STEP,
    _s_step) in (t, s) and at half of them, and the extrapolation of the two
    removes the leading error terms.

    At fixed steps the error relative to |u|^2 |w|^2 is least for lengths of
    about 1.4 to 4, and grows toward 0 (roundoff) and infinity (overflow).  So
    the stencils run on u 2^-a and w 2^-b, which keep lengths in [2^-0.5,
    2^2.5) and bring others into [2^0.5, 2^1.5); the result, quadratic in u
    and w, is multiplied by 2^(2a + 2b) exactly, so kept lengths keep bits.
    """
    form.speed(v)
    a, b = _power_of_two_scale(form, u), _power_of_two_scale(form, w)
    u, w = np.ldexp(u, -a), np.ldexp(w, -b)
    hs = _s_step(cost, form, v, w)
    coarse = _mixed_second_differences(cost, form, x, u, v, w, STENCIL_STEP, hs)
    fine = _mixed_second_differences(cost, form, x, u, v, w, STENCIL_STEP / 2.0, hs / 2.0)
    return float(np.ldexp(-1.5 * ((4.0 * fine - coarse) / 3.0), 2 * (a + b)))


def jacobi_residual(form, x, u, v, steps=1000):
    """|J(1)| after integrating the Jacobi equation with the closed-map initial data.

    The field J(0) = u, DJ(0) = jacobi_map_closed(u, v) is integrated along
    exp_x(tau*v) with classical RK4 in parallel-frame coordinates, where the
    curvature term reduces to a constant matrix M built from curvature_action.
    The state (J, DJ) then obeys y' = L y with L = [[0, I], [-M, 0]], so one
    RK4 step of size h is the matrix I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24
    and the integration is its steps-th power.  A correct Jacobi map makes
    J(1) vanish.
    """
    from .curvature import jacobi_map_closed

    if form.norm(v) == 0.0:
        raise InputError("jacobi_residual needs a nonzero geodesic direction")
    frame = orthonormal_tangent_frame(form, x, first=v)
    n = form.dimension

    def coords(vec):
        return np.array([form.inner(vec, e) for e in frame])

    # R(v, .)v in frame coordinates is a fixed linear map along the geodesic
    matrix = np.empty((n, n))
    for j, e in enumerate(frame):
        matrix[:, j] = coords(form.curvature_action(v, e))

    hl = np.zeros((2 * n, 2 * n))
    hl[:n, n:] = np.eye(n) / steps
    hl[n:, :n] = -matrix / steps
    eye = np.eye(2 * n)
    rk4_step = eye + hl @ (eye + hl @ (eye + hl @ (eye + hl / 4.0) / 3.0) / 2.0)
    state = np.concatenate([coords(u), coords(jacobi_map_closed(form, u, v))])
    state = np.linalg.matrix_power(rk4_step, steps) @ state
    return float(np.linalg.norm(state[:n]))

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

from .errors import StencilDegenerateError, ZeroVectorError
from .geometry import cost_exp, orthonormal_tangent_frame

# Step in t and in s of the mixed-derivative stencil.  mtw_definitional
# halves both once and Richardson-extrapolates the two stencils.
STENCIL_STEP = 1e-2


def _mixed_second_differences(cost, form, x, u, v, w, ht, hs):
    """(d^2/dt^2)(d^2/ds^2) F at 0 via the 3x3 product of central stencils."""
    targets = [cost_exp(cost, form, x, v + (j * hs) * w) for j in (-1, 0, 1)]
    weights = (1.0, -2.0, 1.0)
    acc = 0.0
    for i, wi in zip((-1, 0, 1), weights):
        xi = form.exp_map(x, u * (i * ht))
        for y, wj in zip(targets, weights):
            value = float(cost(form.distance(xi, y)))
            if not np.isfinite(value):
                raise StencilDegenerateError("stencil produced a non-finite cost value")
            acc += wi * wj * value
    return acc / (ht * ht * hs * hs)


def mtw_definitional(cost, form, x, u, v, w):
    """Curvature straight from the definition: -(3/2) of the 4th mixed derivative.

    u, v and w are tangent vectors at the point x, as ambient arrays.  The
    stencil is second order in each step; it runs at STENCIL_STEP and at half
    of it, and the extrapolation of the two removes the leading error term.
    """
    if form.norm(v) == 0.0:
        raise ZeroVectorError("v must be nonzero")
    coarse = _mixed_second_differences(cost, form, x, u, v, w, STENCIL_STEP, STENCIL_STEP)
    fine = _mixed_second_differences(cost, form, x, u, v, w,
                                     STENCIL_STEP / 2.0, STENCIL_STEP / 2.0)
    return -1.5 * ((4.0 * fine - coarse) / 3.0)


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
        raise ZeroVectorError("jacobi_residual needs a nonzero geodesic direction")
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

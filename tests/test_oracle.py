"""Definitional stencil and Jacobi ODE residual."""

import numpy as np
import pytest
from helpers import central_derivative

from mtwcheck import (SpaceForm, eval_cost_jet, jacobi_residual, mtw_closed, mtw_definitional,
                      preset, profile_row)
from mtwcheck.costs import make_cost
from mtwcheck.errors import InputError
from mtwcheck.oracle import STENCIL_STEP, _mixed_second_differences, _s_step

# the oracle's agreement bound in the routes benchmark workload
ORACLE_REL_TOL = 5e-3


def _stencil(cost, form, x, u, v, w, step):
    """The definitional value from one stencil at step in t and s, without extrapolation."""
    return -1.5 * _mixed_second_differences(cost, form, x, u, v, w, step, step)


def test_definitional_flat_zero():
    # F is exactly quadratic in each perturbation here, so the stencil has no
    # truncation error at all; at the largest step the 1/h^4 roundoff
    # amplification is mild and the value sits below 1e-8
    cost = preset("sq", 5.0)
    form = SpaceForm(0, 3)
    x = form.canonical_base()
    rng = np.random.default_rng(2)
    for _ in range(5):
        u = form.random_tangent(x, rng, unit=True)
        v = form.random_tangent(x, rng, unit=True) * rng.uniform(0.3, 1.0)
        w = form.random_tangent(x, rng, unit=True)
        assert abs(_stencil(cost, form, x, u, v, w, 1e-1)) < 1e-8
        # at default steps the roundoff floor dominates but stays small
        assert abs(mtw_definitional(cost, form, x, u, v, w)) < 1e-5


def test_definitional_matches_closed_neg_cosh():
    cost = preset("neg-cosh", 2.0)
    form = SpaceForm(-1, 3)
    x = form.canonical_base()
    rng = np.random.default_rng(101)
    for _ in range(10):
        u = form.random_tangent(x, rng, unit=True)
        v = form.random_tangent(x, rng, unit=True)
        w = form.random_tangent(x, rng, unit=True)
        closed = mtw_closed(profile_row(cost, form, v), form, u, v, w)
        oracle = mtw_definitional(cost, form, x, u, v, w)
        assert abs(closed - oracle) <= 5e-3 * max(1.0, abs(closed))


def test_definitional_zero_w():
    cost = preset("neg-cosh", 2.0)
    form = SpaceForm(-1, 3)
    x = form.canonical_base()
    u = form.frame_tangent([1.0, 0.0, 0.0])
    v = form.frame_tangent([0.0, 1.0, 0.0])
    w = form.frame_tangent([0.0, 0.0, 0.0])
    assert mtw_definitional(cost, form, x, u, v, w) == pytest.approx(0.0, abs=1e-12)


def test_definitional_even_in_perturbations():
    cost = preset("neg-log1p-cosh", 2.0)
    form = SpaceForm(-1, 3)
    x = form.canonical_base()
    rng = np.random.default_rng(103)
    u = form.random_tangent(x, rng, unit=True)
    v = form.random_tangent(x, rng, unit=True) * 0.5
    w = form.random_tangent(x, rng, unit=True)
    base = mtw_definitional(cost, form, x, u, v, w)
    flip_u = mtw_definitional(cost, form, x, -1.0 * u, v, w)
    flip_w = mtw_definitional(cost, form, x, u, v, -1.0 * w)
    # agreement is limited by the stencil roundoff floor, not by symmetry
    assert flip_u == pytest.approx(base, abs=1e-5)
    assert flip_w == pytest.approx(base, abs=1e-5)


def test_definitional_step_convergence():
    # halving both steps must shrink the error by at least a factor 3
    cost = preset("neg-cosh", 2.0)
    form = SpaceForm(-1, 3)
    x = form.canonical_base()
    rng = np.random.default_rng(107)
    improved = 0
    for _ in range(8):
        u = form.random_tangent(x, rng, unit=True)
        v = form.random_tangent(x, rng, unit=True)
        w = form.random_tangent(x, rng, unit=True)
        closed = mtw_closed(profile_row(cost, form, v), form, u, v, w)
        coarse = _stencil(cost, form, x, u, v, w, 4e-2)
        fine = _stencil(cost, form, x, u, v, w, 2e-2)
        if abs(fine - closed) * 3.0 <= abs(coarse - closed):
            improved += 1
    assert improved >= 7


@pytest.mark.parametrize("name,K,u,w", [
    ("neg-cosh", -1, [5e4, 0.0], [0.0, 1.0]),
    ("neg-cosh", -1, [1e-5, 0.0], [0.0, 1.0]),
    ("neg-cosh", -1, [1.0, 0.0], [0.0, 1e-5]),
    ("neg-cosh", -1, [0.0, 5e4], [1e-5, 0.0]),
    ("neg-log1p-cos", 1, [400.0, 0.0], [0.0, 1.0]),
    ("sq", 0, [0.0, 1e-5], [5e4, 0.0]),
])
def test_definitional_on_long_and_short_vectors(name, K, u, w):
    # unscaled, at fixed steps in t and s, |u| = 5e4 reads -6.28e220, |u| =
    # 1e-5 reads -0, |w| = 1e-5 reads -7.1e-7, and on the sphere t u leaves
    # the injectivity radius
    cost = preset(name, 2.0)
    form = SpaceForm(K, 2)
    u, v, w = (form.frame_tangent(c) for c in (u, [0.5, 0.0], w))
    closed = mtw_closed(profile_row(cost, form, v), form, u, v, w)
    oracle = mtw_definitional(cost, form, form.canonical_base(), u, v, w)
    assert oracle == pytest.approx(closed, rel=ORACLE_REL_TOL, abs=0.0)


def test_definitional_scaling_is_exact():
    # |u|, |w| in [2^-0.5, 2^2.5) are not scaled; outside, scaling by 2^k
    # only moves the exponent of the result, bit for bit
    cost = preset("neg-log1p-cosh", 2.0)
    form = SpaceForm(-1, 3)
    x = form.canonical_base()
    rng = np.random.default_rng(41)
    u, w = (form.random_tangent(x, rng, unit=True) for _ in range(2))
    v = form.random_tangent(x, rng, unit=True) * 0.5
    base = mtw_definitional(cost, form, x, 2.0 * u, v, w)
    assert mtw_definitional(cost, form, x, 2.0 ** 10 * u, v, w) == base * 2.0 ** 18
    assert mtw_definitional(cost, form, x, 2.0 ** -20 * u, v, 2.0 ** 30 * w) == \
        mtw_definitional(cost, form, x, 2.0 * u, v, 2.0 * w) * 2.0 ** (-42 + 58)


@pytest.mark.parametrize("K", [-1, 1])
def test_jacobi_residual_curved(K):
    form = SpaceForm(K, 3)
    x = form.canonical_base()
    rng = np.random.default_rng(300 + K)
    for _ in range(50):
        u = form.random_tangent(x, rng)
        length = rng.uniform(0.1, 3.0)
        v = form.random_tangent(x, rng, unit=True) * length
        assert jacobi_residual(form, x, u, v, steps=1000) <= 1e-8


def test_jacobi_residual_flat_machine_precision():
    form = SpaceForm(0, 3)
    x = form.canonical_base()
    rng = np.random.default_rng(305)
    for _ in range(20):
        u = form.random_tangent(x, rng)
        v = form.random_tangent(x, rng, unit=True) * rng.uniform(0.1, 4.0)
        assert jacobi_residual(form, x, u, v, steps=200) <= 1e-12


def test_jacobi_residual_large_sphere_arc():
    form = SpaceForm(1, 3)
    x = form.canonical_base()
    rng = np.random.default_rng(307)
    u = form.random_tangent(x, rng)
    v = form.random_tangent(x, rng, unit=True) * 3.0
    assert jacobi_residual(form, x, u, v, steps=1000) <= 1e-8


def test_jacobi_residual_rk4_order():
    form = SpaceForm(-1, 3)
    x = form.canonical_base()
    rng = np.random.default_rng(309)
    u = form.random_tangent(x, rng)
    v = form.random_tangent(x, rng, unit=True) * 2.0
    coarse = jacobi_residual(form, x, u, v, steps=50)
    fine = jacobi_residual(form, x, u, v, steps=100)
    assert fine <= coarse / 12.0  # comfortably within the h^4 = 16 factor


def test_jacobi_residual_zero_v():
    form = SpaceForm(-1, 3)
    x = form.canonical_base()
    rng = np.random.default_rng(311)
    with pytest.raises(InputError, match="jacobi_residual needs a nonzero geodesic direction"):
        jacobi_residual(form, x, form.random_tangent(x, rng),
                        form.tangent(x, np.zeros(4)), steps=10)


def test_fd_check_against_jet_lprime():
    # l'' from the jets against a finite difference of l'
    cost = preset("neg-log1p-cos", 2.5)

    def lprime(z):
        return float(cost.lprime(z))

    fd = central_derivative(lprime, 0.5, 1, h=0.02)
    jet_value = float(eval_cost_jet(cost, 0.5).derivative(2))
    assert fd == pytest.approx(jet_value, abs=1e-6)


def test_s_step_is_the_stencil_step_where_that_fits():
    # every input whose 1e-2 stencil stays in the range of l' keeps that step
    # bitwise, so the golden oracle values do not move
    cost = preset("neg-cosh", 2.0)
    form = SpaceForm(-1, 3)
    x = form.canonical_base()
    rng = np.random.default_rng(18)
    for _ in range(20):
        v = form.random_tangent(x, rng, unit=True) * rng.uniform(0.01, 0.99 * cost.zmax)
        w = form.random_tangent(x, rng, unit=True)
        assert _s_step(cost, form, v, w) == STENCIL_STEP
    # |v| + 1e-2 |w| leaves the range, but with w orthogonal to v every
    # argument stays in it
    v, w = form.frame_tangent([0.99999 * cost.zmax, 0.0, 0.0]), form.frame_tangent([0.0, 1.0, 0.0])
    assert _s_step(cost, form, v, w) == STENCIL_STEP


def test_s_step_shrinks_on_a_small_lprime_range():
    # |l'(D)| = 1e-3, |v| = 5e-4: the 1e-2 stencil would reach |y| = 0.0105
    cost = make_cost("z^2/2", 1e-3)
    form = SpaceForm(0, 2)
    v, w = form.frame_tangent([3e-4, 4e-4]), form.frame_tangent([0.6, 0.8])
    step = _s_step(cost, form, v, w)
    assert step == pytest.approx(2.5e-4, rel=1e-12)
    assert form.norm(v + step * w) < cost.zmax
    # F is quadratic in each perturbation, so only roundoff is left
    assert abs(mtw_definitional(cost, form, form.canonical_base(), form.frame_tangent([1.0, 0.0]),
                                v, w)) < 1e-6


def test_shrunk_s_step_agrees_with_the_closed_route():
    # a curved space at D = 0.01: |v| = 5e-3 leaves a step of 2.5e-3 in s
    cost = preset("neg-cosh", 0.01)
    form = SpaceForm(-1, 2)
    x = form.canonical_base()
    u, v, w = (form.frame_tangent(c) for c in ([1.0, 0.0], [3e-3, 4e-3], [0.6, 0.8]))
    assert _s_step(cost, form, v, w) < STENCIL_STEP
    closed = mtw_closed(profile_row(cost, form, v), form, u, v, w)
    assert mtw_definitional(cost, form, x, u, v, w) == pytest.approx(closed, rel=1e-4)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "FOUND: near |v| = |l'(D)|, _s_step shrinks the step in s until roundoff "
    "swamps the stencil, and the oracle still returns its value"))
def test_oracle_agrees_just_inside_the_lprime_range():
    # at |v| = |l'(D)|(1 - 1e-5) the step in s is 5e-6 to 2e-5, and the
    # stencil's divisor (ht hs)^2 lifts the cost's roundoff to errors of 2.7
    # to 3.3; the bound first breaks at steps of 7e-5 to 2.5e-4.  A fixed
    # floor on the step would not do: a small range needs smaller steps
    # (test_s_step_shrinks_on_a_small_lprime_range)
    errors = {}
    for name, K, D, eps in [("sq", 0, 2.0, None), ("neg-cosh", -1, 1.0, None),
                            ("quartic", 0, 1.0, 1e-3), ("neg-log1p-cos", 1, 2.5, None)]:
        cost = preset(name, D, eps)
        form = SpaceForm(K, 2)
        u, v, w = (form.frame_tangent(c)
                   for c in ([1.0, 0.3], [0.0, cost.zmax * (1.0 - 1e-5)], [0.6, 0.8]))
        closed = mtw_closed(profile_row(cost, form, v), form, u, v, w)
        oracle = mtw_definitional(cost, form, form.canonical_base(), u, v, w)
        errors[name] = abs(oracle - closed) / max(1.0, abs(closed))
    assert all(err <= ORACLE_REL_TOL for err in errors.values()), errors


def test_s_step_without_room_names_v_w_and_the_range():
    cost = make_cost("z^2/2", 1e-3)
    form = SpaceForm(0, 2)
    v, w = form.frame_tangent([6e-4, 8e-4]), form.frame_tangent([0.6, 0.8])
    with pytest.raises(InputError, match=r"\|v\| = 0\.001, \|w\| = 1\.0, "
                                              r"\|l'\(D\)\| = 0\.001"):
        _s_step(cost, form, v, w)
    # a step that fits, (|l'(D)| - |v|) / (2 |w|) = 8.8e-154, is too small
    # for the stencil's divisor (ht hs)^2, a subnormal float
    cost, form = preset("neg-cosh", 1.0), SpaceForm(-1, 2)
    v, w = form.frame_tangent([0.0, 1.0]), form.frame_tangent([0.0, 1e152])
    with pytest.raises(InputError, match=r"\|v\| = 1\.0, \|w\| = 1e\+152"):
        _s_step(cost, form, v, w)

"""Closed-form profiles, the Jacobi map, and the two analytic curvature routes."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import (CANONICAL_CASES, REFERENCE_DPS, SMALL_LPP_CASES, random_orthogonal_pair,
                     reference_errors, reference_profiles, revert)

from mtwcheck import (SpaceForm, curvature, decompose, jacobi_map_closed, make_cost, mtw_closed,
                      mtw_definitional, mtw_via_jacobi, profile_row)
from mtwcheck.cli import main
from mtwcheck.curvature import SERIES_SWITCH, _profiles, coefficient_arrays
from mtwcheck.errors import InputError
from mtwcheck.jets import Jet


def _at(cost, K, z):
    """The profile quantities at one z, from coefficient_arrays on a length-1 array."""
    prof = coefficient_arrays(cost, K, [z])
    return SimpleNamespace(**{key: float(col[0]) for key, col in prof.items()})


def test_ab_identity_cost():
    cost = make_cost("sq", 5.0)
    for z in (0.0, 0.5, 2.0, 4.9):
        ab = _at(cost, 0, z)
        assert ab.A == pytest.approx(1.0, abs=1e-12)
        assert ab.B == pytest.approx(1.0, abs=1e-12)
        for d in (ab.Aprime, ab.Adprime, ab.Bprime, ab.gamma):
            assert d == pytest.approx(0.0, abs=1e-12)


def test_ab_neg_cosh():
    # h = -asinh, so A(z) = B(z) = -sqrt(1+z^2)
    cost = make_cost("neg-cosh", 2.0)
    for z in np.linspace(0.0, cost.zmax, 37):
        ab = _at(cost, -1, float(z))
        root = np.sqrt(1.0 + z * z)
        assert ab.A == pytest.approx(-root, abs=1e-10)
        assert ab.B == pytest.approx(-root, abs=1e-10)
        assert ab.Aprime == pytest.approx(-z / root, abs=1e-10)
        assert ab.Bprime == pytest.approx(-z / root, abs=1e-10)
        assert ab.Adprime == pytest.approx(-root ** -3, abs=1e-9)
        assert ab.gamma == pytest.approx(-root ** -3, abs=1e-9)


def test_ab_neg_log1p_cos():
    # h = 2*atan, so A(z) = (1+z^2)/2 and B(z) = (1-z^2)/2
    cost = make_cost("neg-log1p-cos", 2.5)
    for z in np.linspace(0.0, cost.zmax, 37):
        ab = _at(cost, 1, float(z))
        assert ab.A == pytest.approx((1.0 + z * z) / 2.0, abs=1e-9)
        assert ab.B == pytest.approx((1.0 - z * z) / 2.0, abs=1e-9)
        assert ab.Adprime == pytest.approx(1.0, abs=1e-9)
        assert ab.gamma == pytest.approx(-1.0, abs=1e-9)


def test_ab_out_of_range():
    cost = make_cost("neg-cosh", 2.0)
    with pytest.raises(InputError, match=r"exceeds \|l'\(D\)\| = "):
        _at(cost, -1, cost.zmax * 1.01)
    with pytest.raises(InputError, match="profile arguments must be nonnegative"):
        _at(cost, -1, -0.5)


def test_profiles_check_the_sphere_diameter():
    # D = 3.2 puts h(z) past the cot pole at pi, where alpha is about -1.39e15
    with pytest.raises(InputError, match="clear of the cot pole at pi"):
        coefficient_arrays(make_cost("z^2/2", 3.2), 1, [3.1415926])


def test_coefficients_identity_cost():
    cost = make_cost("sq", 5.0)
    for z in (0.0, 1.0, 3.0):
        prof = _at(cost, 0, z)
        for c in (prof.alpha, prof.beta, prof.gamma, prof.delta):
            assert c == pytest.approx(0.0, abs=1e-12)


def test_coefficients_neg_log1p_cosh_constant():
    cost = make_cost("neg-log1p-cosh", 2.0)
    for z in np.linspace(0.0, cost.zmax, 23):
        prof = _at(cost, -1, float(z))
        for c in (prof.alpha, prof.beta, prof.gamma, prof.delta):
            assert c == pytest.approx(-1.0, abs=1e-9)


def test_coefficients_log_cosh_zero():
    cost = make_cost("log-cosh", 2.0)
    for z in np.linspace(0.0, cost.zmax, 23):
        prof = _at(cost, -1, float(z))
        for c in (prof.alpha, prof.beta, prof.gamma, prof.delta):
            assert c == pytest.approx(0.0, abs=1e-8)


def test_coefficient_profile_internal_consistency():
    for name, K, D in [("neg-cosh", -1, 2.0), ("neg-log1p-cos", 1, 2.5),
                       ("log-cosh", -1, 2.0)]:
        cost = make_cost(name, D)
        for z in np.linspace(0.01, cost.zmax, 50):
            p = _at(cost, K, float(z))
            lhs_alpha = p.alpha * z * z
            rhs_alpha = z * z * p.Adprime + 6.0 * (p.A - p.B) - 4.0 * z * (p.Aprime - p.Bprime)
            assert lhs_alpha == pytest.approx(rhs_alpha, abs=1e-10)
            lhs_beta = p.beta * z * z
            rhs_beta = z * p.Aprime - 2.0 * (p.A - p.B)
            assert lhs_beta == pytest.approx(rhs_beta, abs=1e-10)
            assert p.delta * z == pytest.approx(p.Bprime, abs=1e-10)


def test_limit_consistency_across_branch_switch():
    # values from the origin series and from direct evaluation must agree
    # near the switching threshold; the direct branch carries an irreducible
    # cancellation floor of a few eps/z^2 ~ 1e-7 right at the switch
    for name, K in [("neg-cosh", -1), ("neg-log1p-cos", 1), ("quartic", 0)]:
        cost = make_cost(name, 2.5 if K == 1 else 1.0) if name != "neg-cosh" else make_cost(name, 2.0)
        below = _at(cost, K, 0.99e-4)
        above = _at(cost, K, 1.01e-4)
        for field in ("A", "B", "alpha", "beta", "gamma", "delta"):
            assert getattr(below, field) == pytest.approx(getattr(above, field), abs=2e-6)


def test_decompose_parallel_and_orthogonal():
    form = SpaceForm(0, 3)
    x = form.canonical_base()
    v = form.tangent(x, [2.0, 0.0, 0.0])
    u_par = form.tangent(x, [3.0, 0.0, 0.0])
    u0, u1 = decompose(form, u_par, v)
    assert np.allclose(u0, u_par) and np.allclose(u1, 0.0)
    u_perp = form.tangent(x, [0.0, 1.5, 0.0])
    u0, u1 = decompose(form, u_perp, v)
    assert np.allclose(u0, 0.0) and np.allclose(u1, u_perp)
    mixed = form.tangent(x, [1.0, 1.0, 0.0])
    u0, u1 = decompose(form, mixed, v)
    assert np.allclose(u0, [1.0, 0.0, 0.0])
    assert np.allclose(u1, [0.0, 1.0, 0.0])
    assert form.inner(u0, u1) == pytest.approx(0.0, abs=1e-15)


def test_decompose_zero_vector():
    form = SpaceForm(0, 3)
    x = form.canonical_base()
    with pytest.raises(InputError, match="cannot decompose against a zero vector"):
        decompose(form, form.tangent(x, [1.0, 0.0, 0.0]), form.tangent(x, np.zeros(3)))


def test_jacobi_map_refuses_the_sphere_conjugate_point():
    form = SpaceForm(1, 3)
    u = form.frame_tangent([0.0, 1.0, 0.0])
    v = form.frame_tangent([np.pi - 1e-10, 0.0, 0.0])
    with pytest.raises(InputError, match="within tolerance of the sphere conjugate point"):
        jacobi_map_closed(form, u, v)


def test_jacobi_map_flat():
    form = SpaceForm(0, 3)
    x = form.canonical_base()
    u = form.tangent(x, [0.3, -0.7, 1.1])
    v = form.tangent(x, [0.0, 2.0, 0.5])
    out = jacobi_map_closed(form, u, v)
    assert np.allclose(out, -u, atol=1e-15)


def test_jacobi_map_hyperbolic_orthogonal():
    form = SpaceForm(-1, 3)
    u = form.frame_tangent([0.0, 1.0, 0.0])
    v = form.frame_tangent([1.0, 0.0, 0.0])
    out = jacobi_map_closed(form, u, v)
    assert np.allclose(out, -(1.0 / np.tanh(1.0)) * u, atol=1e-12)
    assert out[1] == pytest.approx(-1.3130, abs=1e-4)


def test_jacobi_map_parallel_input():
    for K in (-1, 0, 1):
        form = SpaceForm(K, 3)
        v = form.frame_tangent([0.9, 0.0, 0.0])
        u = form.frame_tangent([2.5, 0.0, 0.0])
        out = jacobi_map_closed(form, u, v)
        assert np.allclose(out, -u, atol=1e-12)


@pytest.mark.parametrize("K", [-1, 1])
@pytest.mark.parametrize("length", [1e-8, 5e-5, 9.9e-5, 1.01e-4, 0.5])
def test_jacobi_map_small_v_continuity(K, length):
    # -u0 - f u1 with f = |v| coth |v| or |v| cot |v| at 40 digits, on either
    # side of the profiles' SERIES_SWITCH, which the Jacobi map does not read
    import mpmath
    form = SpaceForm(K, 3)
    u = form.frame_tangent([0.2, 0.7, -0.4])
    v = form.frame_tangent([0.0, length, 0.0])
    with mpmath.mp.workdps(40):
        d = mpmath.mpf(form.norm(v))
        f = float(d * (mpmath.coth(d) if K == -1 else mpmath.cot(d)))
    expected = -form.frame_tangent([0.0, 0.7, 0.0]) - f * form.frame_tangent([0.2, 0.0, -0.4])
    out = jacobi_map_closed(form, u, v)
    assert np.max(np.abs(out - expected)) <= 1e-14 * np.max(np.abs(u))


def test_mtw_flat_identity_cost_is_zero():
    cost = make_cost("sq", 5.0)
    form = SpaceForm(0, 3)
    x = form.canonical_base()
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = form.random_tangent(x, rng)
        v = form.random_tangent(x, rng, unit=True) * rng.uniform(0.1, 4.0)
        w = form.random_tangent(x, rng)
        row = profile_row(cost, form, v)
        assert mtw_closed(row, form, u, v, w) == pytest.approx(0.0, abs=1e-12)
        assert mtw_via_jacobi(row, form, u, v, w) == pytest.approx(0.0, abs=1e-12)


def test_mtw_worked_example_neg_log1p_cosh():
    # orthogonal u along v, w orthogonal to v: curvature is -(3/2)*beta = 3/2
    cost = make_cost("neg-log1p-cosh", 2.0)
    form = SpaceForm(-1, 3)
    v = form.frame_tangent([0.5, 0.0, 0.0])
    u = form.frame_tangent([1.0, 0.0, 0.0])   # u0 = u, |u0| = 1
    w = form.frame_tangent([0.0, 1.0, 0.0])   # w1 = w, |w1| = 1
    row = profile_row(cost, form, v)
    assert mtw_closed(row, form, u, v, w) == pytest.approx(1.5, abs=1e-10)
    assert mtw_via_jacobi(row, form, u, v, w) == pytest.approx(1.5, abs=1e-10)


def test_mtw_quadratic_scaling():
    cost = make_cost("neg-cosh", 2.0)
    form = SpaceForm(-1, 3)
    x = form.canonical_base()
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = form.random_tangent(x, rng)
        w = form.random_tangent(x, rng)
        v = form.random_tangent(x, rng, unit=True) * rng.uniform(0.2, 3.0)
        lam = rng.uniform(0.3, 3.0)
        row = profile_row(cost, form, v)
        base_val = mtw_closed(row, form, u, v, w)
        u_scaled = mtw_closed(row, form, u * lam, v, w)
        w_scaled = mtw_closed(row, form, u, v, w * lam)
        ref = max(1.0, abs(base_val))
        assert abs(u_scaled - lam ** 2 * base_val) <= 1e-10 * ref * lam ** 2
        assert abs(w_scaled - lam ** 2 * base_val) <= 1e-10 * ref * lam ** 2


def test_mtw_zero_w():
    cost = make_cost("neg-cosh", 2.0)
    form = SpaceForm(-1, 3)
    u = form.frame_tangent([0.3, 0.4, 0.0])
    v = form.frame_tangent([0.0, 1.0, 0.0])
    w = form.frame_tangent([0.0, 0.0, 0.0])
    row = profile_row(cost, form, v)
    assert mtw_closed(row, form, u, v, w) == 0.0
    assert mtw_via_jacobi(row, form, u, v, w) == 0.0


def test_mtw_zero_v_rejected():
    cost = make_cost("neg-cosh", 2.0)
    form = SpaceForm(-1, 3)
    x = form.canonical_base()
    u = form.frame_tangent([1.0, 0.0, 0.0])
    zero = form.frame_tangent([0.0, 0.0, 0.0])
    with pytest.raises(InputError, match="v must be nonzero"):
        profile_row(cost, form, zero)
    with pytest.raises(InputError, match="v must be nonzero"):
        mtw_definitional(cost, form, x, u, zero, u)


_ROUTE_CASES = [(-1, 2, "neg-cosh", 2.0), (-1, 3, "neg-log1p-cosh", 2.0),
                (-1, 4, "neg-cosh", 2.0), (0, 2, "quartic(0.001)", 1.0),
                (0, 3, "quartic(0.001)", 1.0), (0, 4, "quartic(0.001)", 1.0),
                (1, 2, "neg-log1p-cos", 2.5), (1, 3, "neg-log1p-cos", 2.5),
                (1, 4, "neg-log1p-cos", 2.5)]


@pytest.mark.parametrize("K,n,name,diameter", _ROUTE_CASES,
                         ids=[f"K{c[0]:+d}n{c[1]}" for c in _ROUTE_CASES])
def test_route_equivalence_closed_vs_jacobi(K, n, name, diameter):
    cost = make_cost(name, diameter)
    form = SpaceForm(K, n)
    x = form.canonical_base()
    rng = np.random.default_rng(1000 + 10 * K + n)
    for _ in range(34):
        u = form.random_tangent(x, rng)
        w = form.random_tangent(x, rng)
        v = form.random_tangent(x, rng, unit=True) * rng.uniform(0.05, 0.9 * cost.zmax)
        row = profile_row(cost, form, v)
        closed = mtw_closed(row, form, u, v, w)
        jacobi = mtw_via_jacobi(row, form, u, v, w)
        assert abs(closed - jacobi) <= 1e-8 * max(1.0, abs(closed))


@pytest.mark.parametrize("K,n,name,diameter", _ROUTE_CASES,
                         ids=[f"K{c[0]:+d}n{c[1]}" for c in _ROUTE_CASES])
def test_route_equivalence_on_series_branch(K, n, name, diameter):
    # below SERIES_SWITCH both routes read A and B from the origin series; the
    # Jacobi route's s-jets divide by q_0 = |v|^2, so its roundoff grows like
    # eps/|v|^2 relative to the size |u|^2 |w|^2 of the quadratic form
    cost = make_cost(name, diameter)
    form = SpaceForm(K, n)
    x = form.canonical_base()
    rng = np.random.default_rng(2000 + 10 * K + n)
    for _ in range(12):
        u = form.random_tangent(x, rng)
        w = form.random_tangent(x, rng)
        z = SERIES_SWITCH * 10.0 ** rng.uniform(-2.0, 0.0)
        v = form.random_tangent(x, rng, unit=True) * z
        row = profile_row(cost, form, v)
        gap = abs(mtw_closed(row, form, u, v, w) - mtw_via_jacobi(row, form, u, v, w))
        scale = form.inner(u, u) * form.inner(w, w)
        assert gap <= (1e-8 + 1e-15 / z ** 2) * scale, (z, gap, scale)


def _five_term_reference(cost, K, u, v, w):
    """The five-term closed formula at 50 digits, on reference_profiles at
    |v|, for frame components u, v, w of a two- or more-dimensional space."""
    import mpmath

    with mpmath.mp.workdps(REFERENCE_DPS):
        u, v, w = ([mpmath.mpf(float(x)) for x in vec] for vec in (u, v, w))
        dot = lambda a, b: mpmath.fsum(x * y for x, y in zip(a, b))

        def split(a):
            a0 = [x * (dot(a, v) / dot(v, v)) for x in v]
            return a0, [x - y for x, y in zip(a, a0)]

        (u0, u1), (w0, w1) = split(u), split(w)
        z = mpmath.sqrt(dot(v, v))
        ref = reference_profiles(cost, K, float(z))
        u0sq, u1sq, w0sq, w1sq = dot(u0, u0), dot(u1, u1), dot(w0, w0), dot(w1, w1)
        cross, u1w1 = dot(u0, w0) * dot(u1, w1), dot(u1, w1)
        total = (ref["Adprime"] * u0sq * w0sq + ref["gamma"] * u1sq * w0sq
                 + ref["Aprime"] / z * (u0sq * w1sq + 4 * cross)
                 + ref["Bprime"] / z * (u1sq * w1sq - 4 * cross)
                 + 2 * (ref["A"] - ref["B"]) / z ** 2 * (u1w1 ** 2 - u0sq * w1sq - 2 * cross))
        return -1.5 * total


@pytest.mark.parametrize("length", [1e-6, 1e-8, 1e-10, 1e-14])
@pytest.mark.parametrize("K,name,D", [(-1, "neg-cosh", 2.0), (0, "quartic(0.001)", 1.0),
                                      (1, "neg-log1p-cos", 2.5)])
def test_closed_route_keeps_its_digits_at_small_v(K, name, D, length):
    # the (A - B)/z^2 term cancels to roundoff as |v| -> 0; the closed route
    # must still match the 50-digit five-term formula
    cost = make_cost(name, D)
    form = SpaceForm(K, 2)
    u, v, w = [1.0, 0.0], [length, 0.0], [0.6, 0.8]
    ref = _five_term_reference(cost, K, u, v, w)
    u, v, w = (form.frame_tangent(vec) for vec in (u, v, w))
    got = mtw_closed(profile_row(cost, form, v), form, u, v, w)
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (got, float(ref))


@pytest.mark.parametrize("name,K,D", CANONICAL_CASES)
def test_series_branch_preset_matches_expression_text(name, K, D):
    # below SERIES_SWITCH the profiles are the origin series evaluated at
    # h(z), so they carry the residual of the Newton inverse of l' that the
    # expression text uses, against the preset's analytic inverse.  The
    # closed formula adds its own roundoff: one ulp of A or B in its term
    # 2(A - B)/z^2 is about 2e-16/z^2 relative to |u|^2 |w|^2
    cost = make_cost(name, D)
    text = make_cost(cost.text, D)
    form = SpaceForm(K, 3)
    x = form.canonical_base()
    rng = np.random.default_rng(3000 + K)
    for _ in range(24):
        u = form.random_tangent(x, rng)
        w = form.random_tangent(x, rng)
        z = SERIES_SWITCH * 10.0 ** rng.uniform(-5.0, 0.0)
        v = form.random_tangent(x, rng, unit=True) * z
        gap = abs(mtw_closed(profile_row(cost, form, v), form, u, v, w)
                  - mtw_closed(profile_row(text, form, v), form, u, v, w))
        assert gap <= (2e-8 + 1e-15 / z ** 2) * form.inner(u, u) * form.inner(w, w), (z, gap)


def test_orthogonal_reduction_matches_coefficients():
    # for <u,w> = 0 the closed formula collapses to
    # -(3/2)[alpha|u0|^2|w0|^2 + beta|u0|^2|w1|^2 + gamma|u1|^2|w0|^2 + delta|u1|^2|w1|^2]
    for name, K, D in [("neg-cosh", -1, 2.0), ("neg-log1p-cos", 1, 2.5)]:
        cost = make_cost(name, D)
        form = SpaceForm(K, 3)
        x = form.canonical_base()
        rng = np.random.default_rng(13)
        for _ in range(50):
            u, w = random_orthogonal_pair(form, x, rng)
            z = rng.uniform(0.05, 0.9 * cost.zmax)
            v = form.random_tangent(x, rng, unit=True) * z
            direct = mtw_closed(profile_row(cost, form, v), form, u, v, w)
            prof = _at(cost, K, z)
            u0, u1 = decompose(form, u, v)
            w0, w1 = decompose(form, w, v)
            reduced = -1.5 * (
                prof.alpha * form.inner(u0, u0) * form.inner(w0, w0)
                + prof.beta * form.inner(u0, u0) * form.inner(w1, w1)
                + prof.gamma * form.inner(u1, u1) * form.inner(w0, w0)
                + prof.delta * form.inner(u1, u1) * form.inner(w1, w1))
            assert direct == pytest.approx(reduced, abs=1e-10)


def test_base_point_invariance_via_transport():
    # moving the whole configuration by parallel transport along a geodesic
    # is an isometry, so the curvature value must not change; agreement of
    # the oracle is limited by its stencil roundoff floor
    cost = make_cost("neg-log1p-cosh", 2.0)
    form = SpaceForm(-1, 3)
    rng = np.random.default_rng(19)
    x = form.canonical_base()
    for _ in range(10):
        u = form.random_tangent(x, rng)
        w = form.random_tangent(x, rng)
        v = form.random_tangent(x, rng, unit=True) * rng.uniform(0.1, 0.7)
        y = form.exp_map(x, form.random_tangent(x, rng, unit=True) * rng.uniform(0.2, 1.5))
        moved = [form.parallel_transport(x, vec, y) for vec in (u, v, w)]
        a = mtw_closed(profile_row(cost, form, v), form, u, v, w)
        b = mtw_closed(profile_row(cost, form, moved[1]), form, *moved)
        assert a == pytest.approx(b, abs=1e-10 * max(1.0, abs(a)))
        # the oracle is the one route that reads the base point
        c = mtw_definitional(cost, form, x, u, v, w)
        assert mtw_definitional(cost, form, y, *moved) == pytest.approx(c, abs=1e-5)


def test_vectorized_profile_matches_scalar():
    cost = make_cost("neg-cosh", 2.0)
    zs = np.linspace(0.0, cost.zmax, 50)
    prof = coefficient_arrays(cost, -1, zs)
    for i in (0, 1, 17, 49):
        scalar = _at(cost, -1, float(zs[i]))
        assert prof["alpha"][i] == pytest.approx(scalar.alpha, abs=1e-14)
        assert prof["delta"][i] == pytest.approx(scalar.delta, abs=1e-14)


def _random_rationals(rng, count):
    return [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))) for _ in range(count)]


def _sympy_reversion(w):
    """Exact coefficients of the compositional inverse of sum_k w[k] t^k."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.ring_series import rs_series_reversion
    qq = sympy.QQ
    _, x, y = sympy.polys.rings.ring("x, y", qq)
    series = sum(qq(c.numerator, c.denominator) * x ** k for k, c in enumerate(w) if k)
    inverse = rs_series_reversion(series, x, len(w), y)
    return [Fraction(0)] + [Fraction(int(c.numerator), int(c.denominator))
                            for c in (inverse.coeff(y ** n) for n in range(1, len(w)))]


@pytest.mark.parametrize("w1_sign", [1, -1])
def test_revert_matches_sympy_reversion(w1_sign):
    rng = np.random.default_rng(11 if w1_sign > 0 else 12)
    lanes = []
    for _ in range(10):
        w = [Fraction(0), w1_sign * Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10)))]
        lanes.append(w + _random_rationals(rng, 5))
    scalar_lanes, array_lanes = lanes[:5], lanes[5:]
    got = [revert(Jet([float(c) for c in w])).coeffs[1:] for w in scalar_lanes]
    # the same reversion on coefficient arrays of shape (5,), one lane per series
    batch = revert(Jet([np.array([float(w[k]) for w in array_lanes]) for k in range(7)]))
    got += [[c[lane] for c in batch.coeffs[1:]] for lane in range(len(array_lanes))]
    for w, g in zip(lanes, got):
        reference = [float(c) for c in _sympy_reversion(w)[1:]]
        for n, (value, ref) in enumerate(zip(g, reference), start=1):
            assert abs(value - ref) <= 1e-13 * abs(ref), (w, n, value, ref)


_REFERENCE_CASES = [(text, K, D) for name, K, D in CANONICAL_CASES
                    for text in (name, make_cost(name, D).text)]
_REFERENCE_CASES += SMALL_LPP_CASES


@pytest.mark.parametrize("text,K,D", _REFERENCE_CASES)
def test_both_branches_match_50_digit_reference(text, K, D):
    # the series and the direct branch against the full-order
    # series-reversion route run at 50 digits, on the preset's analytic
    # inverse and on the Newton inverse of its expression text, and on two
    # costs whose h(z) leaves the series' radius below SERIES_SWITCH
    cost = make_cost(text, D)
    z = np.concatenate([np.geomspace(1e-9, 0.999 * SERIES_SWITCH, 12),
                        np.geomspace(SERIES_SWITCH, cost.zmax, 40)])
    errors = reference_errors(cost, K, z)
    for key in ("A", "B"):
        assert np.max(errors[key]) <= 1e-15, key
    for key in ("alpha", "beta", "gamma", "delta"):
        assert np.max(errors[key]) <= 0.1, key


@pytest.mark.parametrize("text,K,D", _REFERENCE_CASES)
def test_band_follows_each_points_branch(text, K, D):
    # the band of coefficient_arrays has, at each point, the shape of the
    # branch that point took: below the limit that _origin_series returns
    # with the series, the series' absolute floor, above it the direct
    # formula.  So a point's band has the same bits alone as in an array
    # that straddles the limit.
    cost = make_cost(text, D)
    z = np.concatenate([np.geomspace(1e-15, 0.999 * SERIES_SWITCH, 8),
                        np.geomspace(SERIES_SWITCH, cost.zmax, 8)])
    prof = coefficient_arrays(cost, K, z)
    series = z < curvature._origin_series(cost, K)[1]
    scale = np.maximum(1.0, np.maximum(np.abs(prof["A"]), np.abs(prof["B"])))
    tiny = np.clip(np.minimum(1.0, np.abs(prof["A"])), 1e-3, 1.0)
    direct = curvature._NOISE_BAND_COEFF * (scale / tiny) ** 3 * (1.0 + 1.0 / z ** 2)
    assert np.any(series) and np.any(~series)
    assert prof["band"][series].tobytes() == (1e-12 * scale[series]).tobytes()
    assert prof["band"][~series].tobytes() == direct[~series].tobytes()
    for i, point in enumerate(z):
        assert coefficient_arrays(cost, K, point)["band"].tobytes() == \
            prof["band"][i:i + 1].tobytes(), point


@pytest.mark.parametrize("method,expected", [("all", 1), ("closed", 1), ("jacobi", 1),
                                             ("oracle", 0)])
@pytest.mark.parametrize("length", [0.5, 0.5 * SERIES_SWITCH])
def test_eval_all_makes_one_profiles_call(capsys, monkeypatch, length, method, expected):
    # the closed and Jacobi routes read one profile row, computed once per
    # command, on the direct branch and on the series branch, and the oracle
    # reads none; a second identical command in the process computes its own
    calls = []

    def counting(cost, K, z):
        calls.append(z)
        return _profiles(cost, K, z)

    monkeypatch.setattr(curvature, "_profiles", counting)
    for _ in range(2):
        calls.clear()
        code = main(["eval", "--cost=neg-cosh", "--K", "-1", "--dim", "2", "--u=1,0.3",
                     f"--v={length!r},0", "--w=0.2,1", "--method", method, "--json"])
        assert code == 0, capsys.readouterr().err
        assert calls == [length] * expected


@pytest.mark.parametrize("newton", [False, True], ids=["analytic", "newton"])
@pytest.mark.parametrize("name,K,D", CANONICAL_CASES)
def test_profiles_on_a_scalar_match_a_length_one_array(name, K, D, newton):
    # profile_row passes its scalar z to _profiles: every quantity must be
    # bitwise the one of np.array([z]), on both branches, for the analytic
    # inverse of each preset and for the Newton inverse of its expression
    cost = make_cost(name, D)
    if newton:
        cost = make_cost(cost.text, D)
    for z in (0.0, 0.3 * SERIES_SWITCH, SERIES_SWITCH, 0.01, 0.37 * cost.zmax, cost.zmax):
        scalar, scalar_limit = _profiles(cost, K, z)
        array, array_limit = _profiles(cost, K, np.array([z]))
        assert scalar_limit == array_limit
        for key, col in array.items():
            assert np.shape(scalar[key]) == ()
            assert np.asarray(scalar[key]).tobytes() == col[0].tobytes(), (z, key)

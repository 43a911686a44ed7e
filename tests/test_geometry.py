"""Model constraints, exp/log/distance/transport, curvature action, cost-exp."""

import numpy as np
import pytest
from helpers import CANONICAL_CASES, model_violation

from mtwcheck import SpaceForm, cost_exp, minus_grad_x_cost, preset
from mtwcheck.errors import InputError
from mtwcheck.geometry import orthonormal_tangent_frame

FORMS = [SpaceForm(-1, 2), SpaceForm(-1, 3), SpaceForm(0, 3), SpaceForm(1, 2), SpaceForm(1, 3)]


def test_point_validation():
    sphere = SpaceForm(1, 2)
    sphere.point([0.0, 0.0, 1.0])
    with pytest.raises(InputError, match="point is not on the unit sphere"):
        sphere.point([0.0, 0.0, 1.5])
    hyp = SpaceForm(-1, 2)
    hyp.point([0.0, 0.0, 1.0])
    with pytest.raises(InputError, match="point is on the wrong hyperboloid sheet"):
        hyp.point([0.0, 0.0, -1.0])  # wrong sheet


def test_tangency_validation():
    sphere = SpaceForm(1, 2)
    north = sphere.point([0.0, 0.0, 1.0])
    sphere.tangent(north, [0.3, -0.2, 0.0])
    with pytest.raises(InputError, match="vector is not tangent to the model at x"):
        sphere.tangent(north, [0.0, 0.0, 0.4])


def test_exp_zero_is_base():
    for form in FORMS:
        base = form.canonical_base()
        v = form.tangent(base, np.zeros(form.ambient_dimension))
        assert np.array_equal(form.exp_map(base, v), base)


def test_sphere_quarter_circle():
    form = SpaceForm(1, 2)
    north = form.canonical_base()
    v = form.frame_tangent([np.pi / 2.0, 0.0])
    target = form.exp_map(north, v)
    assert target == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)
    assert form.distance(north, target) == pytest.approx(np.pi / 2.0)


def test_hyperboloid_unit_step():
    form = SpaceForm(-1, 2)
    apex = form.canonical_base()
    v = form.frame_tangent([1.0, 0.0])
    target = form.exp_map(apex, v)
    assert target[-1] == pytest.approx(np.cosh(1.0), abs=1e-14)
    assert form.distance(apex, target) == pytest.approx(1.0, abs=1e-14)


def test_injectivity_radius_guard():
    form = SpaceForm(1, 2)
    v = form.frame_tangent([np.pi, 0.0])
    with pytest.raises(InputError, match="reaches the sphere cut locus"):
        form.exp_map(form.canonical_base(), v)


def test_antipodal_log_raises():
    form = SpaceForm(1, 2)
    north = form.point([0.0, 0.0, 1.0])
    south = form.point([0.0, 0.0, -1.0])
    with pytest.raises(InputError, match="points are antipodal on the sphere"):
        form.log_map(north, south)


def test_distance_to_self_and_zero_log():
    rng = np.random.default_rng(3)
    for form in FORMS:
        x = form.random_point(rng)
        assert form.distance(x, x) == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(form.log_map(x, x), 0.0)


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f"K{f.curvature:+d}n{f.dimension}")
def test_exp_log_roundtrip_random(form):
    rng = np.random.default_rng(17 + form.curvature)
    worst = 0.0
    for _ in range(1000):
        x = form.random_point(rng)
        v = form.random_tangent(x, rng)
        if form.curvature == 1:
            n = form.norm(v)
            if n > 2.9:
                v = v * (2.9 / n)
        y = form.exp_map(x, v)
        assert model_violation(form, y) < 1e-9
        u = form.log_map(x, y)
        worst = max(worst, float(np.max(np.abs(u - v))))
        assert abs(form.norm(u) - form.distance(x, y)) < 1e-10
    assert worst < 1e-9


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f"K{f.curvature:+d}n{f.dimension}")
def test_unit_speed_distance(form):
    rng = np.random.default_rng(23)
    x = form.random_point(rng)
    u = form.random_tangent(x, rng, unit=True)
    for t in np.linspace(0.05, 2.0, 10):
        assert form.distance(x, form.exp_map(x, u * t)) == pytest.approx(t, abs=1e-10)


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f"K{f.curvature:+d}n{f.dimension}")
def test_parallel_transport_isometry_and_roundtrip(form):
    rng = np.random.default_rng(29)
    for _ in range(50):
        x = form.random_point(rng)
        v = form.random_tangent(x, rng)
        n = form.norm(v)
        if n > 2.5:
            v = v * (2.5 / n)
        y = form.exp_map(x, v)
        a = form.random_tangent(x, rng)
        b = form.random_tangent(x, rng)
        ta, tb = form.parallel_transport(x, a, y), form.parallel_transport(x, b, y)
        assert form.inner(ta, tb) == pytest.approx(form.inner(a, b), rel=1e-10, abs=1e-10)
        back = form.parallel_transport(y, ta, x)
        scale = max(1.0, float(np.max(np.abs(a))))
        assert np.allclose(back, a, atol=1e-10 * scale)


def test_transport_of_geodesic_velocity():
    form = SpaceForm(-1, 3)
    rng = np.random.default_rng(31)
    x = form.random_point(rng)
    v = form.random_tangent(x, rng, unit=True)
    y = form.exp_map(x, v)
    transported = form.parallel_transport(x, v, y)
    # velocity of the geodesic at its endpoint, from the exp formula
    expected = np.sinh(1.0) * x + np.cosh(1.0) * v
    assert np.allclose(transported, expected, atol=1e-12)


def test_euclidean_transport_is_identity():
    form = SpaceForm(0, 3)
    x = form.point([0.0, 0.0, 0.0])
    y = form.point([1.0, 2.0, 3.0])
    v = form.tangent(x, [0.5, -0.25, 1.0])
    assert np.array_equal(form.parallel_transport(x, v, y), v)


def test_curvature_action_flat_zero():
    form = SpaceForm(0, 3)
    x = form.canonical_base()
    a = form.tangent(x, [1.0, 0.0, 0.0])
    b = form.tangent(x, [0.0, 2.0, 0.0])
    assert np.array_equal(form.curvature_action(a, b), np.zeros(3))


def test_curvature_action_hyperbolic_orthogonal():
    form = SpaceForm(-1, 3)
    a = form.frame_tangent([1.0, 0.0, 0.0])
    b = form.frame_tangent([0.0, 1.0, 0.0])
    out = form.curvature_action(a, b)
    assert np.allclose(out, -b, atol=1e-15)


def test_curvature_action_antisymmetry_slot():
    form = SpaceForm(1, 3)
    a = form.frame_tangent([0.7, -0.2, 0.5])
    assert np.allclose(form.curvature_action(a, a), 0.0, atol=1e-15)


def test_orthonormal_frame():
    rng = np.random.default_rng(37)
    for form in FORMS:
        x = form.random_point(rng)
        first = form.random_tangent(x, rng)
        frame = orthonormal_tangent_frame(form, x, first=first)
        assert len(frame) == form.dimension
        for i, e in enumerate(frame):
            for j, f in enumerate(frame):
                assert form.inner(e, f) == pytest.approx(float(i == j), abs=1e-10)
    with pytest.raises(InputError, match="cannot start a frame with a zero vector"):
        x = FORMS[0].random_point(rng)
        zero = FORMS[0].tangent(x, np.zeros(FORMS[0].ambient_dimension))
        orthonormal_tangent_frame(FORMS[0], x, first=zero)


def test_cost_exp_identity_for_sq():
    cost = preset("sq", 2.0)
    rng = np.random.default_rng(41)
    for form in FORMS:
        x = form.random_point(rng)
        v = form.random_tangent(x, rng, unit=True) * 1.2
        direct = form.exp_map(x, v)
        through_cost = cost_exp(cost, form, x, v)
        assert np.allclose(through_cost, direct, atol=1e-12)


def test_cost_exp_neg_cosh_reverses_direction():
    # h(sinh 1) = -1, so the cost exponential walks distance 1 backwards
    cost = preset("neg-cosh", 2.0)
    form = SpaceForm(-1, 3)
    apex = form.canonical_base()
    v = form.frame_tangent([np.sinh(1.0), 0.0, 0.0])
    target = cost_exp(cost, form, apex, v)
    expected = form.exp_map(apex, form.frame_tangent([-1.0, 0.0, 0.0]))
    assert np.allclose(target, expected, atol=1e-12)
    assert form.distance(apex, target) == pytest.approx(1.0, abs=1e-12)


def test_cost_exp_zero_vector_limit():
    cost = preset("neg-cosh", 2.0)
    form = SpaceForm(-1, 3)
    apex = form.canonical_base()
    v = form.frame_tangent([1e-12, 0.0, 0.0])
    assert np.array_equal(cost_exp(cost, form, apex, v), apex)


@pytest.mark.parametrize("name,K,diameter,eps", CANONICAL_CASES)
def test_cost_exp_gradient_roundtrip(name, K, diameter, eps):
    cost = preset(name, diameter, eps=eps) if eps else preset(name, diameter)
    form = SpaceForm(K, 3)
    rng = np.random.default_rng(43)
    for _ in range(100):
        x = form.random_point(rng)
        t = rng.uniform(0.05, 0.95 * diameter)
        y = form.exp_map(x, form.random_tangent(x, rng, unit=True) * t)
        alpha = minus_grad_x_cost(cost, form, x, y)
        back = cost_exp(cost, form, x, alpha)
        assert np.max(np.abs(back - y)) < 1e-9

"""Model constraints, exp/log/distance/transport, curvature action, cost-exp."""

import numpy as np
import pytest
from helpers import CANONICAL_CASES, model_violation, pair_distance

from mtwcheck import SpaceForm, cost_exp, inverse_lprime, make_cost, minus_grad_x_cost
from mtwcheck.errors import InputError
from mtwcheck.geometry import MIN_SPEED, orthonormal_tangent_frame

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


_SPHERE, _HYPERBOLOID = SpaceForm(1, 2), SpaceForm(-1, 2)
_POLE = np.array([0.0, 0.0, 1.0])


@pytest.mark.parametrize("call,message", [
    (lambda: SpaceForm(2, 3), r"curvature must be -1, 0, or \+1"),
    (lambda: _SPHERE.point([0.0, 1.0]), "expected 3 ambient coordinates"),
    (lambda: _SPHERE.tangent(_POLE, [1.0, 0.0]), "expected 3 ambient components"),
    (lambda: _SPHERE.distance(_POLE, np.array([0.0, 0.0, 1.1])),
     r"sphere inner product 1.1 outside \[-1, 1\]"),
    (lambda: _HYPERBOLOID.distance(_POLE, np.array([0.0, 0.0, 0.5])),
     "hyperboloid pairing 0.5 below 1"),
], ids=["curvature", "point-shape", "tangent-shape", "sphere-pairing", "hyperboloid-pairing"])
def test_invalid_geometry_input_is_refused(call, message):
    with pytest.raises(InputError, match=message):
        call()


@pytest.mark.parametrize("K", [-1, 0, 1])
def test_speed_refuses_below_the_normal_floats(K):
    # MIN_SPEED = 2^-511 squares exactly to the least normal float; one ulp
    # below it, |v|^2 is subnormal and refused, and the message names |v|
    form = SpaceForm(K, 3)
    e = form.frame_tangent([0.6, 0.0, 0.8])
    assert MIN_SPEED == 2.0 ** -511 and MIN_SPEED ** 2 == np.finfo(float).tiny
    assert form.speed(2.0 * e) == form.norm(2.0 * e) == 2.0
    assert form.speed(MIN_SPEED * form.frame_tangent([1.0, 0.0, 0.0])) == MIN_SPEED
    below = np.nextafter(MIN_SPEED, 0.0)
    for v, length in ((below * form.frame_tangent([1.0, 0.0, 0.0]), below),
                      (1e-300 * e, 1e-300), (0.0 * e, 0.0)):
        with pytest.raises(InputError, match="^v must be nonzero") as err:
            form.speed(v)
        named = float(str(err.value).rpartition("|v| = ")[2])
        assert named == pytest.approx(length, rel=1e-15, abs=0.0)


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


@pytest.mark.parametrize("K,cost", [(-1, "neg-cosh"), (1, "neg-log1p-cos")])
def test_log_of_a_point_to_itself_is_exactly_zero(K, cost):
    # at y = x the pairing can round across 1, so that distance(x, x) reads
    # up to 4e-8; log_map, the gradient and the transport must still see y = x
    form, cost = SpaceForm(K, 3), make_cost(cost, 2.0)
    points, vectors = np.random.default_rng(0), np.random.default_rng(1)
    for _ in range(200):
        x = form.random_point(points)
        v = form.random_tangent(x, vectors)
        assert not np.any(form.log_map(x, x))
        assert not np.any(minus_grad_x_cost(cost, form, x, x))
        assert np.array_equal(form.parallel_transport(x, v, x), form.project_tangent(x, v))


@pytest.mark.parametrize("K", [-1, 1])
@pytest.mark.parametrize("length,bound", [(5e-9, 1e-6), (1e-7, 1e-6), (1e-4, 1e-10)])
def test_log_map_length_of_short_chords(K, length, bound):
    # distance's acos or acosh keeps about 8 digits near d = 0, so log_map
    # reads a short geodesic's length from the chord; what remains at 5e-9
    # is the rounding of y by exp_map
    form = SpaceForm(K, 3)
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = form.random_point(rng)
        v = form.random_tangent(x, rng, unit=True) * length
        assert abs(form.norm(form.log_map(x, form.exp_map(x, v))) / form.norm(v) - 1.0) < bound


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


_COST_OF_K = {-1: ("neg-cosh", 2.0), 0: ("quartic(0.001)", 1.0), 1: ("neg-log1p-cos", 2.5)}


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f"K={f.curvature} n={f.dimension}")
def test_stacks_keep_the_bits_of_each_pair(form):
    # distance of two stacks is the array of the per-pair distances, with
    # the bits of one np.dot per pair; cost_exp of a stack of tangents, a
    # zero one among them, is the array of their images, each from h of its
    # own length
    rng = np.random.default_rng(47)
    xs = np.array([form.random_point(rng) for _ in range(3)])
    ys = np.array([form.exp_map(xs[0], form.random_tangent(xs[0], rng, unit=True) * t)
                   for t in (0.3, 1.0, 1.7, 2.2)])
    table = form.distance(xs, ys)
    assert table.shape == (3, 4)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            single = form.distance(x, y)
            assert type(single) is float
            assert single.hex() == float(table[i, j]).hex() == pair_distance(form, x, y).hex()

    cost = make_cost(*_COST_OF_K[form.curvature])
    x = xs[0]
    vs = np.array([form.random_tangent(x, rng, unit=True) * (0.8 * cost.zmax),
                   np.zeros(form.ambient_dimension),
                   form.random_tangent(x, rng, unit=True) * (0.1 * cost.zmax)])
    images = cost_exp(cost, form, x, vs)
    assert images.shape == vs.shape
    for v, image in zip(vs, images):
        s = form.norm(v)
        want = x if s == 0.0 else form.exp_map(x, v * (inverse_lprime(cost, s) / s))
        assert np.array_equal(image, want) and np.array_equal(cost_exp(cost, form, x, v), want)


def test_cost_exp_identity_for_sq():
    cost = make_cost("sq", 2.0)
    rng = np.random.default_rng(41)
    for form in FORMS:
        x = form.random_point(rng)
        v = form.random_tangent(x, rng, unit=True) * 1.2
        direct = form.exp_map(x, v)
        through_cost = cost_exp(cost, form, x, v)
        assert np.allclose(through_cost, direct, atol=1e-12)


def test_cost_exp_neg_cosh_reverses_direction():
    # h(sinh 1) = -1, so the cost exponential walks distance 1 backwards
    cost = make_cost("neg-cosh", 2.0)
    form = SpaceForm(-1, 3)
    apex = form.canonical_base()
    v = form.frame_tangent([np.sinh(1.0), 0.0, 0.0])
    target = cost_exp(cost, form, apex, v)
    expected = form.exp_map(apex, form.frame_tangent([-1.0, 0.0, 0.0]))
    assert np.allclose(target, expected, atol=1e-12)
    assert form.distance(apex, target) == pytest.approx(1.0, abs=1e-12)


def test_cost_exp_zero_vector_limit():
    cost = make_cost("neg-cosh", 2.0)
    form = SpaceForm(-1, 3)
    apex = form.canonical_base()
    v = form.frame_tangent([1e-12, 0.0, 0.0])
    assert np.array_equal(cost_exp(cost, form, apex, v), apex)
    # the zero vector maps to a copy of x
    image = cost_exp(cost, form, apex, np.zeros(form.ambient_dimension))
    assert np.array_equal(image, apex) and image is not apex


@pytest.mark.parametrize("length", [5e-10, 2e-9])
def test_cost_exp_moves_by_h_of_a_tiny_tangent(length):
    # with l''(0) = 1e-6, h(|v|) is far larger than |v|: the zero test must
    # act on the rescaled vector, not on v.  h solves 1e-6 h + 4 h^3 = |v|
    mpmath = pytest.importorskip("mpmath")
    cost = make_cost("1e-6*z^2/2 + z^4", 2.0)
    form = SpaceForm(0, 3)
    x = form.canonical_base()
    v = form.frame_tangent([0.6, 0.0, 0.8]) * length
    with mpmath.workdps(40):
        h = mpmath.findroot(lambda t: 1e-6 * t + 4 * t ** 3 - length, 1e-3)
    moved = form.distance(x, cost_exp(cost, form, x, v))
    assert moved > 3e-4 and abs(moved - float(h)) <= 1e-12 * float(h)


@pytest.mark.parametrize("name,K,diameter", CANONICAL_CASES)
def test_cost_exp_gradient_roundtrip(name, K, diameter):
    cost = make_cost(name, diameter)
    form = SpaceForm(K, 3)
    rng = np.random.default_rng(43)
    for _ in range(100):
        x = form.random_point(rng)
        t = rng.uniform(0.05, 0.95 * diameter)
        y = form.exp_map(x, form.random_tangent(x, rng, unit=True) * t)
        alpha = minus_grad_x_cost(cost, form, x, y)
        back = cost_exp(cost, form, x, alpha)
        assert np.max(np.abs(back - y)) < 1e-9

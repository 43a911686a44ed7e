"""Cost construction, admissibility, the inverse of l', and cost jets."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import CANONICAL_CASES

from mtwcheck import (costs, eval_cost_jet, inverse_lprime, make_cost, parse_cost, preset,
                      scan_conditions)
from mtwcheck.costs import _newton_inverse, _QuarticInverse
from mtwcheck.errors import AdmissibilityError, InputError, NumericError


def _preset(name, diameter, eps=None):
    return preset(name, diameter, eps=eps) if eps else preset(name, diameter)


def test_sq_admissible():
    assert preset("sq", 1.0).lprime_sign == 1


def test_neg_cosh_admissible_with_negative_sign():
    assert preset("neg-cosh", 2.0).lprime_sign == -1


_PRESET_SIGNS = {"sq": 1, "log-cosh": 1, "neg-log1p-cos": 1, "quartic": 1,
                 "neg-cosh": -1, "neg-log1p-cosh": -1, "neg-log-cosh": -1}


@pytest.mark.parametrize("name,K,diameter,eps", CANONICAL_CASES)
def test_lprime_sign_derived_from_lpp_at_zero(name, K, diameter, eps):
    # the sign of l'' on [0, D], read at 0, for both the preset and the same
    # expression without its analytic inverse
    cost = _preset(name, diameter, eps)
    assert cost.lprime_sign == _PRESET_SIGNS[name]
    assert make_cost(cost.text, diameter).lprime_sign == _PRESET_SIGNS[name]


def test_cubic_not_even():
    with pytest.raises(AdmissibilityError) as err:
        make_cost("z^3", 1.0)
    assert err.value.kind == "not-even" and err.value.witness == 0.0
    assert str(err.value) == "admissibility violation: not-even at z=0.0"


def test_odd_term_beyond_the_origin_jet_not_even():
    # z^7 leaves the jet at 0 even, so the sampled check on [D/8, D] finds it
    with pytest.raises(AdmissibilityError) as err:
        make_cost("z^2/2 + z^7", 1.0)
    assert err.value.kind == "not-even" and err.value.witness == 0.125


def test_eps_rejected_outside_the_quartic_preset():
    with pytest.raises(InputError, match="eps applies only to the quartic preset"):
        preset("neg-cosh", 2.0, eps=1e-3)


def test_pure_quartic_rejected_at_zero():
    # z^4 is even but l''(0) = 0, which breaks the strict-sign requirement
    with pytest.raises(AdmissibilityError) as err:
        make_cost("z^4", 1.0)
    assert err.value.kind == "lpp-zero" and err.value.witness == 0.0


def test_sign_change_detected():
    # l'' = 1 - 3z^2 changes sign inside [0, 1]
    with pytest.raises(AdmissibilityError) as err:
        make_cost("z^2/2 - z^4/4", 1.0)
    assert err.value.kind == "lpp-sign-change"
    # l''(0) = 1 > 0: the first grid point past 1/sqrt(3) is 148/255
    assert err.value.witness == np.linspace(0.0, 1.0, 256)[148]


def test_pole_between_samples_detected():
    # l = log((z^2-1)^2): l'' < 0 on both sides of the pole at z = 1, which
    # falls between two samples, but -l' drops across it
    with pytest.raises(AdmissibilityError) as err:
        make_cost("log((z^2-1)^2)", 2.2)
    assert err.value.kind == "lprime-not-monotone"
    assert err.value.witness < 1.0 < err.value.witness + 2.2 / 255


def test_constant_cost_rejected():
    # the jet of a constant has scalar coefficients, not one per sample
    with pytest.raises(AdmissibilityError) as err:
        make_cost("0", 1.0)
    assert err.value.kind == "lpp-zero" and err.value.witness == 0.0


def test_undefined_cost_names_first_grid_point():
    # log(4 - z^2) is even and defined at 0, but not from z = 2 on, the
    # 171st point of the 256-point admissibility grid on [0, 3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and without a numpy warning
        with pytest.raises(AdmissibilityError) as err:
            make_cost("log(4-z^2)", 3.0)
    assert err.value.kind == "undefined" and err.value.witness == 2.0
    assert "'log(4-z^2)' is undefined at z = 2.0" in str(err.value)


def test_inverse_identity_cost():
    cost = preset("sq", 1.0)
    assert inverse_lprime(cost, 0.3) == pytest.approx(0.3, abs=1e-14)


def test_inverse_neg_cosh_by_hand():
    # l' = -sinh, so h(sinh 1) solves -sinh(h) = sinh(1), i.e. h = -1
    cost = preset("neg-cosh", 2.0)
    assert inverse_lprime(cost, np.sinh(1.0)) == pytest.approx(-1.0, abs=1e-12)


def test_inverse_neg_log1p_cosh_by_hand():
    # l' = -tanh(z/2), inverted analytically: h(y) = -2*atanh(y)
    cost = preset("neg-log1p-cosh", 2.0)
    assert inverse_lprime(cost, 0.5) == pytest.approx(-2.0 * np.arctanh(0.5), abs=1e-12)
    assert inverse_lprime(cost, 0.5) == pytest.approx(-1.0986, abs=1e-4)


def test_inverse_out_of_range():
    cost = preset("neg-cosh", 2.0)
    with pytest.raises(InputError, match=r"exceeds \|l'\(D\)\| = "):
        inverse_lprime(cost, cost.zmax * 1.01)


@pytest.mark.parametrize("name,K,diameter,eps", CANONICAL_CASES)
def test_inverse_residual_on_presets(name, K, diameter, eps):
    cost = _preset(name, diameter, eps)
    ys = np.linspace(0.0, cost.zmax, 100)
    hs = inverse_lprime(cost, ys)
    residual = np.abs(np.asarray(cost.lprime(hs)) - ys)
    assert np.max(residual) <= 1e-12 * np.maximum(1.0, ys).max()


@pytest.mark.parametrize("name,K,diameter,eps", CANONICAL_CASES)
def test_inverse_is_odd(name, K, diameter, eps):
    cost = _preset(name, diameter, eps)
    ys = np.linspace(0.0, cost.zmax, 25)
    assert np.array_equal(np.asarray(inverse_lprime(cost, -ys)),
                          -np.asarray(inverse_lprime(cost, ys)))


@pytest.mark.parametrize("name,K,diameter,eps", CANONICAL_CASES)
def test_newton_matches_analytic_inverse(name, K, diameter, eps):
    cost = _preset(name, diameter, eps)
    numeric = make_cost(cost.text, diameter)
    assert numeric.analytic_inverse is None
    ys = np.linspace(-0.999 * cost.zmax, 0.999 * cost.zmax, 41)
    ha = np.asarray(inverse_lprime(cost, ys))
    hn = np.asarray(inverse_lprime(numeric, ys))
    assert np.max(np.abs(ha - hn)) <= 1e-10


def test_newton_inverse_fails_on_constant_lprime():
    # l = z: l' = 1 never equals 0.5, so Newton cannot converge.  make_cost
    # rejects this cost as odd, so a stand-in carries what Newton reads
    cost = SimpleNamespace(expression=parse_cost("z"), text="z", diameter=1.0, zmax=1.0,
                           lprime_sign=1)
    with pytest.raises(NumericError, match="did not converge"):
        _newton_inverse(cost, np.array([0.5]))


def test_newton_inverse_direct():
    cost = make_cost("log(cosh(z))", 2.0)
    target = np.array([np.tanh(1.3)])
    assert _newton_inverse(cost, target)[0] == pytest.approx(1.3, abs=1e-12)


@pytest.mark.parametrize("text,D", [("-cosh(z)", 1.0), ("log(cosh(z))", 2.0)])
@pytest.mark.parametrize("excess", [1e-10, 5e-10, 9e-10])
def test_newton_inverts_the_roundoff_margin_above_lprime_of_d(text, D, excess):
    # in_lprime_range accepts |y| up to |l'(D)|(1 + 1e-9) + 1e-15, and the
    # Newton path inverts min(|y|, |l'(D)|), so h there is +-D to roundoff
    cost = make_cost(text, D)
    y = cost.zmax * (1.0 + excess)
    assert costs.in_lprime_range(cost, y)
    for sign in (1.0, -1.0):
        h = inverse_lprime(cost, sign * y)
        assert abs(abs(h) - D) <= 1e-12
        assert np.sign(h) == sign * cost.lprime_sign
        assert inverse_lprime(cost, np.array([sign * y]))[0] == h


def test_newton_inverse_is_independent_of_its_batch():
    # -cosh(z) - 1e-6*cosh(20*z) has a tail of slow points: grid points 3
    # and 4 take 14 and 16 evaluations of l', and those near index 370 take
    # 13, where most take 10.  Each point keeps its iterate once it is within
    # tolerance while the rest step on, so it gets the bits it gets alone
    cost = make_cost("-cosh(z) - 1e-6*cosh(20*z)", 2.0)
    ys = np.linspace(0.0, cost.zmax, 8192)
    hs = inverse_lprime(cost, ys)
    for i in np.r_[0:32, 360:392]:
        alone = (inverse_lprime(cost, float(ys[i])), inverse_lprime(cost, ys[i:i + 1])[0])
        assert all(np.float64(h).tobytes() == hs[i].tobytes() for h in alone), i


@pytest.mark.parametrize("text,D,y,lprime,h_start", [
    ("-cosh(z)", 2.0, 1e-14, lambda mp, h: -mp.sinh(h), -1e-14),
    ("1e-6*z^2/2 + z^4", 1.0, 1e-13, lambda mp, h: mp.mpf("1e-6") * h + 4 * h ** 3, 1e-7),
], ids=["neg-cosh", "small-lpp-quartic"])
def test_newton_inverse_is_relative_at_tiny_targets(text, D, y, lprime, h_start):
    # the Newton residual is relative to y: with an absolute floor of 1e-13
    # a target below it returned the linear start D*y/|l'(D)| unchanged
    import mpmath
    cost = make_cost(text, D)
    with mpmath.mp.workdps(40):
        ref = mpmath.findroot(lambda h: lprime(mpmath, h) - y, mpmath.mpf(h_start))
        assert abs(inverse_lprime(cost, y) - ref) <= 1e-13 * abs(ref)


def test_eval_cost_jet_neg_cosh_at_zero():
    cost = preset("neg-cosh", 2.0)
    jet = eval_cost_jet(cost, 0.0)
    expected = [-1.0, 0.0, -0.5, 0.0, -1.0 / 24.0, 0.0, -1.0 / 720.0]
    assert np.allclose([float(c) for c in jet.coeffs], expected, atol=1e-15)


def test_eval_cost_jet_log_cosh_at_zero():
    cost = preset("log-cosh", 2.0)
    jet = eval_cost_jet(cost, 0.0)
    assert jet.derivative(1) == pytest.approx(0.0, abs=1e-15)
    assert jet.derivative(2) == pytest.approx(1.0, abs=1e-15)


def test_eval_cost_jet_quartic_first_derivative():
    cost = preset("quartic", 1.0, eps=1e-3)
    assert float(cost.lprime(1.0)) == pytest.approx(0.996, abs=1e-15)


@pytest.mark.parametrize("text", ["-log(1+cosh(z))", "z^2/2 - 0.001*z^4", "z^2/2", "z"])
@pytest.mark.parametrize("t", [np.linspace(0.0, 1.5, 7), np.array(0.7), 0.7])
def test_derivative_arrays_are_the_full_jets_scaled_coefficients(text, t):
    # l^(k) = k! c_k of the full-length jet, bit for bit, as a new array of
    # t's shape.  The higher coefficients of z^2/2 and of z are floats that
    # do not depend on t; make_cost rejects the odd l = z, so a stand-in
    # carries what the jet reads
    cost = SimpleNamespace(expression=parse_cost(text), text=text)
    full = eval_cost_jet(cost, t).coeffs
    got = costs.derivative_arrays(cost, t, 4)
    assert len(got) == 4
    for k, value in enumerate(got, 1):
        ref = np.broadcast_to(np.float64(full[k]) * float(np.prod(range(1, k + 1))), np.shape(t))
        assert np.shape(value) == np.shape(t) and value.tobytes() == ref.tobytes(), k
        assert isinstance(value, np.ndarray if np.ndim(t) else np.float64)
        assert not any(value is c for c in full)


def test_quartic_admissibility_guard():
    # l'' = 1 - 12*eps*z^2 changes sign at z = 9.129 on [0, 10], and is 0
    # at D where 12*eps*D^2 = 1: the admissibility check refuses both
    with pytest.raises(AdmissibilityError) as err:
        preset("quartic", 10.0, eps=1e-3)
    assert err.value.kind == "lpp-sign-change"
    assert err.value.witness == pytest.approx(9.137, abs=1e-3)
    with pytest.raises(AdmissibilityError) as err:
        preset("quartic", 1.0, eps=1.0 / 12.0)
    assert (err.value.kind, err.value.witness) == ("lpp-zero", 1.0)


def test_make_cost_forms():
    # a preset name, stripped, carries the preset's analytic inverse
    named = make_cost(" neg-cosh\n", 2.0)
    assert (named.name, named.text) == ("neg-cosh", "-cosh(z)")
    assert named.analytic_inverse is costs.PRESETS["neg-cosh"].analytic_inverse
    # a preset's expression text is an expression, inverted by Newton
    text = make_cost("\t-cosh(z) ", 2.0)
    assert (text.name, text.text, text.analytic_inverse) == (None, "-cosh(z)", None)
    quartic, ref = make_cost("quartic(0.002)", 1.0), preset("quartic", 1.0, eps=0.002)
    assert quartic.analytic_inverse is not None and quartic == ref
    assert (quartic.name, quartic.text) == (ref.name, ref.text) == ("quartic(0.002)",
                                                                    "z^2/2 - 0.002*z^4")
    assert quartic.zmax.hex() == ref.zmax.hex()
    custom = make_cost("z^2/2", 1.0)
    assert custom.name is None and custom.analytic_inverse is None


@pytest.mark.parametrize("text", sorted(costs.PRESETS) + [
    "quartic(0.002)", "-cosh(z)", "z^2/2 + 0.1*z^4", " log(1 + z^2/4) "])
def test_construction_derives_the_expression(text):
    # a cost parses its own text and converts its own diameter, so two costs
    # of one text are equal, and hash equal
    cost = make_cost(text, 1)
    assert cost.expression == parse_cost(cost.text)
    assert type(cost.diameter) is float and cost.diameter == 1.0
    twin = make_cost(text, 1.0)
    assert twin == cost and hash(twin) == hash(cost)
    if text in costs.PRESETS:
        assert type(preset(text, 2).diameter) is float and preset(text, 2).diameter == 2.0


def test_unknown_preset():
    with pytest.raises(InputError, match="unknown preset 'does-not-exist'; known: "):
        preset("does-not-exist", 1.0)


def test_zmax_evaluated_once(monkeypatch):
    calls = []

    def counting(cost, z0, length=costs.N_COEFFS):
        calls.append((z0, length))
        return eval_cost_jet(cost, z0, length)

    monkeypatch.setattr(costs, "eval_cost_jet", counting)
    cost = preset("neg-cosh", 2.0)
    # construction reads l'(D) off the admissibility grid, whose last point
    # is D, and evaluates no jet at the scalar D
    assert calls and not any(np.ndim(z0) == 0 and z0 == 2.0 for z0, _ in calls)
    built = len(calls)
    values = [cost.zmax for _ in range(5)]
    assert len(calls) == built
    assert [v.hex() for v in values] == [abs(float(cost.lprime(2.0))).hex()] * 5
    assert values[0] == pytest.approx(np.sinh(2.0), rel=1e-15)
    # zmax and lprime_sign are not part of the cost's identity
    fresh = preset("neg-cosh", 2.0)
    assert fresh == cost and hash(fresh) == hash(cost)
    assert "zmax" not in repr(cost)


def test_overflowing_cost_is_not_admissible():
    # l' = 800 z exp(400 z^2) overflows float64 near z = 1.33: the first
    # grid sample where l' or l'' is not finite is reported
    grid = np.linspace(0.0, 2.0, 256)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AdmissibilityError) as err:
            make_cost("exp(z^2)^400", 2.0)
    assert err.value.kind == "not-finite"
    assert err.value.witness in grid and 1.0 < err.value.witness < 1.4


@pytest.mark.parametrize("text,D", [("z^2/2 + z^3", 1.0),
                                    ("z^2/2 + 1e-7*z^3 + 1e4*z^6", 1e-3)])
def test_odd_part_judged_against_lpp_at_zero(text, D):
    # the second cost's z^3 term is below 1e-10 of its largest Taylor
    # coefficient (1e4) but not of l''(0)/2 = 0.5, against which the origin
    # series of the profiles would drop it
    with pytest.raises(AdmissibilityError) as err:
        make_cost(text, D)
    assert err.value.kind == "not-even" and err.value.witness == 0.0


@pytest.mark.parametrize("eps", [1e-3, 1e-100, 1e-240, 1e-300])
def test_quartic_inverse_residual(eps):
    # h solves y = h - 4*eps*h^3; at a tiny eps the root's start keeps the
    # digits of y, which acos(-a) rounds away
    h = _QuarticInverse(eps)
    y = np.concatenate([np.linspace(0.0, 0.99, 100), np.geomspace(1e-300, 1.0, 61)])
    root = h(y)
    assert np.all(np.abs(root - 4.0 * eps * root ** 3 - y) <= 2.3e-16 * y)


def _two_branch_quartic_inverse(eps, y):
    """The quartic's inverse with both starts evaluated at every point and
    np.where choosing between them."""
    root3eps = np.sqrt(3.0 * eps)
    a = np.clip(3.0 * root3eps * y, -1.0, 1.0)
    root = np.where(np.abs(a) < 1e-8, np.sin(np.arcsin(a) / 3.0),
                    np.cos(np.arccos(-a) / 3.0 - 2.0 * np.pi / 3.0)) / root3eps
    for _ in range(2):
        root = root - (root - 4.0 * eps * root ** 3 - y) / (1.0 - 12.0 * eps * root ** 2)
    return root


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
def test_quartic_start_keeps_the_bits_of_both_branches(eps):
    # the sine start is evaluated only where |a| < 1e-8, a = 3 sqrt(3 eps) y;
    # h must keep the bits of the formula that evaluates both starts
    # everywhere, on both sides of that edge, and on arrays and scalars
    h = _QuarticInverse(eps)
    edge = 1e-8 / (3.0 * np.sqrt(3.0 * eps))
    ymax = 0.99 / (3.0 * np.sqrt(3.0 * eps))
    near = edge * np.array([0.0, 1e-300, 1e-9, 0.5, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 2.0, 1e3])
    y = np.concatenate([near, -near, np.nextafter(edge, 0.0) * np.ones(1),
                        np.nextafter(edge, 1.0) * np.ones(1),
                        np.geomspace(edge * 1e-6, edge * 1e6, 101),
                        np.linspace(-ymax, ymax, 257)])
    assert h(y).tobytes() == _two_branch_quartic_inverse(eps, y).tobytes()
    for value in y[::7]:
        for scalar in (value, np.asarray(value)):
            got = h(scalar)
            assert np.shape(got) == ()
            assert np.float64(got).tobytes() == np.float64(
                _two_branch_quartic_inverse(eps, scalar)).tobytes()


_SUBNORMAL_STEP_CASES = [("neg-cosh", -1, None, "A3s"), ("sq", 0, None, "A3w-only"),
                         ("neg-log1p-cos", 1, None, "A3s"), ("quartic", 0, 1e-3, "A3s")]


@pytest.mark.parametrize("name,K,eps,status", _SUBNORMAL_STEP_CASES)
@pytest.mark.parametrize("diameter", [1e-320, 5e-324, 3e-306])
def test_subnormal_step_diameter_keeps_the_verdict(name, K, eps, status, diameter):
    # at these diameters the admissibility grid's step D/255 is subnormal,
    # and np.linspace(0, 1e-320, 256) rounds point 254 above D, where l'
    # exceeds l'(D): the grid is clamped to D, so no false
    # lprime-not-monotone is raised and the scan gives the paper's verdict
    # |l'(D)| is at most D; for neg-log1p-cos at 5e-324 it is D/2, which
    # rounds to 0
    cost = _preset(name, diameter, eps)
    assert 0.0 <= cost.zmax <= diameter
    assert scan_conditions(cost, K, 3, grid_points=256).status == status

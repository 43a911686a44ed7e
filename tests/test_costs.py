"""Cost construction, admissibility, the inverse of l', and cost jets."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import CANONICAL_CASES

from mtwcheck import costs, eval_cost_jet, inverse_lprime, make_cost, parse_cost, preset
from mtwcheck.costs import _make_h_quartic, _newton_inverse
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


def test_quartic_admissibility_guard():
    with pytest.raises(InputError, match=r"quartic preset needs 12\*eps\*D\^2 < 1"):
        preset("quartic", 10.0, eps=1e-3)  # 12*eps*D^2 >= 1


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
    # construction reads l'(D) last, as coefficient 1 of a jet of length 2
    assert calls[-1] == (2.0, 2)
    built = len(calls)
    values = [cost.zmax for _ in range(5)]
    assert len(calls) == built
    assert values == [abs(float(cost.lprime(2.0)))] * 5
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
    h = _make_h_quartic(eps)
    y = np.concatenate([np.linspace(0.0, 0.99, 100), np.geomspace(1e-300, 1.0, 61)])
    root = h(y)
    assert np.all(np.abs(root - 4.0 * eps * root ** 3 - y) <= 2.3e-16 * y)

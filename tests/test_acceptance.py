"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest
from helpers import CANONICAL_CASES, random_orthogonal_pair

from mtwcheck import (A3S, A3W_ONLY, SpaceForm, classify, cost_exp,
                      jacobi_residual, make_cost, minus_grad_x_cost, mtw_closed,
                      mtw_definitional, mtw_via_jacobi, parse_cost, perturbation_check,
                      profile_row, scan_conditions)
from mtwcheck.curvature import coefficient_arrays
from mtwcheck.expressions import evaluate
from mtwcheck.jets import Jet, jet_compose


def _report(label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_criterion_1_paper_verdict_suite():
    cases = [
        ("neg-cosh", -1, 2.0, A3S),
        ("neg-log1p-cosh", -1, 2.0, A3S),
        ("log-cosh", -1, 2.0, A3W_ONLY),
        ("neg-log-cosh", -1, 2.0, A3W_ONLY),
        ("neg-log1p-cos", 1, 2.5, A3S),
    ]
    ok = True
    for name, K, D, expected in cases:
        cost = make_cost(name, D)
        for n in (2, 3):
            started = time.perf_counter()
            verdict = scan_conditions(cost, K, n, grid_points=4096)
            elapsed = time.perf_counter() - started
            ok &= verdict.status == expected and elapsed < 1.0
    _report("criterion 1: preset verdicts at grid 4096, n in {2,3}, each scan < 1 s", ok)


def test_criterion_2_closed_form_coefficient_fixtures():
    tol = 1e-9
    ok = True

    cost = make_cost("neg-cosh", 2.0)
    z = np.linspace(0.0, cost.zmax, 100)
    prof = coefficient_arrays(cost, -1, z)
    root = np.sqrt(1.0 + z * z)
    ok &= np.max(np.abs(prof["alpha"] + root ** -3)) < tol
    ok &= np.max(np.abs(prof["gamma"] + root ** -3)) < tol
    ok &= np.max(np.abs(prof["beta"] + root ** -1)) < tol
    ok &= np.max(np.abs(prof["delta"] + root ** -1)) < tol

    for name, K, D in [("neg-log1p-cosh", -1, 2.0), ("neg-log1p-cos", 1, 2.5)]:
        cost = make_cost(name, D)
        z = np.linspace(0.0, cost.zmax, 100)
        prof = coefficient_arrays(cost, K, z)
        for key in ("alpha", "beta", "gamma", "delta"):
            ok &= np.max(np.abs(prof[key] + 1.0)) < tol

    for name in ("log-cosh", "neg-log-cosh"):
        cost = make_cost(name, 2.0)
        z = np.linspace(0.0, cost.zmax, 100)
        prof = coefficient_arrays(cost, -1, z)
        for key in ("alpha", "beta", "gamma", "delta"):
            ok &= np.max(np.abs(prof[key])) < tol

    cost = make_cost("sq", 5.0)
    z = np.linspace(0.0, cost.zmax, 100)
    prof = coefficient_arrays(cost, 0, z)
    for key in ("alpha", "beta", "gamma", "delta"):
        ok &= np.max(np.abs(prof[key])) < tol

    _report("criterion 2: hand-derived coefficient fixtures at 1e-9 on 100 points", ok)


def test_criterion_3_three_route_agreement():
    started = time.perf_counter()
    presets_for_K = {-1: ("neg-cosh", 2.0), 0: ("quartic(0.001)", 1.0),
                     1: ("neg-log1p-cos", 2.5)}
    ok = True
    for K in (-1, 0, 1):
        name, D = presets_for_K[K]
        cost = make_cost(name, D)
        for n in (2, 3, 4):
            form = SpaceForm(K, n)
            x = form.canonical_base()
            rng = np.random.default_rng(9000 + 10 * K + n)
            for _ in range(100):
                u = form.random_tangent(x, rng, unit=True)
                w = form.random_tangent(x, rng, unit=True)
                zv = rng.uniform(0.1, 0.9 * cost.zmax)
                v = form.random_tangent(x, rng, unit=True) * zv
                row = profile_row(cost, form, v)
                closed = mtw_closed(row, form, u, v, w)
                jacobi = mtw_via_jacobi(row, form, u, v, w)
                oracle = mtw_definitional(cost, form, x, u, v, w)
                ref = max(1.0, abs(closed))
                ok &= abs(closed - jacobi) <= 1e-8 * ref
                ok &= abs(closed - oracle) <= 5e-3 * ref
    elapsed = time.perf_counter() - started
    ok &= elapsed < 30.0
    _report(f"criterion 3: route agreement on 900 inputs in {elapsed:.1f} s (< 30 s)", ok)


def test_criterion_4_jacobi_map_validation():
    ok = True
    for K in (-1, 1):
        form = SpaceForm(K, 3)
        x = form.canonical_base()
        rng = np.random.default_rng(400 + K)
        for _ in range(50):
            u = form.random_tangent(x, rng)
            length = rng.uniform(0.1, 3.0)
            v = form.random_tangent(x, rng, unit=True) * length
            ok &= jacobi_residual(form, x, u, v, steps=1000) <= 1e-8
    form = SpaceForm(0, 3)
    x = form.canonical_base()
    rng = np.random.default_rng(403)
    for _ in range(50):
        u = form.random_tangent(x, rng)
        v = form.random_tangent(x, rng, unit=True) * rng.uniform(0.1, 4.0)
        ok &= jacobi_residual(form, x, u, v, steps=1000) <= 1e-12
    _report("criterion 4: Jacobi residual <= 1e-8 (K=+-1), <= 1e-12 (K=0)", ok)


def test_criterion_5_cost_exponential_roundtrip():
    cases = [("sq", (-1, 0, 1), 2.0), ("neg-cosh", (-1,), 2.0),
             ("neg-log1p-cosh", (-1,), 2.0), ("log-cosh", (-1,), 2.0),
             ("neg-log-cosh", (-1,), 2.0), ("neg-log1p-cos", (1,), 2.5),
             ("quartic(0.001)", (0,), 1.0)]
    ok = True
    rng = np.random.default_rng(500)
    for name, curvatures, D in cases:
        cost = make_cost(name, D)
        for K in curvatures:
            form = SpaceForm(K, 3)
            for _ in range(100):
                x = form.random_point(rng)
                t = rng.uniform(0.05, 0.95 * D)
                y = form.exp_map(x, form.random_tangent(x, rng, unit=True) * t)
                back = cost_exp(cost, form, x, minus_grad_x_cost(cost, form, x, y))
                ok &= float(np.max(np.abs(back - y))) < 1e-9
    # for the identity-inverse cost the two exponentials coincide
    cost = make_cost("sq", 2.0)
    for K in (-1, 0, 1):
        form = SpaceForm(K, 3)
        for _ in range(50):
            x = form.random_point(rng)
            v = form.random_tangent(x, rng, unit=True) * rng.uniform(0.05, 1.9)
            ok &= float(np.max(np.abs(cost_exp(cost, form, x, v)
                                      - form.exp_map(x, v)))) < 1e-12
    _report("criterion 5: cost-exponential round trips (1e-9; sq vs exp 1e-12)", ok)


def test_criterion_6_perturbation_criterion():
    ok = True
    profile = parse_cost("-4*z^2")
    for b in (0.5, 1.0, 2.0):
        ok &= perturbation_check(profile, -1.0, b).holds
    eps = 1e-3
    cost = make_cost(f"quartic({eps})", 1.0)
    verdict = scan_conditions(cost, 0, 3, grid_points=4096)
    ok &= verdict.status == A3S
    zmax = cost.zmax
    z = np.linspace(zmax / 4096.0, zmax, 4096)
    prof = coefficient_arrays(cost, 0, z)
    for key in ("alpha", "beta", "gamma", "delta"):
        ok &= float(np.max(np.abs(prof[key] - (-8.0 * eps)) / (8.0 * eps))) < 0.10
    _report("criterion 6: perturbation criterion and quartic scan (A3s, -8*eps +-10%)", ok)


def test_criterion_7_inequality_truth_table():
    c3 = classify([0.0], [-1.0], [-1.0], [0.1], n=3)
    c2 = classify([0.0], [-1.0], [-1.0], [0.1], n=2)
    ok = bool(not c3.weak[0] and c2.weak[0])
    for n in (2, 3):
        c = classify([0.0], [0.0], [0.0], [0.0], n=n)
        ok &= bool(c.weak[0] and not c.strict[0])
    _report("criterion 7: 2D-vs-3D inequality split and boundary case", ok)


def test_criterion_8_module_invariant_spotchecks():
    ok = True
    # jets vs finite differences
    from helpers import central_derivative
    jet = jet_compose("cosh", Jet.variable(0.8))
    for k in range(1, 5):
        fd = central_derivative(np.cosh, 0.8, k, h=0.02)
        ok &= abs(jet.derivative(k) - fd) <= 1e-5 * max(1.0, abs(fd))
    # parser round trip on a nontrivial expression
    text = "-log(1+cosh(z))+z^2/2-0.25*sqrt(1+z^2)"
    expr = parse_cost(text)
    from test_expressions import pretty
    ok &= parse_cost(pretty(expr)) == expr
    ok &= abs(float(evaluate(expr, 0.7))
              - (-np.log(1 + np.cosh(0.7)) + 0.245 - 0.25 * np.sqrt(1.49))) < 1e-12
    # model constraints after exp
    from helpers import model_violation
    rng = np.random.default_rng(800)
    form = SpaceForm(-1, 3)
    for _ in range(100):
        x = form.random_point(rng)
        y = form.exp_map(x, form.random_tangent(x, rng))
        ok &= model_violation(form, y) < 1e-9
    # quadratic homogeneity through both analytic routes
    cost = make_cost("neg-log1p-cosh", 2.0)
    x = form.canonical_base()
    for _ in range(50):
        u = form.random_tangent(x, rng)
        w = form.random_tangent(x, rng)
        v = form.random_tangent(x, rng, unit=True) * rng.uniform(0.1, 0.7)
        lam = rng.uniform(0.5, 2.0)
        row = profile_row(cost, form, v)
        for route in (mtw_closed, mtw_via_jacobi):
            base_val = route(row, form, u, v, w)
            scaled = route(row, form, u * lam, v, w)
            ok &= abs(scaled - lam ** 2 * base_val) <= 1e-10 * max(1.0, abs(base_val)) * lam ** 2
    # grid refinement stability
    for name, K, D in [("neg-cosh", -1, 2.0), ("log-cosh", -1, 2.0)]:
        cost = make_cost(name, D)
        a = scan_conditions(cost, K, 3, grid_points=512)
        b = scan_conditions(cost, K, 3, grid_points=8192)
        ok &= a.status == b.status
    _report("criterion 8: per-module invariant spot checks", ok)


# Costs for criterion 9: the presets, sq on all three models, and admissible
# members of the families -log(a + cosh z), log(cosh z) + eps z^2 and
# z^2/2 - eps z^4, of either sign of eps, as (text, K, D).  At K = 0,
# log(cosh z) + 0.05 z^2 fails on the combo condition alone from a z between
# 0.995 and 0.998 |l'(D)|.  REDUCTION_Z takes both, so that a defect in the
# combo flips the verdict at one of them.
REDUCTION_CASES = CANONICAL_CASES + [
    ("sq", -1, 2.0), ("sq", 1, 2.5), ("-log(0.5+cosh(z))", -1, 2.0),
    ("log(cosh(z)) + 0.05*z^2", -1, 2.0), ("log(cosh(z)) + 0.05*z^2", 0, 2.0),
    ("log(cosh(z)) - 0.01*z^2", -1, 2.0), ("z^2/2 + 0.01*z^4", 0, 2.0),
    ("z^2/2 - 0.01*z^4", 0, 2.0),
]
REDUCTION_Z = (1e-6, 0.01, 0.1, 0.3, 0.6, 0.9, 0.995, 0.998, 1.0)
# Points where a sign condition binds, so that the minimum over the pairs is
# 1.5 slack_min, for the oracle: (text, K, D, z / |l'(D)|, the binding angle)
REDUCTION_ORACLE_POINTS = [
    ("neg-cosh", -1, 2.0, 0.3, np.pi / 2), ("quartic(0.001)", 0, 1.0, 0.5, 0.0),
    ("neg-log1p-cos", 1, 2.5, 0.3, 0.0), ("-log(0.5+cosh(z))", -1, 2.0, 0.5, 0.0),
    ("z^2/2 + 0.01*z^4", 0, 2.0, 0.1, 0.0), ("log(cosh(z)) + 0.05*z^2", -1, 2.0, 0.5, np.pi / 2),
]


def _pair(form, a):
    """The orthonormal pair u = (cos a, sin a), w = (-sin a, cos a) at n = 2."""
    return (form.frame_tangent([np.cos(a), np.sin(a)]),
            form.frame_tangent([-np.sin(a), np.cos(a)]))


def test_criterion_9_inequality_set_is_the_tensor_condition():
    # At n = 2, with v = z e1, S(a) = mtw_closed at the pair of angle a is a
    # quartic form in (cos a, sin a): five angles fix its coefficients, and
    # a sixth checks them.  Its minimum over a must agree in sign with
    # classify, up to the band, and be positive where strict holds.  The
    # pairs a = 0 and a = pi/2 isolate -1.5 beta and -1.5 gamma, and at n = 3,
    # u and w orthogonal to v and to each other isolate -1.5 delta.  Where
    # beta and gamma are below -band, with b = sqrt(-beta), g = sqrt(-gamma)
    # and x = cos^2 a, S = 1.5 [(b x - g (1 - x))^2 + combo x (1 - x)], so at
    # x = g/(b + g) S is 1.5 combo b g/(b + g)^2, a check of the combo's size.
    fit = np.linspace(0.0, np.pi, 6, endpoint=False)
    dense = np.linspace(0.0, np.pi, 2001)
    basis = [np.stack([np.cos(a) ** (4 - k) * np.sin(a) ** k for k in range(5)], axis=-1)
             for a in (fit, dense)]
    mismatches = []
    for text, K, D in REDUCTION_CASES:
        cost = make_cost(text, D)
        form2, form3 = SpaceForm(K, 2), SpaceForm(K, 3)
        e = [form3.frame_tangent(row) for row in np.eye(3)]
        for z in np.array(REDUCTION_Z) * cost.zmax:
            prof = coefficient_arrays(cost, K, z)
            band = float(prof["band"][0])
            c = classify(prof["alpha"], prof["beta"], prof["gamma"], prof["delta"], 2, band=band)
            v = form2.frame_tangent([z, 0.0])
            row = profile_row(cost, form2, v)
            S = np.array([mtw_closed(row, form2, u, v, w)
                          for u, w in (_pair(form2, a) for a in fit)])
            coeffs = np.linalg.solve(basis[0][:5], S[:5])
            min_S = float(np.min(basis[1] @ coeffs))
            where = f"{text} at K = {K}, z = {z!r}"
            if abs(basis[0][5] @ coeffs - S[5]) > band or (min_S >= -1.5 * band) != c.weak[0] \
                    or (c.strict[0] and not min_S > 0.0):
                mismatches.append(f"{where}: min S {min_S!r}, weak {c.weak[0]}, "
                                  f"strict {c.strict[0]}, slack_min {c.slack_min[0]!r}")
            if prof["beta"][0] < -band and prof["gamma"][0] < -band:
                b, g = np.sqrt(-prof["beta"][0]), np.sqrt(-prof["gamma"][0])
                a0 = np.arccos(np.sqrt(g / (b + g)))
                at_a0 = np.cos(a0) ** (4 - np.arange(5)) * np.sin(a0) ** np.arange(5) @ coeffs
                expected = 1.5 * c.combo[0] * b * g / (b + g) ** 2
                if not abs(at_a0 - expected) <= band:
                    mismatches.append(f"{where}: S = {at_a0!r} at cos^2 a = g/(b + g), "
                                      f"against 1.5 combo bg/(b + g)^2 = {expected!r}")
            v3 = e[0] * z
            isolated = [(S[0], "beta"), (S[3], "gamma"),
                        (mtw_closed(profile_row(cost, form3, v3), form3, e[1], v3, e[2]),
                         "delta")]
            for value, key in isolated:
                if not abs(value + 1.5 * prof[key][0]) <= band:
                    mismatches.append(f"{where}: S = {value!r} against -1.5 {key} = "
                                      f"{-1.5 * prof[key][0]!r}")
    # the definitional oracle shares no formula with classify
    for text, K, D, fraction, a in REDUCTION_ORACLE_POINTS:
        cost = make_cost(text, D)
        form = SpaceForm(K, 2)
        z = fraction * cost.zmax
        prof = coefficient_arrays(cost, K, z)
        ref = 1.5 * float(classify(prof["alpha"], prof["beta"], prof["gamma"], prof["delta"], 2,
                                   band=prof["band"]).slack_min[0])
        u, w = _pair(form, a)
        value = mtw_definitional(cost, form, form.canonical_base(), u,
                                 form.frame_tangent([z, 0.0]), w)
        if not abs(value - ref) <= 5e-3 * abs(ref):
            mismatches.append(f"oracle on {text} at K = {K}, z = {z!r}, a = {a!r}: "
                              f"{value!r} against 1.5 slack_min = {ref!r}")
    _report("criterion 9: the inequality set is the tensor condition"
            + "".join(f"\n  {line}" for line in mismatches), not mismatches)

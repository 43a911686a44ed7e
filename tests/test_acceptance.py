"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest
from helpers import random_orthogonal_pair

from mtwcheck import (A3S, A3W_ONLY, SpaceForm, classify, cost_exp,
                      jacobi_residual, minus_grad_x_cost, mtw_closed, mtw_definitional,
                      mtw_via_jacobi, parse_cost, perturbation_check, preset,
                      scan_conditions)
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
        cost = preset(name, D)
        for n in (2, 3):
            started = time.perf_counter()
            verdict = scan_conditions(cost, K, n, grid_points=4096)
            elapsed = time.perf_counter() - started
            ok &= verdict.status == expected and elapsed < 1.0
    _report("criterion 1: preset verdicts at grid 4096, n in {2,3}, each scan < 1 s", ok)


def test_criterion_2_closed_form_coefficient_fixtures():
    tol = 1e-9
    ok = True

    cost = preset("neg-cosh", 2.0)
    z = np.linspace(0.0, cost.zmax, 100)
    prof = coefficient_arrays(cost, -1, z)
    root = np.sqrt(1.0 + z * z)
    ok &= np.max(np.abs(prof["alpha"] + root ** -3)) < tol
    ok &= np.max(np.abs(prof["gamma"] + root ** -3)) < tol
    ok &= np.max(np.abs(prof["beta"] + root ** -1)) < tol
    ok &= np.max(np.abs(prof["delta"] + root ** -1)) < tol

    for name, K, D in [("neg-log1p-cosh", -1, 2.0), ("neg-log1p-cos", 1, 2.5)]:
        cost = preset(name, D)
        z = np.linspace(0.0, cost.zmax, 100)
        prof = coefficient_arrays(cost, K, z)
        for key in ("alpha", "beta", "gamma", "delta"):
            ok &= np.max(np.abs(prof[key] + 1.0)) < tol

    for name in ("log-cosh", "neg-log-cosh"):
        cost = preset(name, 2.0)
        z = np.linspace(0.0, cost.zmax, 100)
        prof = coefficient_arrays(cost, -1, z)
        for key in ("alpha", "beta", "gamma", "delta"):
            ok &= np.max(np.abs(prof[key])) < tol

    cost = preset("sq", 5.0)
    z = np.linspace(0.0, cost.zmax, 100)
    prof = coefficient_arrays(cost, 0, z)
    for key in ("alpha", "beta", "gamma", "delta"):
        ok &= np.max(np.abs(prof[key])) < tol

    _report("criterion 2: hand-derived coefficient fixtures at 1e-9 on 100 points", ok)


def test_criterion_3_three_route_agreement():
    started = time.perf_counter()
    presets_for_K = {-1: ("neg-cosh", 2.0, None), 0: ("quartic", 1.0, 1e-3),
                     1: ("neg-log1p-cos", 2.5, None)}
    ok = True
    for K in (-1, 0, 1):
        name, D, eps = presets_for_K[K]
        cost = preset(name, D, eps=eps) if eps else preset(name, D)
        for n in (2, 3, 4):
            form = SpaceForm(K, n)
            x = form.canonical_base()
            rng = np.random.default_rng(9000 + 10 * K + n)
            for _ in range(100):
                u = form.random_tangent(x, rng, unit=True)
                w = form.random_tangent(x, rng, unit=True)
                zv = rng.uniform(0.1, 0.9 * cost.zmax)
                v = form.random_tangent(x, rng, unit=True) * zv
                closed = mtw_closed(cost, form, u, v, w)
                jacobi = mtw_via_jacobi(cost, form, u, v, w)
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
    cases = [("sq", (-1, 0, 1), 2.0, None), ("neg-cosh", (-1,), 2.0, None),
             ("neg-log1p-cosh", (-1,), 2.0, None), ("log-cosh", (-1,), 2.0, None),
             ("neg-log-cosh", (-1,), 2.0, None), ("neg-log1p-cos", (1,), 2.5, None),
             ("quartic", (0,), 1.0, 1e-3)]
    ok = True
    rng = np.random.default_rng(500)
    for name, curvatures, D, eps in cases:
        cost = preset(name, D, eps=eps) if eps else preset(name, D)
        for K in curvatures:
            form = SpaceForm(K, 3)
            for _ in range(100):
                x = form.random_point(rng)
                t = rng.uniform(0.05, 0.95 * D)
                y = form.exp_map(x, form.random_tangent(x, rng, unit=True) * t)
                back = cost_exp(cost, form, x, minus_grad_x_cost(cost, form, x, y))
                ok &= float(np.max(np.abs(back - y))) < 1e-9
    # for the identity-inverse cost the two exponentials coincide
    cost = preset("sq", 2.0)
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
    cost = preset("quartic", 1.0, eps=eps)
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
    from mtwcheck.expressions import pretty
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
    cost = preset("neg-log1p-cosh", 2.0)
    x = form.canonical_base()
    for _ in range(50):
        u = form.random_tangent(x, rng)
        w = form.random_tangent(x, rng)
        v = form.random_tangent(x, rng, unit=True) * rng.uniform(0.1, 0.7)
        lam = rng.uniform(0.5, 2.0)
        for route in (mtw_closed, mtw_via_jacobi):
            base_val = route(cost, form, u, v, w)
            scaled = route(cost, form, u * lam, v, w)
            ok &= abs(scaled - lam ** 2 * base_val) <= 1e-10 * max(1.0, abs(base_val)) * lam ** 2
    # grid refinement stability
    for name, K, D in [("neg-cosh", -1, 2.0), ("log-cosh", -1, 2.0)]:
        cost = preset(name, D)
        a = scan_conditions(cost, K, 3, grid_points=512)
        b = scan_conditions(cost, K, 3, grid_points=8192)
        ok &= a.status == b.status
    _report("criterion 8: per-module invariant spot checks", ok)

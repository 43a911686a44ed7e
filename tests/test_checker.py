"""Inequality logic, scans, and the perturbation criterion."""

import numpy as np
import pytest
from helpers import random_orthogonal_pair, scan_table

from mtwcheck import (A3S, A3W_ONLY, FAILS, SpaceForm, classify, mtw_closed,
                      parse_cost, perturbation_check, preset, profile_row, scan_conditions)
from mtwcheck import checker
from mtwcheck.checker import STRICT_MARGIN, _grid_chunks
from mtwcheck.costs import make_cost
from mtwcheck.curvature import _NOISE_BAND_COEFF, _noise_band, coefficient_arrays
from mtwcheck.errors import AdmissibilityError, InputError, NumericError


def _classify_one(alpha, beta, gamma, delta, n):
    """The inequality set on length-1 arrays of one coefficient tuple."""
    return classify([alpha], [beta], [gamma], [delta], n)


def test_classify_all_negative_is_strict():
    c = _classify_one(-1.0, -1.0, -1.0, -1.0, n=3)
    assert c.slacks["beta"][0] == 1.0 and c.slacks["gamma"][0] == 1.0
    assert c.slacks["delta"][0] == 1.0
    assert c.combo[0] == pytest.approx(4.0)
    assert c.weak[0] and c.strict[0]


def test_classify_zero_profile_weak_not_strict():
    for n in (2, 3):
        c = _classify_one(0.0, 0.0, 0.0, 0.0, n=n)
        assert c.weak[0] and not c.strict[0]
        assert c.combo[0] == pytest.approx(0.0)


def test_classify_dimension_split():
    # delta slightly positive: fails for n >= 3, passes weakly for n = 2
    c3 = _classify_one(0.0, -1.0, -1.0, 0.1, n=3)
    assert not c3.weak[0]
    assert c3.slacks["delta"][0] == pytest.approx(-0.1)
    c2 = _classify_one(0.0, -1.0, -1.0, 0.1, n=2)
    assert c2.weak[0]
    assert c2.combo[0] == pytest.approx(1.9)


def test_classify_combo_undefined_when_beta_positive():
    c = _classify_one(0.0, 0.5, -1.0, -1.0, n=3)
    assert c.combo[0] == np.inf and not c.weak[0]


def test_classify_combo_binding():
    # alpha + delta exceeding 2*sqrt(beta*gamma) must fail despite all signs ok
    c = _classify_one(3.0, -1.0, -1.0, 0.0, n=3)
    assert c.combo[0] == pytest.approx(-1.0)
    assert not c.weak[0]


def test_classify_monotone_in_beta_gamma_delta():
    rng = np.random.default_rng(0)
    for _ in range(200):
        alpha = rng.uniform(-2.0, 2.0)
        beta, gamma, delta = rng.uniform(-2.0, 0.0, size=3)
        c = _classify_one(alpha, beta, gamma, delta, n=3)
        if not c.weak[0]:
            continue
        drop = rng.uniform(0.0, 1.0, size=3)
        c2 = _classify_one(alpha, beta - drop[0], gamma - drop[1], delta - drop[2], n=3)
        assert c2.weak[0]


SCAN_EXPECTATIONS = [
    ("neg-cosh", -1, 2.0, None, A3S),
    ("neg-log1p-cosh", -1, 2.0, None, A3S),
    ("log-cosh", -1, 2.0, None, A3W_ONLY),
    ("neg-log-cosh", -1, 2.0, None, A3W_ONLY),
    ("neg-log1p-cos", 1, 2.5, None, A3S),
    ("sq", 0, 5.0, None, A3W_ONLY),
    ("quartic", 0, 1.0, 1e-3, A3S),
]


@pytest.mark.parametrize("name,K,D,eps,expected", SCAN_EXPECTATIONS)
def test_scan_preset_verdicts(name, K, D, eps, expected):
    cost = preset(name, D, eps=eps) if eps else preset(name, D)
    for n in (2, 3):
        verdict = scan_conditions(cost, K, n)
        assert verdict.status == expected, (name, n)


def test_scan_zero_profile_slacks_are_tiny():
    cost = preset("log-cosh", 2.0)
    verdict = scan_conditions(cost, -1, 3)
    assert all(abs(s) < 1e-6 for s in verdict.min_slacks.values())


def test_scan_rejects_inadmissible():
    # the check runs when the cost is built, so no scan sees an odd cost
    with pytest.raises(AdmissibilityError) as err:
        make_cost("z^3", 1.0)
    assert err.value.kind == "not-even"


def test_scan_sphere_diameter_guard():
    cost = preset("sq", 3.2)
    with pytest.raises(InputError, match="clear of the cot pole"):
        scan_conditions(cost, 1, 3)


def test_scan_rejects_a_curvature_without_a_model():
    with pytest.raises(InputError, match="curvature must be -1, 0, or \\+1, got 2"):
        scan_conditions(preset("neg-cosh", 2.0), 2, 3)


def test_scan_grid_refinement_stable():
    for name, K, D, eps, expected in SCAN_EXPECTATIONS:
        cost = preset(name, D, eps=eps) if eps else preset(name, D)
        coarse = scan_conditions(cost, K, 3, grid_points=512)
        fine = scan_conditions(cost, K, 3, grid_points=8192)
        assert coarse.status == fine.status == expected


def test_scan_dimension_consistency():
    # strict at n >= 3 implies strict at n = 2 (fewer conditions)
    for name, K, D, eps, expected in SCAN_EXPECTATIONS:
        cost = preset(name, D, eps=eps) if eps else preset(name, D)
        v3 = scan_conditions(cost, K, 3)
        if v3.status == A3S:
            v2 = scan_conditions(cost, K, 2)
            assert v2.status == A3S


def test_scan_failure_has_negative_witness_slack():
    # flipping the sign of the quartic perturbation flips all four
    # coefficients positive, so the flat-space scan must fail
    cost = make_cost("z^2/2 + 0.05*z^4", 1.0)
    verdict, table = scan_table(cost, 0, 3)
    assert verdict.status == FAILS
    assert verdict.witness is not None
    assert min(verdict.min_slacks.values()) < 0.0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "FOUND: the scan grid is uniform in z = |l'(h)|; at D = 2 these costs have "
    "|l'(D)| of 2.4e9 to 2.4e12, so no grid point lies between h = 0 and h = 1.44 "
    "and the violation there is missed (-cosh(z) - 1e-6*cosh(20*z) reads A3w-only)"))
def test_scan_finds_the_violation_at_moderate_h():
    # the reference: classify on the profiles at z = |l'(h)| over a uniform
    # grid in h on [0, D], where the minima are -17.35, -47.11 and -13.37
    for text, K in [("-cosh(z) - 1e-6*cosh(20*z)", -1),
                    ("-log(1+cosh(z)) - 1e-9*cosh(20*z)", -1),
                    ("z^2/2 + 1e-6*cosh(20*z)", 0)]:
        cost = make_cost(text, 2.0)
        prof = coefficient_arrays(cost, K, np.abs(cost.lprime(np.linspace(0.0, 2.0, 4096))))
        reference = classify(prof["alpha"], prof["beta"], prof["gamma"], prof["delta"], 3,
                             band=prof["band"]).slack_min.min()
        verdict = scan_conditions(cost, K, 3, grid_points=65536)
        assert verdict.status == FAILS, text
        assert min(verdict.min_slacks.values()) == pytest.approx(reference, rel=0.01), text


def test_scan_table_columns():
    cost = preset("neg-cosh", 2.0)
    verdict, table = scan_table(cost, -1, 3, grid_points=512)
    assert verdict.status == A3S
    # z, every column coefficient_arrays returns (band, A' and B'' as gamma
    # among them), and slack_min
    keys = set(coefficient_arrays(cost, -1, [0.5]))
    assert {"band", "Aprime", "gamma"} <= keys
    assert set(table) == {"z", "slack_min"} | keys
    assert all(len(col) == 512 for col in table.values())
    assert table["z"][0] == 0.0 and table["z"][-1] == pytest.approx(cost.zmax)
    assert np.all(table["slack_min"] > 0.0)


def _full_grid_scan(cost, K, n, grid_points):
    """The scan as one pass over the whole grid, the reference for the fold:
    (status, witness, min_slacks, table)."""
    z = np.linspace(0.0, cost.zmax, grid_points)
    prof = coefficient_arrays(cost, K, z)
    band = prof["band"]
    alpha, beta, gamma, delta = (prof[k] for k in ("alpha", "beta", "gamma", "delta"))
    slacks = {"beta": -beta, "gamma": -gamma}
    if n > 2:
        slacks["delta"] = -delta
    defined = (beta <= band) & (gamma <= band)
    combo = 2.0 * np.sqrt(np.maximum(0.0, -beta)) * np.sqrt(np.maximum(0.0, -gamma)) \
        - (alpha + delta)
    stacked = np.vstack(list(slacks.values()) + [np.where(defined, combo, np.inf)])
    slack_min = stacked.min(axis=0)
    weak = defined & np.all(stacked >= -band, axis=0)
    strict = weak & np.all(stacked > np.maximum(STRICT_MARGIN, band), axis=0)
    status = FAILS if not np.all(weak) else A3S if np.all(strict) else A3W_ONLY
    min_slacks = {name: float(np.min(col)) for name, col in slacks.items()}
    if np.any(defined):
        min_slacks["combo"] = float(np.min(combo[defined]))
    table = {"z": z, **prof, "slack_min": slack_min}
    return status, float(z[int(np.argmin(slack_min))]), min_slacks, table


CHUNK_COSTS = [(name, K, D, eps) for name, K, D, eps, _ in SCAN_EXPECTATIONS] + [
    ("log(cosh(z))", -1, 2.0, None),  # h from the Newton inverse
    ("sq", -1, 2.0, None),  # beta > 0 everywhere: no point defines the combo
    ("z^2/2 + 0.1*z^4", 0, 1.0, None),  # 34 of 256 points define the combo
]


@pytest.mark.parametrize("chunk,grid", [(1000, 4096), (1, 256), (None, 8193)])
@pytest.mark.parametrize("name,K,D,eps", CHUNK_COSTS)
def test_chunked_scan_matches_full_grid(monkeypatch, chunk, grid, name, K, D, eps):
    if chunk is not None:
        monkeypatch.setattr(checker, "SCAN_CHUNK", chunk)
    cost = make_cost(name if eps is None else f"{name}({eps!r})", D)
    for n in (2, 3):
        status, witness, min_slacks, ref = _full_grid_scan(cost, K, n, grid)
        verdict, table = scan_table(cost, K, n, grid)
        assert set(table) == set(ref)
        for col in ref:
            # tobytes: np.array_equal would take -0.0 and 0.0 as equal
            assert table[col].tobytes() == ref[col].tobytes(), (col, n)
        assert verdict.status == status and verdict.witness == witness
        assert list(verdict.min_slacks) == list(min_slacks)
        for key, value in min_slacks.items():
            assert np.float64(verdict.min_slacks[key]).tobytes() == np.float64(value).tobytes()


@pytest.mark.parametrize("grid", [256, 257, 4096, 8193, 65536])
def test_grid_chunks_equal_linspace(monkeypatch, grid):
    rng = np.random.default_rng(grid)
    zmaxes = np.concatenate([[1.0, np.tanh(2.0), np.sinh(2.0), 5.0], rng.uniform(0.01, 50.0, 6)])
    for zmax in zmaxes:
        for chunk in (1, 1000, 8192) if grid <= 257 else (1000, 8192):
            monkeypatch.setattr(checker, "SCAN_CHUNK", chunk)
            for start in (0.0, zmax / grid):
                z = np.concatenate(list(_grid_chunks(start, zmax, grid)))
                assert z.tobytes() == np.linspace(start, zmax, grid).tobytes(), (zmax, chunk)


@pytest.mark.parametrize("start,stop,grid", [(0.0, 3.0, 1), (2.5, 2.5, 1), (1e-322 / 5, 1e-322, 5),
                                             (5e-324 / 7, 5e-324, 7), (0.0, 1e-320, 300)])
def test_grid_chunk_edge_cases_equal_linspace(monkeypatch, start, stop, grid):
    # one point, and a step that underflows to zero
    monkeypatch.setattr(checker, "SCAN_CHUNK", 2)
    z = np.concatenate(list(_grid_chunks(start, stop, grid)))
    assert z.tobytes() == np.linspace(start, stop, grid).tobytes()


def test_scan_weak_points_have_nonnegative_curvature():
    # wherever the scan reports a weak pass, sampling orthogonal pairs and
    # evaluating the closed formula must produce no materially negative value
    cost = preset("log-cosh", 2.0)
    form = SpaceForm(-1, 3)
    x = form.canonical_base()
    rng = np.random.default_rng(77)
    for z in (0.1, 0.45, 0.9):
        for _ in range(200):
            u, w = random_orthogonal_pair(form, x, rng)
            v = form.random_tangent(x, rng, unit=True) * z
            value = mtw_closed(profile_row(cost, form, v), form, u, v, w)
            assert value >= -1e-8


def test_scan_config_validation():
    with pytest.raises(ValueError, match="diameter must be finite and positive"):
        make_cost("z^2/2", -1.0)
    cost = make_cost("z^2/2", 1.0)
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        scan_conditions(cost, 0, 1)
    with pytest.raises(ValueError, match="grid_points must be at least 256"):
        scan_conditions(cost, 0, 3, grid_points=100)


def test_perturbation_quartic_profile_holds():
    f = parse_cost("-4*z^2")
    result = perturbation_check(f, -1.0, 1.0)
    assert result.holds and result.witness is None
    assert result.worst_lhs == pytest.approx(-8.0, abs=1e-9)


def test_perturbation_zero_profile_fails():
    result = perturbation_check(parse_cost("0"), -1.0, 1.0)
    assert not result.holds
    assert result.witness == pytest.approx(1.0 / 1024)


def test_perturbation_threshold_boundary():
    result = perturbation_check(parse_cost("-4*z^2"), -9.0, 1.0)
    assert not result.holds


@pytest.mark.parametrize("text,k", [("-4*z^2", -1.0), ("-4*z^2 + z^4", -3.0), ("0", -1.0)])
def test_chunked_perturbation_matches_one_pass(monkeypatch, text, k):
    # 2500 points in chunks of 1000, against one chunk of all of them: the
    # same witness (the first failing point) and the same worst LHS, bitwise.
    # -4*z^2 + z^4 first fails at k = -3 near z = 0.5, in the second chunk,
    # and has its worst LHS at z = 1, in the third
    f = parse_cost(text)
    monkeypatch.setattr(checker, "SCAN_CHUNK", 1000)
    chunked = perturbation_check(f, k, 1.0, grid_points=2500)
    monkeypatch.setattr(checker, "SCAN_CHUNK", 2500)
    one_pass = perturbation_check(f, k, 1.0, grid_points=2500)
    assert chunked.holds == one_pass.holds and chunked.witness == one_pass.witness
    assert np.float64(chunked.worst_lhs).tobytes() == np.float64(one_pass.worst_lhs).tobytes()


def test_perturbation_non_finite_lhs_raises():
    # e^(z^2) overflows beyond z = 26.6, where lhs2 is nan and nan >= k is
    # False: the check must not report "holds" there
    with np.errstate(all="ignore"), pytest.raises(NumericError) as err:
        perturbation_check(parse_cost("-exp(z^2)"), -1.0, 30.0)
    assert "non-finite perturbation LHS at z = 26.30859375" in str(err.value)


def test_perturbation_input_validation():
    f = parse_cost("-4*z^2")
    with pytest.raises(InputError, match="the threshold k must be finite and negative"):
        perturbation_check(f, 1.0, 1.0)
    with pytest.raises(InputError, match="the interval bound b must be finite and positive"):
        perturbation_check(f, -1.0, -1.0)


def test_quartic_coefficients_track_minus_eight_eps():
    eps = 1e-3
    cost = preset("quartic", 1.0, eps=eps)
    from mtwcheck.curvature import coefficient_arrays
    zmax = cost.zmax
    z = np.linspace(zmax / 200.0, zmax, 200)
    prof = coefficient_arrays(cost, 0, z)
    for key in ("alpha", "beta", "gamma", "delta"):
        rel = np.abs(prof[key] - (-8.0 * eps)) / (8.0 * eps)
        assert np.max(rel) < 0.10, key


@pytest.mark.parametrize("name,K", [("sq", 0), ("log-cosh", -1), ("neg-log-cosh", -1)])
def test_noise_sits_orders_below_band(name, K):
    # coefficients that vanish identically expose pure roundoff; the band
    # comment in curvature.py promises about 1.5 orders of headroom
    cost = preset(name, 2.0)
    z = np.linspace(0.0, cost.zmax, 65536)
    prof = coefficient_arrays(cost, K, z)
    band = prof["band"]
    for key in ("beta", "gamma", "delta"):
        ratio = float(np.max(np.abs(prof[key]) / band))
        assert ratio <= 10.0 ** -1.5, (name, key, ratio)


def _mixed_values(rng, size):
    """Seeded values from 1e-12 to 1e2 in magnitude, of either sign, with
    +0.0 and -0.0 at fixed places."""
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-12, 3, size)
    values[::17] = 0.0
    values[8::17] = -0.0
    return values


def _bitwise_equal(got, ref):
    # tobytes: np.array_equal would take -0.0 and 0.0 as equal
    return np.shape(got) == np.shape(ref) and np.asarray(got).tobytes() == np.asarray(ref).tobytes()


@pytest.mark.parametrize("array_band", [False, True], ids=["scalar-band", "array-band"])
@pytest.mark.parametrize("n", [2, 3])
def test_classify_equals_its_formulas_bitwise(n, array_band):
    # classify works in place; its docstring's formulas, out of place, must
    # give the same bits, and its inputs must come out unchanged
    size = 4096
    rng = np.random.default_rng(180 + 2 * n + array_band)
    alpha, beta, gamma, delta = (_mixed_values(rng, size) for _ in range(4))
    for row in (beta, gamma, delta):
        row[size // 4:] = -np.abs(row[size // 4:])
    band = np.abs(_mixed_values(rng, size)) if array_band else 3e-9
    at = np.broadcast_to(band, (size,))
    # slacks exactly at -band and at +band
    for i, row in enumerate((beta, gamma, delta)):
        row[i::23] = at[i::23]
        row[11 + i::29] = -at[11 + i::29]
    inputs = [c.copy() for c in (alpha, beta, gamma, delta)]
    got = classify(alpha, beta, gamma, delta, n, band=band)

    slacks = {"beta": -beta, "gamma": -gamma}
    if n > 2:
        slacks["delta"] = -delta
    defined = (beta <= band) & (gamma <= band)
    combo = np.where(defined, 2.0 * (np.sqrt(np.maximum(0.0, -beta))
                                     * np.sqrt(np.maximum(0.0, -gamma))) - (alpha + delta),
                     np.inf)
    slack_min = np.minimum(slacks["beta"], slacks["gamma"])
    if n > 2:
        slack_min = np.minimum(slack_min, slacks["delta"])
    slack_min = np.minimum(slack_min, combo)
    weak = defined & (slack_min >= -band)
    strict = weak & (slack_min > np.maximum(STRICT_MARGIN, band))

    assert list(got.slacks) == list(slacks)
    assert all(_bitwise_equal(got.slacks[key], slacks[key]) for key in slacks)
    for name, ref in (("combo", combo), ("slack_min", slack_min),
                      ("weak", weak), ("strict", strict)):
        assert _bitwise_equal(getattr(got, name), ref), name
    assert np.all(got.combo[~defined] == np.inf)
    # the boundary cases occur: weak at slack_min = -band, not strict at +band
    assert np.any(weak & (slack_min == -at)) and np.any(~strict & weak & (slack_min == at))
    assert np.any(weak) and np.any(~weak) and np.any(strict)
    # an array band lies on both sides of STRICT_MARGIN, and the margin alone
    # keeps some weak points above their band from being strict
    if array_band:
        assert np.any(at < STRICT_MARGIN) and np.any(at > STRICT_MARGIN)
        assert np.any(weak & ~strict & (slack_min > at))
    assert all(_bitwise_equal(c, ref) for c, ref in zip((alpha, beta, gamma, delta), inputs))


def test_noise_band_equals_its_formula_bitwise():
    size = 4096
    rng = np.random.default_rng(181)
    limit = 3e-5
    z = np.abs(_mixed_values(rng, size)) * 1e-2
    z[5::31] = limit
    A, B = _mixed_values(rng, size), _mixed_values(rng, size)
    profile = {"A": A, "B": B}
    inputs = [c.copy() for c in (z, A, B)]
    got = _noise_band(z, profile, limit)

    scale = np.maximum(1.0, np.maximum(np.abs(A), np.abs(B)))
    tiny = np.clip(np.minimum(1.0, np.abs(A)), 1e-3, 1.0)
    ref = np.where(z >= limit, _NOISE_BAND_COEFF * (scale / tiny) ** 3
                   * (1.0 + 1.0 / np.maximum(z, limit) ** 2), 1e-12 * scale)
    assert _bitwise_equal(got, ref)
    assert np.any(z < limit) and np.any(z > limit) and np.any(np.abs(A) < 1e-3)
    assert all(_bitwise_equal(c, ref) for c, ref in zip((z, A, B), inputs))


@pytest.mark.parametrize("name,K,D,eps", [case[:4] for case in SCAN_EXPECTATIONS])
def test_scan_leaves_its_chunk_tables_unchanged(name, K, D, eps):
    # each chunk's arrays are written in place while the chunk is built; the
    # tables on_chunk receives must keep their values after the scan
    cost = preset(name, D, eps=eps) if eps else preset(name, D)
    tables, copies = [], []

    def keep(table):
        tables.append(table)
        copies.append({key: col.copy() for key, col in table.items()})

    scan_conditions(cost, K, 3, 2 * checker.SCAN_CHUNK + 5, on_chunk=keep)
    assert len(tables) == 3
    for table, copy in zip(tables, copies):
        assert all(_bitwise_equal(table[key], copy[key]) for key in copy)

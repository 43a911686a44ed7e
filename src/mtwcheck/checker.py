"""Verdict logic: scan the coefficient inequalities over [0, |l'(D)|].

The weak condition holds on a space form iff beta, gamma <= 0 (plus delta <= 0
above dimension two) and alpha + delta <= 2*sqrt(beta*gamma) at every z in the
scan interval; strict versions of the same inequalities give the strong
condition.  The scan samples a dense uniform grid and reports per-condition
slacks (slack = -LHS, so nonnegative means the inequality holds).

Floating-point policy: alpha and beta divide cancelling differences by z^2, so
their computed values carry noise that grows like eps/z^2 as z -> 0.  The scan
therefore widens the pass/fail boundary by a per-point band of that shape.
Costs whose coefficients are identically zero then land in the boundary band
(weak, not strict) instead of flipping to "fails" on roundoff, while any
genuine violation dwarfs the band away from z = 0.  classify itself applies
no band unless one is passed in.

Each grid point is decided on its own, so the scan is one streaming fold over
chunks of SCAN_CHUNK consecutive grid points: a chunk is generated, profiled
and classified, then folded into the verdict, the per-condition minima and
the witness, and dropped.  Peak memory does not grow with the grid size, and
every value is bitwise the one a single full-grid pass gives.

A chunk allocates arrays of its own length only, and keeps none of them
past the next chunk: the grid z and h(z), the jet of l at h(z), the profile
columns (nine arrays, as gamma is B''), three for the noise band, and
classify's slack rows, combo row, slack_min and masks.  Jet products and
quotients accumulate into the coefficient they make, and the profiles, the
band and classify write each step into one of their own arrays, by out= or
augmented assignment, rather than into a fresh temporary per numpy call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .costs import eval_defined_jet
from .curvature import coefficient_arrays, series_limit
from .errors import InputError, NumericError

A3S = "A3s"
A3W_ONLY = "A3w-only"
FAILS = "fails"

# Multiple of machine epsilon for the roundoff band on the directly-evaluated
# part of the grid (z >= curvature.series_limit); measured pipeline noise
# sits about an order and a half below the resulting band.
_NOISE_BAND_COEFF = 500.0 * np.finfo(float).eps

# Grid points profiled and classified at once: the scan's working set is a
# few dozen arrays of this length, whatever the grid size.
SCAN_CHUNK = 8192


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: Optional[float]
    min_slacks: dict


@dataclass(frozen=True)
class Classification:
    """Per-point outcome of the inequality set (slack = -LHS of each <= 0).

    slacks maps each sign condition in force to its slack array: beta,
    gamma, and delta above dimension two.  combo = 2*sqrt(beta*gamma) -
    (alpha + delta) where combo_defined holds, and +inf elsewhere, so that
    it drops out of every minimum.  slack_min is the smallest slack of each
    point, taken over the defined conditions.
    """

    slacks: dict
    combo: np.ndarray
    combo_defined: np.ndarray
    slack_min: np.ndarray
    weak: np.ndarray
    strict: np.ndarray


def classify(alpha, beta, gamma, delta, n, *, band=0.0, strict_margin=1e-12):
    """Classify arrays of coefficient values against the set for dimension n.

    alpha..delta are arrays of one shape (a scalar counts as a length-1
    array), and band, the widening of the pass/fail boundary, is one more or
    a scalar.  Elementwise, and bitwise:

        slacks = -beta, -gamma [, -delta for n > 2]
        combo_defined = (beta <= band) & (gamma <= band)
        combo = where(combo_defined, 2 * (sqrt(maximum(0, -beta))
                      * sqrt(maximum(0, -gamma))) - (alpha + delta), inf)
        slack_min = minimum(... minimum(-beta, -gamma) ..., combo)
        weak = combo_defined & (slack_min >= -band)
        strict = weak & (slack_min > maximum(strict_margin, band))

    sqrt runs on the clamped negations so that roundoff-level positive
    values do not raise.  slack_min folds the rows in the order beta, gamma,
    [delta], combo: of two equal zeros of opposite sign np.minimum keeps the
    one the order gives.  Each step writes into an array made here.
    """
    alpha, beta, gamma, delta = (np.atleast_1d(np.asarray(c, dtype=float))
                                 for c in (alpha, beta, gamma, delta))
    slacks = {"beta": -beta, "gamma": -gamma}
    if n > 2:
        slacks["delta"] = -delta
    combo_defined = (beta <= band) & (gamma <= band)
    combo = np.maximum(0.0, slacks["beta"])
    np.sqrt(combo, out=combo)
    scratch = np.maximum(0.0, slacks["gamma"])
    combo *= np.sqrt(scratch, out=scratch)
    combo *= 2.0
    combo -= np.add(alpha, delta, out=scratch)
    # where the combo condition is undefined the point already fails on beta
    # or gamma, so exclude it from minima rather than propagating a sentinel
    np.copyto(combo, np.inf, where=~combo_defined)
    rows = list(slacks.values()) + [combo]
    slack_min = np.minimum(rows[0], rows[1])
    for row in rows[2:]:
        np.minimum(slack_min, row, out=slack_min)
    weak = combo_defined & (slack_min >= -band)
    strict = weak & (slack_min > np.maximum(strict_margin, band))
    return Classification(slacks, combo, combo_defined, slack_min, weak, strict)


def _noise_band(z, profile, limit):
    """Per-point widening of the pass/fail boundary; see the module docstring.

    limit is series_limit(cost, K), below which the profiles take the
    origin series.

    Two roundoff amplifiers shape the band on the direct branch: the division
    of cancelling differences by z^2, and the factor 1/l''^3 in A'' and B''
    (A = l''), which grows like (scale/|A|)^3 where l'' gets small.
    Series-branch points Horner-evaluate at h(z) the Taylor series in h of
    each quantity, in which the divisions by z and z^2 are exact shifts, so
    they carry no cancellation and only need an absolute floor at the
    roundoff scale.  Elementwise, and bitwise:

        scale = maximum(1, maximum(|A|, |B|))
        tiny = clip(minimum(1, |A|), 1e-3, 1)
        band = where(z >= limit, _NOISE_BAND_COEFF * (scale / tiny)**3
                     * (1 + 1 / maximum(z, limit)**2), 1e-12 * scale)

    Each step writes into one of three arrays made here.
    """
    tiny = np.abs(profile["A"])
    scale = np.abs(profile["B"])
    np.maximum(tiny, scale, out=scale)
    np.maximum(1.0, scale, out=scale)
    np.minimum(1.0, tiny, out=tiny)
    np.clip(tiny, 1e-3, 1.0, out=tiny)
    direct = np.divide(scale, tiny, out=tiny)
    np.power(direct, 3, out=direct)
    direct *= _NOISE_BAND_COEFF
    zterm = np.maximum(z, limit)
    np.square(zterm, out=zterm)
    np.divide(1.0, zterm, out=zterm)
    direct *= np.add(1.0, zterm, out=zterm)
    scale *= 1e-12
    np.copyto(scale, direct, where=z >= limit)
    return scale


def _grid_chunk(start, stop, grid_points, lo, hi):
    """Points lo..hi-1 of np.linspace(start, stop, grid_points), bitwise.

    linspace computes point i as i*step + start, with step = (stop - start)
    / (grid_points - 1), or as (i / (grid_points - 1)) * (stop - start) + start
    where that step underflows to 0, and sets the last point to stop when
    there are two points or more.
    """
    div = max(grid_points - 1, 1)
    delta = stop - start
    step = delta / div
    z = np.arange(lo, hi, dtype=float)
    z = np.multiply(z, step, out=z) if step != 0.0 else z / div * delta
    z += start
    if hi == grid_points > 1:
        z[-1] = stop
    return z


def scan_conditions(cost, K, dimension, grid_points=4096, strict_margin=1e-12, on_chunk=None):
    """Verdict over a uniform grid on [0, |l'(D)|], endpoints included.

    D is cost.diameter, and the grid has grid_points points, at least 256.
    The inequality set is the one of dimension n = dimension, at least 2,
    and strict_margin is the hurdle of the strict condition (see classify).
    The grid is scanned in chunks of SCAN_CHUNK consecutive points.  Each
    chunk is profiled and classified, then folded into the verdict (weak and
    strict at every point so far), the minimum of each condition's slack, the
    minimum combo slack over the points where it is defined, and the witness,
    the first grid point of smallest slack_min: a later chunk replaces it only
    with a strictly smaller slack.  When on_chunk is given, it is called with
    each chunk's table, in grid order, before the chunk is dropped; the table
    maps z, A, B, alpha, beta, gamma, delta and slack_min to arrays.
    """
    if dimension < 2:
        raise InputError("dimension must be at least 2")
    if grid_points < 256:
        raise InputError("grid_points must be at least 256")
    if not 0.0 <= strict_margin < math.inf:
        raise InputError(f"strict_margin must be finite and nonnegative, got {strict_margin!r}")

    zmax = cost.zmax
    weak = strict = True
    min_slacks = {}
    witness, witness_slack = None, None
    for lo in range(0, grid_points, SCAN_CHUNK):
        z = _grid_chunk(0.0, zmax, grid_points, lo, min(lo + SCAN_CHUNK, grid_points))
        prof = coefficient_arrays(cost, K, z)
        for name in ("alpha", "beta", "gamma", "delta"):
            if not np.all(np.isfinite(prof[name])):
                raise NumericError(f"non-finite {name} encountered during the scan")
        band = _noise_band(z, prof, series_limit(cost, K))
        c = classify(prof["alpha"], prof["beta"], prof["gamma"], prof["delta"], dimension,
                     band=band, strict_margin=strict_margin)

        weak = weak and bool(np.all(c.weak))
        strict = strict and bool(np.all(c.strict))
        chunk_mins = {name: np.min(col) for name, col in c.slacks.items()}
        if np.any(c.combo_defined):
            chunk_mins["combo"] = np.min(c.combo)
        for name, value in chunk_mins.items():
            min_slacks[name] = np.minimum(min_slacks.get(name, value), value)
        i = int(np.argmin(c.slack_min))
        if witness is None or c.slack_min[i] < witness_slack:
            witness, witness_slack = float(z[i]), c.slack_min[i]
        if on_chunk is not None:
            on_chunk({"z": z, "A": prof["A"], "B": prof["B"], "alpha": prof["alpha"],
                      "beta": prof["beta"], "gamma": prof["gamma"], "delta": prof["delta"],
                      "slack_min": c.slack_min})

    status = FAILS if not weak else A3S if strict else A3W_ONLY
    return Verdict(status=status, witness=witness,
                   min_slacks={name: float(v) for name, v in min_slacks.items()})


@dataclass(frozen=True)
class PerturbationResult:
    holds: bool
    witness: Optional[float]
    worst_lhs: float


def perturbation_check(f, k, b, grid_points=1024):
    """Check the two strict perturbation inequalities on (0, b].

    f is the AST of the perturbation profile; the conditions are
    f''(z) < k and (z^2 f'''(z) - z f''(z) + 2 f'(z))/z < k at every grid
    point of the uniform grid with left endpoint b/grid_points.  An f
    undefined there raises AdmissibilityError, and a non-finite LHS (an f
    that overflows, say) NumericError, naming the first such point.

    The grid, np.linspace(b/grid_points, b, grid_points), is checked in
    chunks of SCAN_CHUNK consecutive points, so peak memory does not grow
    with grid_points.  The witness is the first failing point and worst_lhs
    the maximum over the chunks, as in one pass over the whole grid.
    """
    if not -math.inf < k < 0.0:
        raise InputError(f"the threshold k must be finite and negative, got {k!r}")
    if not 0.0 < b < math.inf:
        raise InputError(f"the interval bound b must be finite and positive, got {b!r}")
    if grid_points < 1:
        raise InputError("grid_points must be positive")
    witness, worst = None, -math.inf
    for lo in range(0, grid_points, SCAN_CHUNK):
        z = _grid_chunk(b / grid_points, b, grid_points, lo, min(lo + SCAN_CHUNK, grid_points))
        jet = eval_defined_jet(f, z, 4, "the profile")
        fp = np.asarray(jet.derivative(1))
        fpp = np.asarray(jet.derivative(2))
        fppp = np.asarray(jet.derivative(3))
        lhs1 = fpp
        lhs2 = (z * z * fppp - z * fpp + 2.0 * fp) / z
        not_finite = ~(np.isfinite(lhs1) & np.isfinite(lhs2))
        if np.any(not_finite):
            raise NumericError(f"non-finite perturbation LHS at z = "
                               f"{float(z[not_finite][0])!r}")
        bad = (lhs1 >= k) | (lhs2 >= k)
        worst = np.maximum(worst, np.max(np.maximum(lhs1, lhs2)))
        if witness is None and np.any(bad):
            witness = float(z[bad][0])
    return PerturbationResult(witness is None, witness, float(worst))

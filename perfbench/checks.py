"""References for the benchmark's outputs, derived apart from the program.

Nothing here imports mtwcheck.  Each preset carries the paper's verdict and
the hand-derived coefficient functions alpha, beta, gamma, delta of z on
[0, |l'(D)|]; the checks compare what the CLI printed or wrote against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

A3S = "A3s"
A3W_ONLY = "A3w-only"

EPS = float(np.finfo(float).eps)

# Coefficients at a scan point carry roundoff that grows like eps/z^2 toward
# z -> 0 (cancelling differences divided by z^2).  At grid 65536 the largest
# measured error is 1.8e-7 at z = 1.2e-4, and 4e-11 for z > 0.01; this
# tolerance leaves a margin of more than five on every preset.
CSV_ABS_TOL = 1e-9
CSV_EPS_Z2_COEFF = 100.0

# Minimum slacks are coefficient values at one grid point, so they share the
# noise above; 1e-6 covers its worst case (1.3e-7) with room.
SLACK_TOL = 1e-6

# Route agreement, as pinned by acceptance criterion 3.
JACOBI_REL_TOL = 1e-8
ORACLE_REL_TOL = 5e-3


class CheckFailure(AssertionError):
    """An output that disagrees with its reference."""


@dataclass(frozen=True)
class Case:
    """One paper example: a cost l, its model space, and its references.

    profile(z) returns (alpha, beta, gamma, delta) as arrays.  approx is the
    relative tolerance when the closed form holds only to leading order
    (the quartic perturbation); None means exact up to roundoff.
    """

    preset: str
    expression: str
    K: int
    diameter: float
    verdict: str
    zmax: float
    profile: Callable
    approx: Optional[float] = None


def _constant(value):
    def profile(z):
        c = np.full_like(np.asarray(z, dtype=float), value)
        return c, c, c, c
    return profile


def _neg_cosh_profile(z):
    root = np.sqrt(1.0 + np.asarray(z, dtype=float) ** 2)
    return -root ** -3, -root ** -1, -root ** -3, -root ** -1


QUARTIC_EPS = 1e-3

# Verdicts: acceptance criterion 1 and the PRESETS catalog.  Profiles:
# acceptance criteria 2 (exact forms) and 6 (quartic, -8*eps within 10%).
CASES = (
    Case("sq", "z^2/2", 0, 5.0, A3W_ONLY, 5.0, _constant(0.0)),
    Case("neg-cosh", "-cosh(z)", -1, 2.0, A3S, math.sinh(2.0), _neg_cosh_profile),
    Case("neg-log1p-cosh", "-log(1+cosh(z))", -1, 2.0, A3S, math.tanh(1.0),
         _constant(-1.0)),
    Case("log-cosh", "log(cosh(z))", -1, 2.0, A3W_ONLY, math.tanh(2.0), _constant(0.0)),
    Case("neg-log-cosh", "-log(cosh(z))", -1, 2.0, A3W_ONLY, math.tanh(2.0),
         _constant(0.0)),
    Case("neg-log1p-cos", "-log(1+cos(z))", 1, 2.5, A3S, math.tan(1.25), _constant(-1.0)),
    Case(f"quartic({QUARTIC_EPS!r})", f"z^2/2 - {QUARTIC_EPS!r}*z^4", 0, 1.0, A3S,
         1.0 - 4.0 * QUARTIC_EPS, _constant(-8.0 * QUARTIC_EPS), approx=0.10),
)


def _fail(label, message):
    raise CheckFailure(f"{label}: {message}")


def expected_min_slacks(case, dimension, grid):
    """min over the scan grid of -beta, -gamma, (-delta), and the combo slack."""
    z = np.linspace(0.0, case.zmax, grid)
    alpha, beta, gamma, delta = case.profile(z)
    slacks = {"beta": -beta, "gamma": -gamma}
    if dimension > 2:
        slacks["delta"] = -delta
    slacks["combo"] = 2.0 * np.sqrt(beta * gamma) - (alpha + delta)
    return {name: float(np.min(values)) for name, values in slacks.items()}


def check_scan(label, case, dimension, grid, exit_code, report):
    """Verdict, exit code and min_slacks of one `check --json` report."""
    if report is None:
        _fail(label, f"no JSON report (exit {exit_code})")
    if report.get("verdict") != case.verdict:
        _fail(label, f"verdict {report.get('verdict')!r}, paper gives {case.verdict!r}")
    if exit_code != 0:
        _fail(label, f"exit {exit_code} for a verdict that holds")
    if report.get("grid") != grid or report.get("dimension") != dimension:
        _fail(label, "report echoes the wrong grid or dimension")
    got = report.get("min_slacks") or {}
    want = expected_min_slacks(case, dimension, grid)
    if set(got) != set(want):
        _fail(label, f"min_slacks keys {sorted(got)}, expected {sorted(want)}")
    for name, ref in want.items():
        tol = (case.approx * abs(ref) if case.approx is not None
               else SLACK_TOL * max(1.0, abs(ref)))
        if not abs(got[name] - ref) <= tol:
            _fail(label, f"min slack {name} = {got[name]!r}, closed form {ref!r}")


def read_csv_columns(path):
    """Header and float columns of a `check --csv` file."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def check_csv_columns(label, case, grid, columns):
    """Every z, alpha, beta, gamma, delta row against the hand-derived forms."""
    for name in ("z", "alpha", "beta", "gamma", "delta"):
        if name not in columns:
            _fail(label, f"CSV lacks column {name!r}")
        if columns[name].shape != (grid,):
            _fail(label, f"CSV column {name!r} has {columns[name].size} rows, expected {grid}")
    z = columns["z"]
    if not np.allclose(z, np.linspace(0.0, case.zmax, grid), rtol=1e-12, atol=1e-15):
        _fail(label, "CSV z column is not the uniform grid on [0, |l'(D)|]")
    refs = case.profile(z)
    if case.approx is not None:
        tol = case.approx * np.abs(refs[0])
    else:
        with np.errstate(divide="ignore"):
            tol = CSV_ABS_TOL + CSV_EPS_Z2_COEFF * EPS / (z * z)
        tol[z == 0.0] = CSV_ABS_TOL
    for name, ref in zip(("alpha", "beta", "gamma", "delta"), refs):
        err = np.abs(columns[name] - ref)
        bad = ~(err <= tol)
        if np.any(bad):
            i = int(np.argmax(bad))
            _fail(label, f"CSV {name} at z = {z[i]!r} is {columns[name][i]!r}, "
                         f"closed form {ref[i]!r}")


def check_routes(label, exit_code, report):
    """Closed, Jacobi and definitional-oracle values of one `eval --method all`."""
    if report is None or exit_code != 0:
        _fail(label, f"no JSON report (exit {exit_code})")
    values = report.get("values") or {}
    if set(values) != {"closed", "jacobi", "oracle"}:
        _fail(label, f"routes {sorted(values)}, expected closed, jacobi, oracle")
    if not all(math.isfinite(v) for v in values.values()):
        _fail(label, f"non-finite route value in {values}")
    closed = values["closed"]
    scale = max(1.0, abs(closed))
    if not abs(closed - values["jacobi"]) <= JACOBI_REL_TOL * scale:
        _fail(label, f"closed {closed!r} and jacobi {values['jacobi']!r} disagree")
    if not abs(closed - values["oracle"]) <= ORACLE_REL_TOL * scale:
        _fail(label, f"closed {closed!r} and oracle {values['oracle']!r} disagree")

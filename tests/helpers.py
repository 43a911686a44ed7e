"""Shared oracles and generators for the test suite."""

import contextlib
import io
import json
import math

import numpy as np

from mtwcheck.checker import _noise_band
from mtwcheck.cli import main
from mtwcheck.costs import eval_cost_jet, inverse_lprime
from mtwcheck.curvature import coefficient_arrays, series_limit
from mtwcheck.jets import ELEMENTARY_FUNCTIONS, Jet, _power_coeff, jet_compose


def central_derivative(f, x, order, h=0.05, points=9):
    """Central finite difference of f^(order) at x, in float64.

    Builds the stencil weights for the symmetric integer-offset grid by
    solving the moment system, so the result is exact for polynomials up to
    degree points-1.  Independent of the jet machinery on purpose.

    Two error terms bound it.  Truncation is about h^p * |f^(order+p)|, with
    p the even one of points-order and points+1-order: for the default 9
    points, h^8 * f^(order+8) for order 1, 2 and h^6 * f^(order+6) for
    order 3, 4.  Roundoff is about eps * |f| / h^order.  The helper is thus
    only a reference for smooth f far from any singularity, at a moderate h
    (h = 0.02 keeps the order-4 error below 1e-7 for cosh or exp at O(1)
    arguments).  Near a singularity the truncation term dominates; at a
    small h, for order 4, the roundoff term does.  Use a high-precision
    reference such as mpmath.diff there.
    """
    m = points // 2
    offsets = np.arange(-m, m + 1)
    rhs = np.zeros(points)
    rhs[order] = math.factorial(order)
    system = np.vander(offsets * h, points, increasing=True).T
    weights = np.linalg.solve(system, rhs)
    return float(sum(w * f(x + o * h) for w, o in zip(weights, offsets)))


def random_unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def model_violation(form, point):
    """Defect of the model constraint, relative to the point's magnitude."""
    c = np.asarray(point)
    scale = max(1.0, float(np.dot(c, c)))
    if form.curvature == 1:
        return abs(np.dot(c, c) - 1.0) / scale
    if form.curvature == -1:
        return abs(np.dot(c[:-1], c[:-1]) - c[-1] * c[-1] + 1.0) / scale
    return 0.0


def random_orthogonal_pair(form, base, rng):
    """Two nonzero tangent vectors at base with vanishing inner product."""
    u = form.random_tangent(base, rng, unit=True)
    w = form.random_tangent(base, rng)
    w = w - u * form.inner(w, u)
    n = form.norm(w)
    if n < 1e-8:
        return random_orthogonal_pair(form, base, rng)
    return u, w * (1.0 / n)


CANONICAL_CASES = [
    # (preset name, curvature, diameter, eps)
    ("sq", 0, 2.0, None),
    ("neg-cosh", -1, 2.0, None),
    ("neg-log1p-cosh", -1, 2.0, None),
    ("log-cosh", -1, 2.0, None),
    ("neg-log-cosh", -1, 2.0, None),
    ("neg-log1p-cos", 1, 2.5, None),
    ("quartic", 0, 1.0, 1e-3),
]

# (expression, curvature, diameter) of costs with a small l''(0): the radius
# in h of their origin series is far below the h(z) of most z < SERIES_SWITCH
SMALL_LPP_CASES = [("1e-6*z^2/2 + z^4", 0, 1.0), ("1e-4*z^2/2 + z^4", 0, 1.0)]


def cli_report(argv):
    """(exit code, JSON report or None) of one in-process CLI invocation.

    The report leaves out wall_time_ms, which no two runs share.
    """
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    text = stdout.getvalue().strip()
    report = json.loads(text) if text else None
    if report is not None:
        report.pop("wall_time_ms")
    return code, report


REFERENCE_DPS = 50


def revert(w):
    """Compositional inverse of a series with zero constant term.

    w must be a formal jet at 0 with w1 != 0; g has w's length L.  The
    inverse is found order by order: g1 = 1/w1 and, for n = 2..L-1,
    coefficient n of w(g(t)) = t gives

        g_n = -(sum_{k=2..n} w_k [t^n] g^k) / w_1,

    with the power table [t^n] g^k = sum_{j>=1} g_j [t^(n-j)] g^(k-1).  For
    k >= 2 that entry only involves g_1..g_(n-k+1), so column n of the table
    is complete before g_n is needed, and each g_n is exact given w_1..w_n.
    """
    c = w.coeffs
    length = len(c)
    g = [0.0, 1.0 / c[1]] if length > 1 else [0.0]
    # powers[k][n] = [t^n] g^k, filled column by column as g grows
    powers = [None, g] + [[0.0] * length for _ in range(2, length)]
    for n in range(2, length):
        acc = 0.0
        for k in range(2, n + 1):
            powers[k][n] = _power_coeff(g, powers[k - 1], k, n)
            acc = acc + c[k] * powers[k][n]
        g.append(-acc * g[1])
    return Jet(g)


def lprime_increment_series(ljet):
    """Formal series of l'(h0 + u) - l'(h0) from the jet of l at h0.

    The series has the jet's length L.  Its top coefficient would need order
    L of l and is set to zero.
    """
    c = ljet.coeffs
    coeffs = [0.0] + [(k + 1) * c[k + 1] for k in range(1, len(c) - 1)] + [0.0]
    return Jet(coeffs[:len(c)])


@contextlib.contextmanager
def _mpmath_functions(mpmath):
    """Swap the numpy column of jets.ELEMENTARY_FUNCTIONS for mpmath's functions."""
    saved = dict(ELEMENTARY_FUNCTIONS)
    try:
        for name, (_, compose) in saved.items():
            ELEMENTARY_FUNCTIONS[name] = (getattr(mpmath, name), compose)
        yield
    finally:
        ELEMENTARY_FUNCTIONS.update(saved)


def reference_profiles(cost, K, z):
    """The profile quantities at one z > 0, to 50 digits.

    The route is independent of the program's, on both of its branches: the
    order-6 jet of l at h0 = h(z), the series reversion of
    l'(h0 + u) - l'(h0) for the jet of h at z, then A = 1/h' and B = z C(h)
    as jets in z, with C = coth, 1/h or cot for K = -1, 0, +1.  It runs on mpmath numbers at
    REFERENCE_DPS digits, with mpmath's functions in place of numpy's in
    jets.ELEMENTARY_FUNCTIONS, at the float h0 that the program computes;
    so it measures the profile arithmetic, not the inverse of l'.  B is
    built, and alpha..delta divide, at zeff = l'(h0), the argument that h0
    inverts exactly.  Returns a dict of mpmath numbers.
    """
    import mpmath

    h0 = float(inverse_lprime(cost, z))
    with mpmath.mp.workdps(REFERENCE_DPS), _mpmath_functions(mpmath):
        ljet = eval_cost_jet(cost, mpmath.mpf(h0))
        zeff = ljet.coeffs[1]
        # the top coefficient of the reversion is not exact: drop it
        g = revert(lprime_increment_series(ljet))
        hjet = Jet((mpmath.mpf(h0),) + g.coeffs[1:6])
        a_jet = 1.0 / hjet.series_derivative()
        zjet = Jet((zeff, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        if K == -1:
            b_jet = zjet * jet_compose("cosh", hjet) / jet_compose("sinh", hjet)
        elif K == 0:
            b_jet = zjet / hjet
        else:
            b_jet = zjet * jet_compose("cos", hjet) / jet_compose("sin", hjet)
        A, Ap, Add = a_jet.coeffs[0], a_jet.coeffs[1], 2 * a_jet.coeffs[2]
        B, Bp, Bdd = b_jet.coeffs[0], b_jet.coeffs[1], 2 * b_jet.coeffs[2]
        amb = A - B
        zsq = zeff * zeff
        return {"A": A, "Aprime": Ap, "Adprime": Add, "B": B, "Bprime": Bp, "Bdprime": Bdd,
                "alpha": (zsq * Add + 6 * amb - 4 * zeff * (Ap - Bp)) / zsq,
                "beta": (zeff * Ap - 2 * amb) / zsq, "gamma": Bdd, "delta": Bp / zeff}


def reference_errors(cost, K, z):
    """Errors of coefficient_arrays at the points z > 0, against
    reference_profiles.  Maps each key to an array of errors: for A and B
    relative to max(1, |value|), for alpha..delta in units of the scan's
    noise band (checker._noise_band).

    A and B are not held to a purely relative bound below 1: l'' of
    log(cosh(z)) is 1/2 - tanh^2/2 in the cost's jet, which loses digits
    where it is small (up to 5e-15 relative at z = tanh 2), and no profile
    formula gets them back.
    """
    import mpmath

    z = np.asarray(z, dtype=float)
    prof = coefficient_arrays(cost, K, z)
    scale = {key: np.maximum(1.0, np.abs(prof[key])) for key in ("A", "B")}
    band = _noise_band(z, prof, series_limit(cost, K))
    errors = {key: np.empty_like(z) for key in ("A", "B", "alpha", "beta", "gamma", "delta")}
    for i, point in enumerate(z.tolist()):
        ref = reference_profiles(cost, K, point)
        for key, col in errors.items():
            error = float(abs(mpmath.mpf(float(prof[key][i])) - ref[key]))
            col[i] = error / (scale[key][i] if key in scale else band[i])
    return errors

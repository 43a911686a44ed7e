"""Radial cost functions l: construction, validation, presets, and h = (l')^-1.

A cost is admissible when l is even and l'' keeps one strict sign on [0, D];
under that assumption l' restricted to [0, D] is strictly monotone, so its
inverse h is well defined on [-|l'(D)|, |l'(D)|] and odd.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import AdmissibilityError, DomainError, InputError, NumericError
from .expressions import Expr, evaluate, evaluate_jet, parse_cost
from .jets import N_COEFFS, Jet

EVENNESS_TOL = 1e-10
SIGN_TOL = 1e-12

# relative residual and step limit of the Newton inverse of l'
_NEWTON_TOL = 1e-13
_NEWTON_STEPS = 200


@dataclass(frozen=True)
class CostFunction:
    """A radial cost l, admissible on its working interval [0, diameter].

    Construction parses text into expression, makes diameter a float and
    checks admissibility (_check_admissibility), so a CostFunction that
    exists is admissible.  It sets zmax = |l'(diameter)|, the radius of the
    invertible range of l', and lprime_sign, the sign of l''(0), which l''
    keeps on [0, diameter] and, since l' is odd, l' keeps on (0, diameter].
    analytic_inverse, when present, is a vectorized closed form for h.
    """

    text: str
    diameter: float
    analytic_inverse: Optional[Callable] = None
    expression: Expr = field(init=False, repr=False, compare=False)
    zmax: float = field(init=False, repr=False, compare=False)
    lprime_sign: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "expression", parse_cost(self.text))
        object.__setattr__(self, "diameter", float(self.diameter))
        if not 0.0 < self.diameter < math.inf:
            raise InputError(f"diameter must be finite and positive, got {self.diameter!r}")
        sign, lprime_at_diameter = _check_admissibility(self)
        object.__setattr__(self, "lprime_sign", sign)
        object.__setattr__(self, "zmax", abs(float(lprime_at_diameter)))

    def __call__(self, z):
        """l(z) by expressions.evaluate, apart from the jets; the oracle reads l here."""
        return evaluate(self.expression, z)

    def lprime(self, z):
        return derivative_arrays(self, z, 1)[0]


def eval_cost_jet(cost, z0, length=N_COEFFS):
    """Jet of l at z0 (scalar or array), of the given length (order 6 by
    default).  An l undefined at z0 is not an admissible cost."""
    return eval_defined_jet(cost.expression, z0, length, f"cost {cost.text!r}")


def derivative_arrays(cost, t, order):
    """[l'(t), .., l^(order)(t)], each a new array of t's shape (a numpy
    scalar on a 0-d t): l^(k) = k! c_k of the jet of l at t, whose length
    order + 1 gives c_1 .. c_order bitwise as at full length.  A coefficient
    that does not depend on t (c_2 of z^2/2, say) is a float, broadcast here.
    """
    coeffs = eval_cost_jet(cost, t, order + 1).coeffs
    return [np.multiply(coeffs[k], math.factorial(k), out=np.empty(np.shape(t)))[()]
            for k in range(1, order + 1)]


def eval_defined_jet(expression, z0, length, what):
    """Jet of an expression at z0 (scalar or array), of the given length, by
    structural recursion over the AST.

    Where it cannot be evaluated, with its derivatives, AdmissibilityError
    names what is evaluated (a cost, say) and the first such z.
    """
    try:
        return evaluate_jet(expression, Jet.variable(z0, length))
    except DomainError:
        for point in np.atleast_1d(z0).tolist():
            try:
                evaluate_jet(expression, Jet.variable(point, length))
            except DomainError as exc:
                raise AdmissibilityError(
                    "undefined", point,
                    f"{what} is undefined at z = {point!r} ({exc})") from None
        raise


def _check_admissibility(cost):
    """Check evenness of l and the constant sign of l'' on [0, diameter];
    return the sign of l''(0), +1 or -1, and l'(diameter).

    Evenness: the odd Taylor coefficients at 0 must be within EVENNESS_TOL of
    max(1, |l''(0)|/2), and l(z)-l(-z) must vanish at sampled points.  Sign:
    on a uniform 256-point grid, l' and l'' must be finite, l'' must stay
    away from zero and keep the sign it has at 0, and that sign times l'
    must not decrease from one grid point to the next.  The grid's last
    point is the diameter itself, so l'(diameter) is read off its l'.
    At a diameter below 255 times the smallest normal float the grid's
    step is subnormal, and linspace can round a point past the diameter;
    the grid is clamped to it.
    A violation raises AdmissibilityError(kind, witness), with witness the
    first offending argument; so does an l that is undefined at a point it
    is evaluated at.
    """
    jet0 = [float(c) for c in eval_cost_jet(cost, 0.0).coeffs]
    scale = max(1.0, max(abs(c) for c in jet0))
    # judged against c2 = l''(0)/2, not the largest coefficient: the origin
    # series of the profiles drop the orders of A - B that c1 and c3 make,
    # next to the l''(0) they divide by
    if any(abs(jet0[k]) > EVENNESS_TOL * max(1.0, abs(jet0[2])) for k in (1, 3, 5)):
        raise AdmissibilityError("not-even", 0.0)
    sign = 1 if jet0[2] >= 0.0 else -1
    zs = np.linspace(cost.diameter / 8.0, cost.diameter, 8)
    # l at zs and -zs in one call; a cost without z gives one float for all
    lz = np.empty(16)
    # where l is undefined numpy gives nan, which passes here; the jet check
    # below names the first such point, so numpy's warning is not wanted
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        lz[:] = cost(np.concatenate((zs, -zs)))
        diff = np.abs(lz[:8] - lz[8:])
    bad = diff > 1e-12 * np.maximum(1.0, np.abs(lz[:8]))
    if bad.any():
        raise AdmissibilityError("not-even", float(zs[bad][0]))

    grid = np.linspace(0.0, cost.diameter, 256)
    np.minimum(grid, cost.diameter, out=grid)
    # an overflow is reported below, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        lprime, lpp = derivative_arrays(cost, grid, 2)
        # one test of the union of the four kinds that _raise_first_violation
        # tells apart: l' and l'' finite, sign * l'' above SIGN_TOL * scale
        # (neither near zero nor of the wrong sign), sign * l' not dropping
        rising = sign * lprime
        admissible = np.isfinite(lprime) & np.isfinite(lpp) & (sign * lpp > SIGN_TOL * scale)
        admissible[1:] &= rising[1:] >= rising[:-1]
    if not admissible.all():
        _raise_first_violation(grid, lprime, lpp, sign, scale)
    return sign, lprime[-1]


def _raise_first_violation(grid, lprime, lpp, sign, scale):
    """Raise AdmissibilityError for the first kind of violation that the
    grid shows, in this order, at its first grid point."""
    not_finite = ~(np.isfinite(lprime) & np.isfinite(lpp))
    if not_finite.any():
        raise AdmissibilityError("not-finite", float(grid[not_finite][0]))
    near_zero = np.abs(lpp) <= SIGN_TOL * scale
    if near_zero.any():
        raise AdmissibilityError("lpp-zero", float(grid[near_zero][0]))
    wrong_sign = lpp * sign < 0.0
    if wrong_sign.any():
        raise AdmissibilityError("lpp-sign-change", float(grid[wrong_sign][0]))
    # sign * l'' > 0 makes sign * l' increase, so a drop between two samples
    # is a pole or a sign change of l'' that the samples missed
    drops = np.diff(sign * lprime) < 0.0
    raise AdmissibilityError("lprime-not-monotone", float(grid[:-1][drops][0]))


def in_lprime_range(cost, y):
    """Whether every |y| is at most |l'(D)|, up to roundoff: where
    inverse_lprime accepts y."""
    return not (np.abs(y) > cost.zmax * (1.0 + 1e-9) + 1e-15).any()


def inverse_lprime(cost, y):
    """h(y): the value with l'(h(y)) = y, for each y in_lprime_range accepts.

    Uses the analytic inverse when the cost carries one, otherwise
    bisection-bracketed Newton on [0, D] applied to min(|y|, |l'(D)|), with
    the sign restored afterwards so that h is odd exactly.
    """
    y_arr = np.asarray(y, dtype=float)
    if not in_lprime_range(cost, y_arr):
        worst = float(np.max(np.abs(y_arr)))
        raise InputError(f"|y| = {worst} exceeds |l'(D)| = {cost.zmax}")
    if cost.analytic_inverse is not None:
        out = cost.analytic_inverse(y_arr)
    else:
        targets = np.minimum(np.abs(y_arr), cost.zmax)
        out = np.sign(y_arr) * cost.lprime_sign * _newton_inverse(cost, targets)
    return out if isinstance(y, np.ndarray) else float(out)


def _newton_inverse(cost, targets):
    """Solve sign * l'(t) = target for t in [0, D], for an array or a scalar
    of targets in [0, |l'(D)|].

    g(t) = lprime_sign * l'(t) increases from 0 to |l'(D)| on [0, D]; Newton
    steps are kept inside a maintained bracket, falling back to bisection.
    Each step evaluates l' and l'' at every point, and a point within
    _NEWTON_TOL of its target, relative, keeps its iterate from then on: a
    target of 0 stops at its start t = 0, and a point's result does not
    depend on the other points of the batch.
    """
    d = cost.diameter
    x = np.clip(d * targets / cost.zmax, 0.0, d)
    lo, hi = 0.0, d
    tol = _NEWTON_TOL * targets
    for _ in range(_NEWTON_STEPS):
        lprime, lpp = derivative_arrays(cost, x, 2)
        f = cost.lprime_sign * lprime - targets
        done = np.abs(f) <= tol
        if done.all():
            break
        hi = np.where(f > 0.0, x, hi)
        lo = np.where(f <= 0.0, x, lo)
        gp = cost.lprime_sign * lpp
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(gp != 0.0, f / gp, np.inf)
        candidate = x - step
        inside = (candidate > lo) & (candidate < hi)
        x = np.where(done, x, np.where(inside, candidate, 0.5 * (lo + hi)))
    else:
        final = cost.lprime_sign * derivative_arrays(cost, x, 1)[0]
        if (np.abs(final - targets) > 1e-12 * np.maximum(1.0, targets)).any():
            raise NumericError("Newton inverse of l' did not converge")
    return x


def _h_sq(y):
    return y + 0.0


def _h_neg_cosh(y):
    return -np.arcsinh(y)


def _h_neg_log1p_cosh(y):
    return -2.0 * np.arctanh(y)


def _h_log_cosh(y):
    return np.arctanh(y)


def _h_neg_log_cosh(y):
    return -np.arctanh(y)


def _h_neg_log1p_cos(y):
    return 2.0 * np.arctan(y)


@dataclass(frozen=True)
class _QuarticInverse:
    """h of l = z^2/2 - eps*z^4; two of one eps are equal, as are their costs."""
    eps: float

    def __call__(self, y):
        # Root of 4*eps*h^3 - h + y = 0 continuously connected to h = y at eps = 0,
        # by the trigonometric solution of the depressed cubic (three real roots
        # whenever 27*eps*y^2 < 1, which admissibility guarantees): with
        # a = 3*sqrt(3*eps)*y, it is sin(asin(a)/3) / sqrt(3*eps), exact for
        # every |a| <= 1 and keeping the digits of a tiny a.  Two Newton steps
        # polish the root to machine-relative precision.
        eps, root3eps = self.eps, np.sqrt(3.0 * self.eps)
        root = np.sin(np.arcsin(np.clip(3.0 * root3eps * y, -1.0, 1.0)) / 3.0) / root3eps
        for _ in range(2):
            root = root - (root - 4.0 * eps * root ** 3 - y) / (1.0 - 12.0 * eps * root ** 2)
        return root


@dataclass(frozen=True)
class PresetInfo:
    text: str
    curvatures: tuple
    verdict_note: str
    # quartic's inverse depends on EPS: make_cost builds it as _QuarticInverse
    analytic_inverse: Optional[Callable]


PRESETS = {
    "sq": PresetInfo("z^2/2", (-1, 0, 1), "A3w-only at K=0 (all coefficients zero)", _h_sq),
    "neg-cosh": PresetInfo("-cosh(z)", (-1,), "A3s at K=-1", _h_neg_cosh),
    "neg-log1p-cosh": PresetInfo("-log(1+cosh(z))", (-1,), "A3s at K=-1", _h_neg_log1p_cosh),
    "log-cosh": PresetInfo("log(cosh(z))", (-1,), "A3w-only at K=-1", _h_log_cosh),
    "neg-log-cosh": PresetInfo("-log(cosh(z))", (-1,), "A3w-only at K=-1", _h_neg_log_cosh),
    "neg-log1p-cos": PresetInfo("-log(1+cos(z))", (1,), "A3s at K=+1", _h_neg_log1p_cos),
    "quartic": PresetInfo("z^2/2 - EPS*z^4", (0,),
                          "A3s at K=0 for small EPS (perturbation family)", None),
}

DEFAULT_QUARTIC_EPS = 1e-3


def make_cost(text, diameter):
    """The CostFunction on [0, diameter] that cost text names, surrounding
    whitespace stripped: a preset name, quartic(eps), or an expression in z.

    Only a preset carries an analytic inverse.  quartic(eps) is the quartic
    preset with eps, a number's text, in place of DEFAULT_QUARTIC_EPS; where
    l'' = 1 - 12*eps*z^2 reaches 0 on [0, D] it is not admissible.  Raises
    AdmissibilityError where l is not admissible on [0, diameter].
    """
    text = text.strip()
    quartic = re.fullmatch(r"quartic(?:\(([^)]*)\))?", text)
    if quartic:
        eps = quartic.group(1)
        try:
            value = DEFAULT_QUARTIC_EPS if eps is None else float(eps)
        except ValueError:
            value = math.nan
        if not 0.0 < value < math.inf:
            raise InputError(f"quartic eps must be finite and positive, got {eps!r}")
        return CostFunction(f"z^2/2 - {value!r}*z^4", diameter, _QuarticInverse(value))
    if text in PRESETS:
        return CostFunction(PRESETS[text].text, diameter, PRESETS[text].analytic_inverse)
    return CostFunction(text, diameter)

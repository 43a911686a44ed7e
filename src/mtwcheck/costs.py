"""Radial cost functions l: construction, validation, presets, and h = (l')^-1.

A cost is admissible when l is even and l'' keeps one strict sign on [0, D];
under that assumption l' restricted to [0, D] is strictly monotone, so its
inverse h is well defined on [-|l'(D)|, |l'(D)|] and odd.
"""

from __future__ import annotations

import math
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

    Construction checks admissibility (_check_admissibility), so a
    CostFunction that exists is admissible, and sets two attributes: zmax =
    |l'(diameter)|, the radius of the invertible range of l', and
    lprime_sign, the sign of l''(0), which l'' keeps on [0, diameter] and,
    since l' is odd, l' keeps on (0, diameter].  analytic_inverse, when
    present, is a vectorized closed form for h.
    """

    expression: Expr
    text: str
    diameter: float
    analytic_inverse: Optional[Callable] = None
    name: Optional[str] = None
    zmax: float = field(init=False, repr=False, compare=False)
    lprime_sign: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.diameter < math.inf:
            raise InputError(f"diameter must be finite and positive, got {self.diameter!r}")
        object.__setattr__(self, "lprime_sign", _check_admissibility(self))
        with np.errstate(over="ignore", invalid="ignore"):
            object.__setattr__(self, "zmax", abs(float(self.lprime(self.diameter))))

    def __call__(self, z):
        return evaluate(self.expression, z)

    def lprime(self, z):
        # l' is coefficient 1: a jet of length 2 gives it bitwise as at full length
        return eval_cost_jet(self, z, 2).derivative(1)


def eval_cost_jet(cost, z0, length=N_COEFFS):
    """Jet of l at z0 (scalar or array), of the given length (order 6 by
    default).  An l undefined at z0 is not an admissible cost."""
    return eval_defined_jet(cost.expression, z0, length, f"cost {cost.text!r}")


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
    return the sign of l''(0), +1 or -1.

    Evenness: the odd Taylor coefficients at 0 must be within EVENNESS_TOL of
    max(1, |l''(0)|/2), and l(z)-l(-z) must vanish at sampled points.  Sign:
    on a uniform 256-point grid, l' and l'' must be finite, l'' must stay
    away from zero and keep the sign it has at 0, and that sign times l'
    must not decrease from one grid point to the next.
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
    # where l is undefined numpy gives nan, which passes here; the jet check
    # below names the first such point, so numpy's warning is not wanted
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        lz = cost(zs)
        diff = np.abs(lz - cost(-zs))
    bad = diff > 1e-12 * np.maximum(1.0, np.abs(lz))
    if np.any(bad):
        raise AdmissibilityError("not-even", float(zs[bad][0]))

    grid = np.linspace(0.0, cost.diameter, 256)
    # l' and l'' are coefficients 1 and 2: a jet of length 3 gives them
    # bitwise as at full length; an overflow is reported below, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        jet = eval_cost_jet(cost, grid, 3)
    # a coefficient that does not depend on z (l = 0, say) is a scalar
    lprime = np.broadcast_to(jet.coeffs[1], grid.shape)
    lpp = 2.0 * np.broadcast_to(jet.coeffs[2], grid.shape)
    not_finite = ~(np.isfinite(lprime) & np.isfinite(lpp))
    if np.any(not_finite):
        raise AdmissibilityError("not-finite", float(grid[not_finite][0]))
    near_zero = np.abs(lpp) <= SIGN_TOL * scale
    if np.any(near_zero):
        raise AdmissibilityError("lpp-zero", float(grid[near_zero][0]))
    wrong_sign = lpp * sign < 0.0
    if np.any(wrong_sign):
        raise AdmissibilityError("lpp-sign-change", float(grid[wrong_sign][0]))
    # sign * l'' > 0 makes sign * l' increase, so a drop between two samples
    # is a pole or a sign change of l'' that the samples missed
    drops = np.diff(sign * lprime) < 0.0
    if np.any(drops):
        raise AdmissibilityError("lprime-not-monotone", float(grid[:-1][drops][0]))
    return sign


def make_cost(text, diameter, analytic_inverse=None, name=None):
    """Parse expression text into a CostFunction on [0, diameter], which
    raises AdmissibilityError where l is not admissible there."""
    return CostFunction(expression=parse_cost(text), text=text.strip(),
                        diameter=float(diameter), analytic_inverse=analytic_inverse,
                        name=name)


def in_lprime_range(cost, y):
    """Whether every |y| is at most |l'(D)|, up to roundoff: where
    inverse_lprime accepts y."""
    return not np.any(np.abs(y) > cost.zmax * (1.0 + 1e-9) + 1e-15)


def inverse_lprime(cost, y):
    """h(y): the value with l'(h(y)) = y, for |y| <= |l'(D)|.

    Uses the analytic inverse when the cost carries one, otherwise
    bisection-bracketed Newton on [0, D] applied to |y|, with the sign
    restored afterwards so that h is odd exactly.
    """
    y_arr = np.asarray(y, dtype=float)
    if not in_lprime_range(cost, y_arr):
        worst = float(np.max(np.abs(y_arr)))
        raise InputError(f"|y| = {worst} exceeds |l'(D)| = {cost.zmax}")
    if cost.analytic_inverse is not None:
        out = cost.analytic_inverse(y_arr)
    else:
        out = np.sign(y_arr) * cost.lprime_sign * _newton_inverse(cost, np.abs(y_arr))
    return out if isinstance(y, np.ndarray) else float(out)


def _newton_inverse(cost, targets):
    """Solve sign * l'(t) = target for t in [0, D], vectorized.

    g(t) = lprime_sign * l'(t) increases from 0 to |l'(D)| on [0, D]; Newton
    steps are kept inside a maintained bracket, falling back to bisection.
    Each point stops at its first iterate within _NEWTON_TOL of its target,
    relative, so a target of 0 stops at its start t = 0.  Only the points
    still moving are evaluated, so a point's result does not depend on the
    other points of the batch.
    """
    shape = np.shape(targets)
    targets = np.ravel(targets)
    d = cost.diameter
    x = np.clip(d * targets / cost.zmax, 0.0, d)
    lo = np.zeros_like(targets)
    hi = np.full_like(targets, d)
    tol = _NEWTON_TOL * targets
    moving = np.arange(targets.size)
    for _ in range(_NEWTON_STEPS):
        xm = x[moving]
        # l' and l'' are coefficients 1 and 2: a jet of length 3 gives them
        # bitwise as at full length
        jet = eval_cost_jet(cost, xm, 3)
        f = cost.lprime_sign * np.asarray(jet.coeffs[1]) - targets[moving]
        keep = ~(np.abs(f) <= tol[moving])
        if not np.any(keep):
            break
        moving, xm, f = moving[keep], xm[keep], f[keep]
        # l'' is a scalar when it does not depend on z (l = z, say)
        gp = cost.lprime_sign * 2.0 * np.broadcast_to(jet.coeffs[2], keep.shape)[keep]
        hi[moving] = np.where(f > 0.0, xm, hi[moving])
        lo[moving] = np.where(f <= 0.0, xm, lo[moving])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(gp != 0.0, f / gp, np.inf)
        candidate = xm - step
        inside = (candidate > lo[moving]) & (candidate < hi[moving])
        x[moving] = np.where(inside, candidate, 0.5 * (lo[moving] + hi[moving]))
    else:
        final = cost.lprime_sign * np.asarray(eval_cost_jet(cost, x[moving], 2).coeffs[1])
        ends = targets[moving]
        if np.any(np.abs(final - ends) > 1e-12 * np.maximum(1.0, ends)):
            raise NumericError("Newton inverse of l' did not converge")
    return x.reshape(shape)


def _h_sq(y):
    return np.asarray(y, dtype=float) + 0.0


def _h_neg_cosh(y):
    return -np.arcsinh(np.asarray(y, dtype=float))


def _h_neg_log1p_cosh(y):
    return -2.0 * np.arctanh(np.asarray(y, dtype=float))


def _h_log_cosh(y):
    return np.arctanh(np.asarray(y, dtype=float))


def _h_neg_log_cosh(y):
    return -np.arctanh(np.asarray(y, dtype=float))


def _h_neg_log1p_cos(y):
    return 2.0 * np.arctan(np.asarray(y, dtype=float))


def _make_h_quartic(eps):
    # Root of 4*eps*h^3 - h + y = 0 continuously connected to h = y at eps = 0,
    # by the trigonometric solution of the depressed cubic (three real roots
    # whenever 27*eps*y^2 < 1, which admissibility guarantees): with
    # a = 3*sqrt(3*eps)*y, it is cos(acos(-a)/3 - 2*pi/3) / sqrt(3*eps).
    # acos(-a) rounds away the digits of a below 1e-16, so for |a| < 1e-8
    # (every y, for a tiny eps) the start is its equal sin(asin(a)/3) /
    # sqrt(3*eps), which keeps them.  Two Newton steps polish the root to
    # machine-relative precision; float64 Newton can stop at either of two
    # neighbours of the root, so where the cosine start keeps its digits it
    # stays, and h keeps its bits.
    root3eps = np.sqrt(3.0 * eps)

    def h(y):
        y = np.asarray(y, dtype=float)
        a = np.clip(3.0 * root3eps * y, -1.0, 1.0)
        root = np.where(np.abs(a) < 1e-8, np.sin(np.arcsin(a) / 3.0),
                        np.cos(np.arccos(-a) / 3.0 - 2.0 * np.pi / 3.0)) / root3eps
        for _ in range(2):
            root = root - (root - 4.0 * eps * root ** 3 - y) / (1.0 - 12.0 * eps * root ** 2)
        return root

    return h


@dataclass(frozen=True)
class PresetInfo:
    text: str
    curvatures: tuple
    verdict_note: str
    # quartic's inverse depends on EPS: preset() builds it with _make_h_quartic
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


def preset(name, diameter, eps=None):
    """Instantiate a preset cost on [0, diameter].

    The quartic family takes the perturbation size through eps (default 1e-3)
    and requires 12*eps*D^2 < 1 so that l'' stays positive on [0, D].
    """
    if name == "quartic":
        eps = DEFAULT_QUARTIC_EPS if eps is None else float(eps)
        if not 0.0 < eps < math.inf:
            raise InputError(f"quartic eps must be finite and positive, got {eps!r}")
        if 12.0 * eps * diameter * diameter >= 1.0:
            raise InputError("quartic preset needs 12*eps*D^2 < 1 for admissibility")
        text = f"z^2/2 - {eps!r}*z^4"
        return make_cost(text, diameter, analytic_inverse=_make_h_quartic(eps),
                         name=f"quartic({eps!r})")
    if name not in PRESETS:
        raise InputError(f"unknown preset {name!r}; known: {', '.join(sorted(PRESETS))}")
    if eps is not None:
        raise InputError("eps applies only to the quartic preset")
    info = PRESETS[name]
    return make_cost(info.text, diameter, analytic_inverse=info.analytic_inverse, name=name)

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

from .errors import (AdmissibilityError, ConvergenceFailure, DegenerateJetError, DomainError,
                     OutOfRangeError)
from .expressions import Expr, evaluate, evaluate_jet, parse_cost, pretty
from .jets import N_COEFFS, Jet

EVENNESS_TOL = 1e-10
SIGN_TOL = 1e-12


def check_diameter(diameter):
    """Reject a working diameter that is not a finite positive number."""
    if not 0.0 < diameter < math.inf:
        raise ValueError(f"diameter must be finite and positive, got {diameter!r}")


@dataclass(frozen=True)
class CostFunction:
    """A radial cost l with its working interval [0, diameter].

    analytic_inverse, when present, is a vectorized closed form for h.
    Nothing is evaluated at construction: validate_admissibility checks l
    on [0, diameter].
    """

    expression: Expr
    text: str
    diameter: float
    analytic_inverse: Optional[Callable] = None
    name: Optional[str] = None
    # memos of zmax and lprime_sign; plain properties rather than
    # functools.cached_property, which would bypass wrappers installed on them
    _zmax: Optional[float] = field(default=None, init=False, repr=False, compare=False)
    _lprime_sign: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_diameter(self.diameter)

    def __call__(self, z):
        return evaluate(self.expression, z)

    def lprime(self, z):
        # l' is coefficient 1: a jet of length 2 gives it bitwise as at full length
        return eval_cost_jet(self, z, 2).derivative(1)

    @property
    def zmax(self):
        """|l'(diameter)|: the radius of the invertible range of l'.

        Computed on first access; the fields it depends on are frozen.  An
        l' that is not finite at the diameter (it overflows, say) raises
        AdmissibilityError.
        """
        if self._zmax is None:
            with np.errstate(over="ignore", invalid="ignore"):
                zmax = abs(float(self.lprime(self.diameter)))
            if not math.isfinite(zmax):
                raise AdmissibilityError(
                    "not-finite", self.diameter,
                    f"cost {self.text!r} has a non-finite l' at z = {self.diameter!r}")
            object.__setattr__(self, "_zmax", zmax)
        return self._zmax

    @property
    def lprime_sign(self):
        """The sign of l''(0): +1, or -1 when l''(0) < 0.

        On an admissible cost l'' keeps this sign on all of [0, diameter],
        which validate_admissibility checks on its grid; since l' is odd, it
        is then also the sign of l' on (0, diameter].  Computed on first
        access, from a jet of length 3 at 0.
        """
        if self._lprime_sign is None:
            lpp0 = float(eval_cost_jet(self, 0.0, 3).coeffs[2])
            object.__setattr__(self, "_lprime_sign", 1 if lpp0 >= 0.0 else -1)
        return self._lprime_sign


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
    except (DomainError, DegenerateJetError):
        for point in np.atleast_1d(z0).tolist():
            try:
                evaluate_jet(expression, Jet.variable(point, length))
            except (DomainError, DegenerateJetError) as exc:
                raise AdmissibilityError(
                    "undefined", point,
                    f"{what} is undefined at z = {point!r} ({exc})") from None
        raise


def validate_admissibility(cost):
    """Check evenness of l and the constant sign of l'' on [0, diameter].

    Evenness: odd-order Taylor coefficients at 0 must vanish, and l(z)-l(-z)
    must vanish at sampled points.  Sign: on a uniform 256-point grid, l' and
    l'' must be finite, l'' must stay away from zero and keep the sign it has
    at 0 (cost.lprime_sign), and lprime_sign * l' must not decrease from one
    grid point to the next.
    A violation raises AdmissibilityError(kind, witness), with witness the
    first offending argument; so does an l that is undefined at a point it
    is evaluated at.
    """
    jet0 = eval_cost_jet(cost, 0.0)
    scale = max(1.0, max(abs(float(c)) for c in jet0.coeffs))
    for k in (1, 3, 5):
        if abs(float(jet0.coeffs[k])) > EVENNESS_TOL * scale:
            raise AdmissibilityError("not-even", 0.0)
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
    wrong_sign = lpp * cost.lprime_sign < 0.0
    if np.any(wrong_sign):
        raise AdmissibilityError("lpp-sign-change", float(grid[wrong_sign][0]))
    # sign * l'' > 0 makes sign * l' increase, so a drop between two samples
    # is a pole or a sign change of l'' that the samples missed
    drops = np.diff(cost.lprime_sign * lprime) < 0.0
    if np.any(drops):
        raise AdmissibilityError("lprime-not-monotone", float(grid[:-1][drops][0]))


def make_cost(text_or_expr, diameter, analytic_inverse=None, name=None):
    """Build a CostFunction from expression text or an AST.

    l is not evaluated here; the sign of l'' is read from l''(0) when first
    needed (CostFunction.lprime_sign).
    """
    if isinstance(text_or_expr, str):
        expression = parse_cost(text_or_expr)
        text = text_or_expr.strip()
    else:
        expression = text_or_expr
        text = pretty(expression)
    return CostFunction(expression=expression, text=text, diameter=float(diameter),
                        analytic_inverse=analytic_inverse, name=name)


def inverse_lprime(cost, y):
    """h(y): the value with l'(h(y)) = y, for |y| <= |l'(D)|.

    Uses the analytic inverse when the cost carries one, otherwise
    bisection-bracketed Newton on [0, D] applied to |y|, with the sign
    restored afterwards so that h is odd exactly.
    """
    y_arr = np.asarray(y, dtype=float)
    zmax = cost.zmax
    if np.any(np.abs(y_arr) > zmax * (1.0 + 1e-9) + 1e-15):
        worst = float(np.max(np.abs(y_arr)))
        raise OutOfRangeError(f"|y| = {worst} exceeds |l'(D)| = {zmax}")
    if cost.analytic_inverse is not None:
        out = cost.analytic_inverse(y_arr)
    else:
        out = np.sign(y_arr) * cost.lprime_sign * _newton_inverse(cost, np.abs(y_arr))
    return out if isinstance(y, np.ndarray) else float(out)


def _newton_inverse(cost, targets, residual_tol=1e-13, max_iter=200):
    """Solve sign * l'(t) = target for t in [0, D], vectorized.

    g(t) = lprime_sign * l'(t) increases from 0 to |l'(D)| on [0, D]; Newton
    steps are kept inside a maintained bracket, falling back to bisection.
    Each point stops at its first iterate within residual_tol, and only the
    points still moving are evaluated, so a point's result does not depend
    on the other points of the batch.
    """
    shape = np.shape(targets)
    targets = np.ravel(targets)
    d = cost.diameter
    x = np.clip(d * targets / cost.zmax, 0.0, d)
    lo = np.zeros_like(targets)
    hi = np.full_like(targets, d)
    tol = residual_tol * np.maximum(1.0, targets)
    moving = np.arange(targets.size)
    for _ in range(max_iter):
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
            raise ConvergenceFailure("Newton inverse of l' did not converge")
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
    # whenever 27*eps*y^2 < 1, which admissibility guarantees).  The cosine
    # passes through its zero at y = 0, costing absolute accuracy there, so
    # two Newton steps polish the root to machine-relative precision.
    root3eps = np.sqrt(3.0 * eps)

    def h(y):
        y = np.asarray(y, dtype=float)
        phi = np.arccos(np.clip(-3.0 * root3eps * y, -1.0, 1.0))
        root = np.cos(phi / 3.0 - 2.0 * np.pi / 3.0) / root3eps
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
            raise ValueError(f"quartic eps must be finite and positive, got {eps!r}")
        if 12.0 * eps * diameter * diameter >= 1.0:
            raise ValueError("quartic preset needs 12*eps*D^2 < 1 for admissibility")
        text = f"z^2/2 - {eps!r}*z^4"
        return make_cost(text, diameter, analytic_inverse=_make_h_quartic(eps),
                         name=f"quartic({eps!r})")
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {', '.join(sorted(PRESETS))}")
    if eps is not None:
        raise ValueError("eps applies only to the quartic preset")
    info = PRESETS[name]
    return make_cost(info.text, diameter, analytic_inverse=info.analytic_inverse, name=name)

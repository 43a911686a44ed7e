"""Explicit constant-curvature models and their geometric primitives.

K = -1 is the hyperboloid sheet <p,p> = -1, last coordinate positive, in
Minkowski space with signature (+,...,+,-); K = +1 is the unit sphere; K = 0
is Euclidean space.  All maps are closed-form, so they serve as ground truth
for the definitional curvature oracle.

Points and tangent vectors are float64 arrays of ambient coordinates.  A
tangent vector does not carry its base point: every map that needs one
takes it as an argument, as in exp_map(x, v).  SpaceForm.point and
SpaceForm.tangent check outside input against the model constraints and
return the array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import inverse_lprime
from .errors import InputError, NumericError

MODEL_TOL = 1e-10
CLAMP_SLACK = 1e-12
ZERO_TANGENT = 1e-9
# 2^-511, the least |v| that SpaceForm.speed takes: below it |v|^2 is subnormal
MIN_SPEED = math.sqrt(np.finfo(float).tiny)

# (cos_K, sin_K) of the curved models: the geodesic from x with unit velocity
# e is cos_K(t) x + sin_K(t) e, and its velocity -K sin_K(t) x + cos_K(t) e.
_TRIG = {1: (math.cos, math.sin), -1: (math.cosh, math.sinh)}


@dataclass(frozen=True)
class SpaceForm:
    """Model space of curvature K in {-1, 0, +1} and dimension n >= 2."""

    curvature: int
    dimension: int

    def __post_init__(self):
        if self.curvature not in (-1, 0, 1):
            raise InputError("curvature must be -1, 0, or +1")
        if self.dimension < 2:
            raise InputError("dimension must be at least 2")

    @property
    def ambient_dimension(self):
        return self.dimension if self.curvature == 0 else self.dimension + 1

    def inner(self, a, b):
        """Ambient inner product: Minkowski for K = -1, Euclidean otherwise.

        On tangent vectors at a common base point it is the Riemannian one.
        """
        if self.curvature == -1:
            return float(np.dot(a[:-1], b[:-1]) - a[-1] * b[-1])
        return float(np.dot(a, b))

    def point(self, coords):
        """Validated point of the model from ambient coordinates."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.ambient_dimension,):
            raise InputError(f"expected {self.ambient_dimension} ambient coordinates")
        model = {1: "unit sphere", -1: "unit hyperboloid"}.get(self.curvature)
        if model and abs(self.inner(coords, coords) - self.curvature) > MODEL_TOL:
            raise InputError(f"point is not on the {model}")
        if self.curvature == -1 and coords[-1] <= 0.0:
            raise InputError("point is on the wrong hyperboloid sheet")
        return coords

    def tangent(self, x, components):
        """Validated tangent vector at the point x."""
        components = np.asarray(components, dtype=float)
        if components.shape != (self.ambient_dimension,):
            raise InputError(f"expected {self.ambient_dimension} ambient components")
        if self.curvature != 0:
            pairing = self.inner(x, components)
            scale = max(1.0, float(np.max(np.abs(components))))
            if abs(pairing) > MODEL_TOL * scale:
                raise InputError("vector is not tangent to the model at x")
        return components

    def project_point(self, raw):
        """Nearest model point to raw ambient coordinates."""
        raw = np.asarray(raw, dtype=float)
        if self.curvature == 0:
            return raw.copy()
        if self.curvature == 1:
            return raw / np.linalg.norm(raw)
        spatial = raw[:-1]
        return np.append(spatial, math.sqrt(1.0 + float(np.dot(spatial, spatial))))

    def project_tangent(self, x, raw):
        """Orthogonal projection of raw ambient components onto T_x."""
        raw = np.asarray(raw, dtype=float)
        if self.curvature == 0:
            return raw.copy()
        return raw - (self.curvature * self.inner(x, raw)) * x

    def norm(self, v):
        return math.sqrt(max(0.0, self.inner(v, v)))

    def speed(self, v):
        """|v| for the curvature routes, which divide by |v|^2: at least MIN_SPEED."""
        vv = self.inner(v, v)
        if not vv >= MIN_SPEED ** 2:
            size = self.norm(np.ldexp(v, 600)) * 2.0 ** -600
            raise InputError(f"v must be nonzero, |v| >= {MIN_SPEED!r}; got |v| = {size!r}")
        return math.sqrt(vv)

    def exp_map(self, x, v):
        """Geodesic exponential at x of the tangent vector v."""
        r = self.norm(v)
        if r < ZERO_TANGENT:
            return x.copy()
        if self.curvature == 0:
            return x + v
        if self.curvature == 1 and r >= math.pi:
            raise InputError(f"|v| = {r} reaches the sphere cut locus")
        cos, sin = _TRIG[self.curvature]
        return cos(r) * x + sin(r) * (v / r)

    def distance(self, x, y):
        """Geodesic distance from ambient inner products."""
        if self.curvature == 0:
            return float(np.linalg.norm(y - x))
        c = self.inner(x, y)
        if self.curvature == 1:
            if abs(c) > 1.0 + CLAMP_SLACK:
                raise InputError(f"sphere inner product {c} outside [-1, 1]")
            return math.acos(min(1.0, max(-1.0, c)))
        m = -c
        if m < 1.0 - CLAMP_SLACK:
            raise InputError(f"hyperboloid pairing {m} below 1")
        return math.acosh(max(1.0, m))

    def log_map(self, x, y):
        """Initial velocity at x of the minimizing geodesic from x to y."""
        if self.curvature == 0:
            return y - x
        # the chord c decides: at y = x, d reads up to 4e-8 where the pairing
        # rounds across 1.  Below c = 1, d is 2 asin(c/2) or 2 asinh(c/2), as
        # distance's acos or acosh keeps about 8 digits near d = 0; above it,
        # d is distance's, as c loses digits at long range on the hyperboloid
        chord = self.norm(y - x)
        if chord < ZERO_TANGENT:
            return np.zeros(self.ambient_dimension)
        arc = math.asin if self.curvature == 1 else math.asinh
        d = 2.0 * arc(0.5 * chord) if chord < 1.0 else self.distance(x, y)
        if self.curvature == 1 and self.inner(x, y) <= -1.0 + CLAMP_SLACK:
            raise InputError("points are antipodal on the sphere")
        w = self.project_tangent(x, y)
        return (d / self.norm(w)) * w

    def parallel_transport(self, x, v, y):
        """Transport v from x to y along the minimizing geodesic."""
        if self.curvature == 0:
            return v.copy()
        xi = self.log_map(x, y)
        d = self.norm(xi)
        if d < ZERO_TANGENT:
            return self.project_tangent(y, v)
        e = xi / d
        vt = self.inner(v, e)
        cos, sin = _TRIG[self.curvature]
        # v's component along e turns with the geodesic's velocity
        return (v - vt * e) + vt * (cos(d) * e - (self.curvature * sin(d)) * x)

    def curvature_action(self, a, b):
        """R(a, b)a = K(|a|^2 b - <a, b> a), for a and b at a common base point."""
        if self.curvature == 0:
            return np.zeros(self.ambient_dimension)
        aa = self.inner(a, a)
        ab = self.inner(a, b)
        return self.curvature * (aa * b - ab * a)

    def canonical_base(self):
        """Origin (K=0), north pole (K=+1), or hyperboloid apex (K=-1)."""
        coords = np.zeros(self.ambient_dimension)
        if self.curvature != 0:
            coords[-1] = 1.0
        return coords

    def frame_tangent(self, intrinsic):
        """Tangent vector at canonical_base() from its canonical frame components.

        The frame is the first n ambient coordinate directions, which are
        tangent at the canonical base point.
        """
        intrinsic = np.asarray(intrinsic, dtype=float)
        if intrinsic.shape != (self.dimension,):
            raise InputError(f"expected {self.dimension} frame components")
        if self.curvature == 0:
            return intrinsic.copy()
        return np.append(intrinsic, 0.0)

    def random_point(self, rng):
        """Gaussian ambient draw projected to the model."""
        return self.project_point(rng.standard_normal(self.ambient_dimension))

    def random_tangent(self, x, rng, unit=False):
        """Gaussian ambient draw projected onto the tangent space at x."""
        v = self.project_tangent(x, rng.standard_normal(self.ambient_dimension))
        if unit:
            n = self.norm(v)
            if n < 1e-12:
                return self.random_tangent(x, rng, unit=True)
            v = v * (1.0 / n)
        return v


def cost_exp(cost, form, x, v):
    """Cost exponential at x: exp of v rescaled to length |h(|v|)|, sign of h.

    The zero tangent maps to x (h(0) = 0); exp_map's own ZERO_TANGENT test
    acts on the rescaled vector, whose length is |h(|v|)|, not |v|.
    """
    s = form.norm(v)
    if s == 0.0:
        return x.copy()
    return form.exp_map(x, v * (inverse_lprime(cost, s) / s))


def minus_grad_x_cost(cost, form, x, y):
    """-d/dx of l(d(x, y)) as a tangent vector at x: (l'(d)/d) log_x(y)."""
    u = form.log_map(x, y)
    d = form.norm(u)
    if d < ZERO_TANGENT:
        return np.zeros(form.ambient_dimension)
    lp = float(cost.lprime(d))
    return u * (lp / d)


def orthonormal_tangent_frame(form, x, first=None):
    """Orthonormal basis of the tangent space at x.

    When `first` is given, the frame starts with first/|first|; the rest is
    built by Gram-Schmidt over projected ambient coordinate directions.
    """
    frame = []
    if first is not None:
        n = form.norm(first)
        if n < 1e-14:
            raise InputError("cannot start a frame with a zero vector")
        frame.append(first * (1.0 / n))
    for i in range(form.ambient_dimension):
        if len(frame) == form.dimension:
            break
        raw = np.zeros(form.ambient_dimension)
        raw[i] = 1.0
        cand = form.project_tangent(x, raw)
        for e in frame:
            cand = cand - e * form.inner(cand, e)
        n = form.norm(cand)
        if n > 1e-8:
            frame.append(cand * (1.0 / n))
    if len(frame) != form.dimension:
        raise NumericError("failed to complete an orthonormal tangent frame")
    return frame

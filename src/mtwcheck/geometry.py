"""Explicit constant-curvature models and their geometric primitives.

K = -1 is the hyperboloid sheet <p,p> = -1, last coordinate positive, in
Minkowski space with signature (+,...,+,-); K = +1 is the unit sphere; K = 0
is Euclidean space.  All maps are closed-form, so they serve as ground truth
for the definitional curvature oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import inverse_lprime
from .errors import (CutLocusError, GeometryError, InjectivityRadiusError,
                     ZeroVectorError)

MODEL_TOL = 1e-10
CLAMP_SLACK = 1e-12
ZERO_TANGENT = 1e-9


@dataclass(frozen=True, eq=False)
class Point:
    coords: np.ndarray

    def __repr__(self):
        return f"Point({np.array2string(self.coords, precision=6)})"


@dataclass(frozen=True, eq=False)
class TangentVector:
    base: Point
    components: np.ndarray

    def _check_base(self, other):
        # vectors built at one Point share the object; compare only distinct ones
        if other.base is not self.base and not np.allclose(self.base.coords,
                                                           other.base.coords, atol=1e-9):
            raise GeometryError("tangent vectors have different base points")

    def __add__(self, other):
        self._check_base(other)
        return TangentVector(self.base, self.components + other.components)

    def __sub__(self, other):
        self._check_base(other)
        return TangentVector(self.base, self.components - other.components)

    def __mul__(self, scalar):
        return TangentVector(self.base, self.components * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return TangentVector(self.base, -self.components)

    def __repr__(self):
        return f"TangentVector({np.array2string(self.components, precision=6)})"


@dataclass(frozen=True)
class SpaceForm:
    """Model space of curvature K in {-1, 0, +1} and dimension n >= 2."""

    curvature: int
    dimension: int

    def __post_init__(self):
        if self.curvature not in (-1, 0, 1):
            raise ValueError("curvature must be -1, 0, or +1")
        if self.dimension < 2:
            raise ValueError("dimension must be at least 2")

    @property
    def ambient_dimension(self):
        return self.dimension if self.curvature == 0 else self.dimension + 1

    def _ambient_inner(self, a, b):
        if self.curvature == -1:
            return float(np.dot(a[:-1], b[:-1]) - a[-1] * b[-1])
        return float(np.dot(a, b))

    def point(self, coords):
        """Validated point of the model from ambient coordinates."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.ambient_dimension,):
            raise GeometryError(f"expected {self.ambient_dimension} ambient coordinates")
        if self.curvature == 1:
            if abs(self._ambient_inner(coords, coords) - 1.0) > MODEL_TOL:
                raise GeometryError("point is not on the unit sphere")
        elif self.curvature == -1:
            if abs(self._ambient_inner(coords, coords) + 1.0) > MODEL_TOL:
                raise GeometryError("point is not on the unit hyperboloid")
            if coords[-1] <= 0.0:
                raise GeometryError("point is on the wrong hyperboloid sheet")
        return Point(coords)

    def tangent(self, base, components):
        """Validated tangent vector at base."""
        components = np.asarray(components, dtype=float)
        if components.shape != (self.ambient_dimension,):
            raise GeometryError(f"expected {self.ambient_dimension} ambient components")
        if self.curvature != 0:
            pairing = self._ambient_inner(base.coords, components)
            scale = max(1.0, float(np.max(np.abs(components))))
            if abs(pairing) > MODEL_TOL * scale:
                raise GeometryError("vector is not tangent to the model at base")
        return TangentVector(base, components)

    def project_point(self, raw):
        """Nearest model point to raw ambient coordinates."""
        raw = np.asarray(raw, dtype=float)
        if self.curvature == 0:
            return Point(raw.copy())
        if self.curvature == 1:
            return Point(raw / np.linalg.norm(raw))
        spatial = raw[:-1]
        return Point(np.append(spatial, math.sqrt(1.0 + float(np.dot(spatial, spatial)))))

    def project_tangent(self, base, raw):
        """Orthogonal projection of raw ambient components onto T_base."""
        raw = np.asarray(raw, dtype=float)
        p = base.coords
        if self.curvature == 0:
            comp = raw.copy()
        elif self.curvature == 1:
            comp = raw - np.dot(p, raw) * p
        else:
            comp = raw + self._ambient_inner(p, raw) * p
        return TangentVector(base, comp)

    def inner(self, u, v):
        """Riemannian inner product of tangent vectors at a shared base."""
        u._check_base(v)
        return self._ambient_inner(u.components, v.components)

    def norm(self, v):
        return math.sqrt(max(0.0, self._ambient_inner(v.components, v.components)))

    def exp_map(self, v):
        """Geodesic exponential of a tangent vector."""
        r = self.norm(v)
        p = v.base.coords
        if r < ZERO_TANGENT:
            return Point(p.copy())
        if self.curvature == 0:
            return Point(p + v.components)
        direction = v.components / r
        if self.curvature == 1:
            if r >= math.pi:
                raise InjectivityRadiusError(f"|v| = {r} reaches the sphere cut locus")
            return Point(math.cos(r) * p + math.sin(r) * direction)
        return Point(math.cosh(r) * p + math.sinh(r) * direction)

    def distance(self, x, y):
        """Geodesic distance from ambient inner products."""
        if self.curvature == 0:
            return float(np.linalg.norm(y.coords - x.coords))
        c = self._ambient_inner(x.coords, y.coords)
        if self.curvature == 1:
            if abs(c) > 1.0 + CLAMP_SLACK:
                raise GeometryError(f"sphere inner product {c} outside [-1, 1]")
            return math.acos(min(1.0, max(-1.0, c)))
        m = -c
        if m < 1.0 - CLAMP_SLACK:
            raise GeometryError(f"hyperboloid pairing {m} below 1")
        return math.acosh(max(1.0, m))

    def log_map(self, x, y):
        """Initial velocity of the minimizing geodesic from x to y."""
        if self.curvature == 0:
            return TangentVector(x, y.coords - x.coords)
        d = self.distance(x, y)
        if d < ZERO_TANGENT:
            return TangentVector(x, np.zeros(self.ambient_dimension))
        c = self._ambient_inner(x.coords, y.coords)
        if self.curvature == 1:
            if c <= -1.0 + CLAMP_SLACK:
                raise CutLocusError("points are antipodal on the sphere")
            w = y.coords - c * x.coords
        else:
            w = y.coords + c * x.coords
        wnorm = math.sqrt(max(0.0, self._ambient_inner(w, w)))
        return TangentVector(x, (d / wnorm) * w)

    def parallel_transport(self, v, to):
        """Transport v along the minimizing geodesic from its base to `to`."""
        x = v.base
        if self.curvature == 0:
            return TangentVector(to, v.components.copy())
        xi = self.log_map(x, to)
        d = self.norm(xi)
        if d < ZERO_TANGENT:
            return self.project_tangent(to, v.components)
        e = xi.components / d
        vt = self._ambient_inner(v.components, e)
        vperp = v.components - vt * e
        if self.curvature == 1:
            e_at_to = math.cos(d) * e - math.sin(d) * x.coords
        else:
            e_at_to = math.cosh(d) * e + math.sinh(d) * x.coords
        return TangentVector(to, vperp + vt * e_at_to)

    def curvature_action(self, a, b):
        """R(a, b)a = K(|a|^2 b - <a, b> a), at the common base point."""
        a._check_base(b)
        if self.curvature == 0:
            return TangentVector(a.base, np.zeros(self.ambient_dimension))
        aa = self._ambient_inner(a.components, a.components)
        ab = self._ambient_inner(a.components, b.components)
        comps = self.curvature * (aa * b.components - ab * a.components)
        return TangentVector(a.base, comps)

    def canonical_base(self):
        """Origin (K=0), north pole (K=+1), or hyperboloid apex (K=-1)."""
        if self.curvature == 0:
            return Point(np.zeros(self.dimension))
        coords = np.zeros(self.dimension + 1)
        coords[-1] = 1.0
        return self.point(coords)

    def frame_tangent(self, base, intrinsic):
        """Tangent vector from components in the canonical orthonormal frame.

        Only defined at the canonical base point, where the frame is the
        first n ambient coordinate directions.
        """
        intrinsic = np.asarray(intrinsic, dtype=float)
        if intrinsic.shape != (self.dimension,):
            raise GeometryError(f"expected {self.dimension} frame components")
        if self.curvature == 0:
            return TangentVector(base, intrinsic.copy())
        return self.tangent(base, np.append(intrinsic, 0.0))

    def random_point(self, rng):
        """Gaussian ambient draw projected to the model."""
        return self.project_point(rng.standard_normal(self.ambient_dimension))

    def random_tangent(self, base, rng, unit=False):
        """Gaussian ambient draw projected onto the tangent space at base."""
        v = self.project_tangent(base, rng.standard_normal(self.ambient_dimension))
        if unit:
            n = self.norm(v)
            if n < 1e-12:
                return self.random_tangent(base, rng, unit=True)
            v = v * (1.0 / n)
        return v


def cost_exp(cost, form, v):
    """Cost exponential: exp at v rescaled to length |h(|v|)|, sign of h.

    Near-zero tangents short-circuit to the base point (h(0) = 0).
    """
    s = form.norm(v)
    if s < ZERO_TANGENT:
        return Point(v.base.coords.copy())
    hv = inverse_lprime(cost, s)
    return form.exp_map(v * (hv / s))


def minus_grad_x_cost(cost, form, x, y):
    """-d/dx of l(d(x, y)) as a tangent vector at x: (l'(d)/d) log_x(y)."""
    u = form.log_map(x, y)
    d = form.norm(u)
    if d < ZERO_TANGENT:
        return TangentVector(x, np.zeros(form.ambient_dimension))
    lp = float(cost.lprime(d))
    return u * (lp / d)


def orthonormal_tangent_frame(form, base, first=None):
    """Orthonormal basis of the tangent space at base.

    When `first` is given, the frame starts with first/|first|; the rest is
    built by Gram-Schmidt over projected ambient coordinate directions.
    """
    frame = []
    if first is not None:
        n = form.norm(first)
        if n < 1e-14:
            raise ZeroVectorError("cannot start a frame with a zero vector")
        frame.append(first * (1.0 / n))
    for i in range(form.ambient_dimension):
        if len(frame) == form.dimension:
            break
        raw = np.zeros(form.ambient_dimension)
        raw[i] = 1.0
        cand = form.project_tangent(base, raw)
        for e in frame:
            cand = cand - e * form.inner(cand, e)
        n = form.norm(cand)
        if n > 1e-8:
            frame.append(cand * (1.0 / n))
    if len(frame) != form.dimension:
        raise GeometryError("failed to complete an orthonormal tangent frame")
    return frame

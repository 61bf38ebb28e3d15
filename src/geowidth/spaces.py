"""Concrete locally compact CAT(0) model spaces.

Four models share one interface:

* ``EuclideanSpace(n)`` -- points are length-n float vectors;
* ``HyperbolicPlane`` -- hyperboloid sheet x0^2 - x1^2 - x2^2 = 1, x0 > 0;
* ``MetricTree`` -- a finite simplicial tree with positive edge lengths;
* ``CayleyTree(rank)`` -- the (infinite) Cayley tree of the free group of
  the given rank with unit edge lengths; vertices are reduced words.

Each model owns its behaviour: ``dist``, ``geodesic_point`` and
``random_point``; its JSON form and that of its points (``to_json``,
``point_to_json``, ``point_from_json``, and ``space_from_json``, which
turns a JSON ``"model"`` into its class); the local minimiser that
harmonic relaxation runs at a vertex with a loop or with other than two
edges (``local_min(y0, point_terms, iso_terms)``, whose solver constants
are module constants); and the precondition of the
width-constant estimator (``check_not_boundary_fixing``: on the hyperbolic
plane and the Cayley tree, one search for two hyperbolic elements with no
common fixed end).  An operation a model does not support raises
``CapabilityError``.  The two tree models are rooted (a finite tree at its
first vertex, a Cayley tree at e) and share one distance, one geodesic walk
along root paths and one relaxation minimiser, a descent walk; each supplies
heights, lowest common ancestors and the neighbours of a point.  A finite
tree answers its root-path queries in O(log V) steps over a heavy-path
decomposition (Sleator & Tarjan), so a distance or geodesic point costs
O(log V) however deep the tree is.

Points are checked once, where they enter.  The public ``dist`` and
``geodesic_point`` check their points (and t), then delegate to the trusted
kernels ``_dist`` and ``_geodesic_point``, which run on values the library
already holds: the defect functionals check each input point once and then
call only the kernels, as do the library's own callers (map measurement,
homotopies, widths, relaxation, orbit distances).
``_geodesic_points(p, q, ts)`` is ``_geodesic_point`` at each t, bit for
bit, doing once what does not depend on t; the comparison sweep uses it.
Each model supplies ``_span``, ``_step`` and ``_track_lengths`` (d(x_t,
y_t) along two geodesics, no point built), and ``Space`` owns the
endpoint rules, in ``_walk``.  The check is the model's ``_check_point``:
``validate_point`` on the tree models and Euclidean space, type and shape
only on the hyperbolic plane, whose isometry images drift off the sheet in
the last digits.  Tree points come from one trusted constructor per tree
model, ``_edge_point``; the public ``edge_point`` checks through
``validate_point`` first.  The hyperbolic kernels and local solver run on
Python floats, with numpy's operations in the same order; an isometry acts on
a point only through ``_h_act`` on its four matrix entries, so the objective
that the local solver descends is ``local_value``, bit for bit.

JSON forms::

    space:  {"model": "euclidean", "dim": n}
            {"model": "hyperbolic"}
            {"model": "tree", "vertices": [...], "edges": [{"a","b","len"}]}
            {"model": "cayley", "rank": n}
    point:  {"model": "euclidean", "coords": [...]}
            {"model": "hyperbolic", "coords": [x0, x1, x2]}
            {"model": "tree", "vertex": id} | {"model": "tree", "edge": k, "offset": o}
            {"model": "cayley", "word": "ab"} | {..., "letter": "a", "t": 0.3}

On top of the interface the module provides the comparison-inequality
defect functionals (triangle comparison, quadrilateral comparison,
distance convexity).  Defects are signed: nonnegative means the inequality
holds.
``comparison_sweep`` gives one quadruple's triangle defect and its
quadrilateral and convexity defects over a grid, bit for bit as the
per-call functions give them, from one check of each point, one
measurement of each of the six sides, and one P_t, Q_t and d(P_t, Q_t) per
t; it and the per-call functions share one formula per defect.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import words
from .errors import CapabilityError, DomainError, InvalidPointError, ModelMismatchError, PreconditionError

TOL = 1e-9

INNER_TOLERANCE = 1e-12  # hyperbolic local_min: least relative decrease
ARMIJO_BACKTRACK = 0.5  # step shrink factor of the hyperbolic line search
ARMIJO_SLOPE = 1e-4  # sufficient-decrease constant of that line search
MAX_INNER_ITERATIONS = 500  # gradient steps per hyperbolic update
BOUNDARY_SEARCH_RADIUS = 3  # check_not_boundary_fixing: longest word searched
VERTEX_SNAP = 1e-15  # tree geodesic_point: a vertex this near, per unit of height, is returned


# ---------------------------------------------------------------------------
# point types for the tree models


@dataclass(frozen=True)
class TreePoint:
    """A point of a finite metric tree.

    Either a vertex (``edge is None``) or an interior point of edge number
    ``edge`` at arclength ``offset`` from the edge's first endpoint.
    Offsets 0 / full length canonicalize to the vertex form.
    """

    vertex: object = None
    edge: Optional[int] = None
    offset: float = 0.0


@dataclass(frozen=True)
class CayleyPoint:
    """A point of the Cayley tree of a free group.

    ``word`` is a vertex (reduced word).  If ``letter`` is nonzero the point
    lies at parameter ``t`` in (0, 1) along the unit edge from ``word``
    toward ``word + (letter,)``; canonical form anchors at the shorter
    endpoint, so ``word + (letter,)`` is always reduced and longer.
    """

    word: words.Word = ()
    letter: int = 0
    t: float = 0.0


class Space:
    """Common interface of the model spaces.

    A model supplies its geodesics through two hooks: ``_span(p, q)``, what
    the geodesic p -> q needs apart from t, or None when it has length 0;
    and ``_step(span, t)``, the point at 0 < t < 1.  ``Space`` owns the
    endpoint rules (t = 0 gives p, t = 1 gives q, length 0 gives p) and the
    scalar and batch loops over them.
    """

    model = "abstract"

    def dist(self, p, q) -> float:
        self._check_point(p)
        self._check_point(q)
        return self._dist(p, q)

    def geodesic_point(self, p, q, t: float):
        """The point at fraction t in [0, 1] of the geodesic p -> q."""
        self._check_t(t)
        self._check_point(p)
        self._check_point(q)
        return self._geodesic_point(p, q, t)

    def _dist(self, p, q) -> float:
        """``dist`` on trusted points."""
        raise NotImplementedError

    def _geodesic_point(self, p, q, t: float):
        """``geodesic_point`` on trusted points and a trusted t in [0, 1]."""
        if t == 0.0:
            return p
        if t == 1.0:
            return q
        span = self._span(p, q)
        return p if span is None else self._step(span, float(t))

    def _geodesic_points(self, p, q, ts) -> list:
        """``[_geodesic_point(p, q, t) for t in ts]``, bit for bit, over one ``_span``."""
        return self._walk(self._span(p, q), p, q, np.asarray(ts, dtype=float).tolist(), self._step)

    @staticmethod
    def _walk(span, p, q, ts: list, step) -> list:
        """The endpoint rules at each t of a list: q at 1, p at 0 and on a geodesic of length 0, else step(span, t)."""
        return [q if t == 1.0 else p if t == 0.0 or span is None else step(span, t) for t in ts]

    def _track_lengths(self, a, b, c, d, ts) -> list:
        """``[_dist(x_t, y_t) for t in ts]``, x_t and y_t the points at t of a -> b and c -> d, building neither."""
        raise NotImplementedError

    def _edge_track_lengths(self, a, b, c, d, g, far, ts) -> list:
        """``_track_lengths`` of a -> b and g applied to c -> d, g None or an isometry, far = (g . c, g . d)."""
        return self._track_lengths(a, b, *far, ts)

    def random_point(self, rng: np.random.Generator):
        raise NotImplementedError

    def validate_point(self, p) -> None:
        raise NotImplementedError

    def _check_point(self, p) -> None:
        """The check that ``dist``, ``geodesic_point`` and the defects make on each point."""
        self.validate_point(p)

    def _check_t(self, t: float) -> None:
        if not (0.0 <= t <= 1.0):
            raise DomainError(f"geodesic parameter t={t} outside [0, 1]")

    # JSON forms; the defaults serve the coordinate-vector models ----------

    @classmethod
    def from_json(cls, data: dict) -> "Space":
        return cls()

    def to_json(self) -> dict:
        return {"model": self.model}

    def point_to_json(self, p) -> dict:
        return {"model": self.model, "coords": [float(x) for x in p]}

    def point_from_json(self, data: dict):
        """The point a JSON form describes; a point of another model is refused."""
        if data["model"] != self.model:
            raise DomainError(f"point model {data['model']!r} does not match space {self.model!r}")
        return self._point_from_json(data)

    def _point_from_json(self, data: dict):
        return self.point(json_array(data, "coords"))

    # harmonic relaxation and the width-constant precondition --------------

    def local_value(self, y, point_terms, iso_terms) -> float:
        """F(y) = sum w d^2(y, p) over point terms + sum w d^2(y, A y) over isometry terms."""
        total = 0.0
        for w, p in point_terms:
            total += w * self._dist(y, p) ** 2
        for w, a in iso_terms:
            total += w * self._dist(y, a.apply(y)) ** 2
        return total

    def local_min(self, y0, point_terms, iso_terms):
        """A minimiser of ``local_value``, started from y0 (one relaxation update)."""
        raise CapabilityError(f"relaxation not supported on model {self.model!r}")

    def check_not_boundary_fixing(self, rho) -> None:
        """Raise PreconditionError unless rho's image visibly fixes no ideal point."""
        raise CapabilityError(
            f"boundary fixed-point check not implemented for model {self.model!r}"
        )


def _check_no_common_fixed_end(space: Space, rho) -> None:
    """``check_not_boundary_fixing`` of the hyperbolic plane and the Cayley tree: a hyperbolic element
    fixes only the two ends of its axis, so two with no common fixed end leave no end fixed."""
    seen = []
    for g in words.enumerate_ball(rho.alphabet_size, BOUNDARY_SEARCH_RADIUS):
        iso = rho.evaluate(g)
        if not iso.is_hyperbolic():
            continue
        if not all(map(iso.shares_fixed_end, seen)):
            return
        seen.append(iso)
    raise PreconditionError(
        f"image fixes an ideal point: no two words up to length {BOUNDARY_SEARCH_RADIUS} "
        "are hyperbolic without a common fixed end"
    )


class EuclideanSpace(Space):
    model = "euclidean"

    def __init__(self, dim: int):
        if dim < 1:
            raise DomainError("dimension must be >= 1")
        self.dim = dim

    @classmethod
    def from_json(cls, data: dict) -> "EuclideanSpace":
        return cls(json_field(data, "dim", int))

    def to_json(self) -> dict:
        return {"model": self.model, "dim": self.dim}

    def point(self, coords) -> np.ndarray:
        x = np.asarray(coords, dtype=float)  # a JSON null becomes NaN here
        if not np.all(np.isfinite(x)):
            raise DomainError("coordinates must be finite")
        self.validate_point(x)
        return x

    def validate_point(self, p) -> None:
        if not isinstance(p, np.ndarray) or p.shape != (self.dim,):
            raise ModelMismatchError(
                f"expected a length-{self.dim} Euclidean vector, got {p!r}"
            )

    def _dist(self, p, q) -> float:
        v = p - q
        if v.dtype != np.float64:  # integer or single-precision points: norm's own casts
            return float(np.linalg.norm(v))
        return math.sqrt(v.dot(v))  # np.linalg.norm's own path for a float vector, bit for bit

    def _span(self, p, q) -> tuple:
        return p, q

    def _step(self, span: tuple, t: float):
        p, q = span
        return (1.0 - t) * p + t * q

    def _track_lengths(self, a, b, c, d, ts) -> list:
        """The norms of the rows (1 - t)(a - c) + t(b - d), from one np.outer pair."""
        at = np.asarray(ts, dtype=float)
        return np.linalg.norm(np.outer(1.0 - at, a - c) + np.outer(at, b - d), axis=1).tolist()

    def random_point(self, rng: np.random.Generator):
        return rng.standard_normal(self.dim)

    def local_min(self, y0, point_terms, iso_terms):
        """Exact weighted least squares."""
        n = self.dim
        rows, rhs = [], []
        for w, p in point_terms:
            s = math.sqrt(w)
            rows.append(s * np.eye(n))
            rhs.append(s * p)
        for w, a in iso_terms:
            s = math.sqrt(w)
            rows.append(s * (np.eye(n) - a.matrix))
            rhs.append(s * a.translation)
        if not rows:
            return y0
        m = np.vstack(rows)
        c = np.concatenate(rhs)
        # minimum-norm correction of the current image keeps flat directions put
        delta, *_ = np.linalg.lstsq(m, c - m @ y0, rcond=None)
        return y0 + delta


def _safe_ratio(phi: float, h: float) -> float:
    """phi / sqrt(h^2 - 1), continuous at h = 1."""
    s2 = h * h - 1.0
    if s2 <= 1e-24:
        return 1.0
    return phi / math.sqrt(s2)


def _phi_over_sinh(phi: float) -> float:
    """phi / sqrt(h^2 - 1) of a point term, as phi / sinh(phi) from phi alone: the root would amplify the rounding of
    h = <y, p> near p.  It is 1 at phi = 0 and stays finite past phi = 710, where sinh overflows."""
    return phi * math.exp(-phi) * 2.0 / -math.expm1(-2.0 * phi) if phi else 1.0


# Hyperbolic arithmetic on Python floats: points are 3-tuples, an isometry
# is the 4-tuple of its 2x2 matrix entries.


def _sheet(r0: float, r1: float, r2: float) -> tuple:
    """The point (r0, r1, r2) scaled onto the upper hyperboloid sheet."""
    m = r0 * r0 - r1 * r1 - r2 * r2
    if not (0.0 < m < math.inf and r0 > 0.0):  # NaN included; an overflowed square would scale to (0, 0, 0)
        raise InvalidPointError("point is not on the upper hyperboloid sheet")
    n = math.sqrt(m)
    return r0 / n, r1 / n, r2 / n


def _h_dist(p, q) -> float:
    # Difference form 2 asinh(|p - q|_M / 2) is stable near coincident
    # points, where acosh(<p, q>) loses half the significant digits.
    v0, v1, v2 = p[0] - q[0], p[1] - q[1], p[2] - q[2]
    s = v1 * v1 + v2 * v2 - v0 * v0
    if s <= 0.0:
        return 0.0
    return 2.0 * math.asinh(0.5 * math.sqrt(s))


def _h_step(span: tuple, t: float) -> tuple:
    """The point at 0 < t < 1 of the geodesic that ``HyperbolicPlane._span`` describes."""
    (p0, p1, p2), (q0, q1, q2), d, s = span
    a, b = math.sinh((1.0 - t) * d) / s, math.sinh(t * d) / s
    return _sheet(a * p0 + b * q0, a * p1 + b * q1, a * p2 + b * q2)


def _h_exp(p, v):
    """exp_p(v); p itself when v is not spacelike."""
    v0, v1, v2 = v
    nrm2 = -(v0 * v0 - v1 * v1 - v2 * v2)
    if nrm2 <= 0.0:
        return p
    nrm = math.sqrt(nrm2)
    c, s = math.cosh(nrm), math.sinh(nrm) / nrm
    return _sheet(c * p[0] + s * v0, c * p[1] + s * v1, c * p[2] + s * v2)


def _h_act(m, y) -> tuple:
    """A y for A's entries m = (a, b, c, d): (A S) A^T in this order, S = [[y0 + y1, y2], [y2, y0 - y1]]."""
    (a, b, c, d), (y0, y1, y2) = m, y
    s00, s11 = y0 + y1, y0 - y1
    m00, m01, m10, m11 = a * s00 + b * y2, a * y2 + b * s11, c * s00 + d * y2, c * y2 + d * s11
    r00, r11 = m00 * a + m01 * b, m10 * c + m11 * d
    return 0.5 * (r00 + r11), 0.5 * (r00 - r11), m00 * c + m01 * d


def _h_value(y, points, loops) -> float:
    """The local objective at y: Space.local_value, bit for bit, for loops (w, A's entries, A^-1's entries)."""
    total = 0.0
    for w, p in points:
        total += w * _h_dist(y, p) ** 2
    for w, m, _ in loops:
        total += w * _h_dist(y, _h_act(m, y)) ** 2
    return total


def _h_grad(y, points, loops) -> tuple:
    """Riemannian gradient at y: the ambient sum of w 2 phi / sqrt(h^2 - 1) grad h, projected onto T_y; h = <y, p> with
    grad h = J p, J = diag(1, -1, -1), or h = <y, B y> with J B y + B^T J y, B the SO(2,1) action of A.  B^T J B = J
    makes B^T J y = J B^-1 y: a loop adds the terms of two points, A y and A^-1 y, at one h = <y, A y> = <y, A^-1 y>."""
    y0, y1, y2 = y
    a0 = a1 = a2 = 0.0
    for w, p in points:
        p0, p1, p2 = p
        c = w * 2.0 * _phi_over_sinh(_h_dist(y, p))
        a0, a1, a2 = a0 + c * p0, a1 - c * p1, a2 - c * p2
    for w, m, mi in loops:
        (by0, by1, by2), (iy0, iy1, iy2) = _h_act(m, y), _h_act(mi, y)
        h = y0 * by0 - y1 * by1 - y2 * by2
        c = w * 2.0 * _safe_ratio(math.acosh(max(h, 1.0)), h)
        a0, a1, a2 = a0 + c * (by0 + iy0), a1 - c * (by1 + iy1), a2 - c * (by2 + iy2)
    s = y0 * a0 + y1 * a1 + y2 * a2
    return s * y0 - a0, a1 + s * y1, a2 + s * y2


class HyperbolicPlane(Space):
    """Hyperboloid (Minkowski) model; pairing <x,y> = x0 y0 - x1 y1 - x2 y2."""

    model = "hyperbolic"

    #: random points: exponential radius is capped here
    RADIUS_CAP = 10.0

    def point(self, coords) -> np.ndarray:
        x = np.asarray(coords, dtype=float)
        if x.shape != (3,):
            raise ModelMismatchError("hyperbolic points have 3 coordinates")
        return self.normalize(x)

    @staticmethod
    def minkowski(p, q) -> float:
        """<p, q> on Python floats, whose overflow is inf without a NumPy warning."""
        return float(p[0]) * float(q[0]) - float(p[1]) * float(q[1]) - float(p[2]) * float(q[2])

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return np.array(_sheet(*x.tolist()))

    def _check_point(self, p) -> None:
        # type and shape only: isometry images of long words leave the sheet
        # by more than validate_point's absolute 1e-6
        if not isinstance(p, np.ndarray) or p.shape != (3,):
            raise ModelMismatchError(f"expected a hyperboloid point, got {p!r}")

    def _on_sheet(self, p) -> bool:
        """validate_point's test of a 3-vector; false for NaN and infinite coordinates."""
        return abs(self.minkowski(p, p) - 1.0) <= 1e-6 and p[0] > 0.0

    def validate_point(self, p) -> None:
        self._check_point(p)
        if not self._on_sheet(p):
            raise InvalidPointError("point violates x0^2 - x1^2 - x2^2 = 1, x0 > 0")

    def _point_from_json(self, data: dict) -> np.ndarray:
        # coordinates that pass validate_point load as written; point() renormalises or refuses the rest
        x = np.asarray(json_array(data, "coords"), dtype=float)
        return x if x.shape == (3,) and self._on_sheet(x) else self.point(x)

    def _dist(self, p, q) -> float:
        return _h_dist(p.tolist(), q.tolist())

    def _span(self, p, q):
        pl, ql = p.tolist(), q.tolist()
        d = _h_dist(pl, ql)
        if d == 0.0:
            return None
        return pl, ql, d, math.sinh(d)

    def _step(self, span: tuple, t: float) -> np.ndarray:
        return np.array(_h_step(span, t))

    def _floats(self, p, q, ts) -> list:
        """``_geodesic_points`` as the float sequences that ``_dist`` makes of them: bit for bit."""
        return self._walk(self._span(p, q), p.tolist(), q.tolist(), np.asarray(ts, dtype=float).tolist(), _h_step)

    def _track_lengths(self, a, b, c, d, ts) -> list:
        return list(map(_h_dist, self._floats(a, b, ts), self._floats(c, d, ts)))

    def _edge_track_lengths(self, a, b, c, d, g, far, ts) -> list:
        """g's entries applied to each point of c -> d: a step loses cosh^2 R of precision at far ends of radius R."""
        ys = self._floats(c, d, ts)
        return list(map(_h_dist, self._floats(a, b, ts), ys if g is None else [_h_act(g.entries, y) for y in ys]))

    def from_polar(self, radius: float, angle: float) -> np.ndarray:
        return np.array(
            [math.cosh(radius), math.sinh(radius) * math.cos(angle), math.sinh(radius) * math.sin(angle)]
        )

    def random_point(self, rng: np.random.Generator):
        r = min(float(rng.exponential(1.0)), self.RADIUS_CAP)
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        return self.from_polar(r, theta)

    def local_min(self, y0, point_terms, iso_terms):
        """Riemannian gradient descent with Armijo backtracking, on floats converted once at entry.

        A trial step that rounding carries off the sheet or past float range fails like one without enough decrease."""
        points = [(w, tuple(p.tolist())) for w, p in point_terms]
        loops = [(w, a.entries, a.inverse().entries) for w, a in iso_terms]
        y = start = tuple(y0.tolist())
        f = _h_value(y, points, loops)
        step = 0.25 / max(sum(w for w, _ in point_terms) + sum(w for w, _ in iso_terms), 1e-12)
        for _ in range(MAX_INNER_ITERATIONS):
            g0, g1, g2 = _h_grad(y, points, loops)
            gnorm = math.sqrt(max(-(g0 * g0 - g1 * g1 - g2 * g2), 0.0))
            if gnorm < 1e-9:
                break
            t = step * 2.0
            improved = False
            while t * gnorm > 1e-16:
                try:
                    y_try = _h_exp(y, (-t * g0, -t * g1, -t * g2))
                except (InvalidPointError, OverflowError):  # a failed trial
                    t *= ARMIJO_BACKTRACK
                    continue
                f_try = _h_value(y_try, points, loops)
                if f_try <= f - ARMIJO_SLOPE * t * gnorm * gnorm:
                    # refuse steps that no longer move the objective: they only
                    # drift the iterate along flat directions of the local term
                    if f - f_try <= INNER_TOLERANCE * max(1.0, abs(f)):
                        break
                    y, f = y_try, f_try
                    step = t
                    improved = True
                    break
                t *= ARMIJO_BACKTRACK
            if not improved:
                break
        return y0 if y is start else np.array(y)

    check_not_boundary_fixing = _check_no_common_fixed_end


class _TreeSpace(Space):
    """The distance, geodesic walk and descent walk that the two tree models share.

    Each model roots itself once.  A vertex is named by a key (a vertex
    index, or a reduced word) and has a parent and a height, its distance
    to the root.  A subclass supplies ``_height(w)`` and ``_lca(x, y)`` on
    vertex keys; ``_low(p)``, the lower endpoint of p's edge (p's own vertex
    for a vertex) with p's height, so that p lies on that vertex's root
    path; ``_above(w, h, snap)``, the point of w's root path at height h,
    where a vertex within ``snap`` is returned as the vertex; and
    ``_neighbours(p)``, the vertices next to a vertex or the two ends of an
    interior point's edge, in a fixed order.  The geodesic p -> q climbs p's
    root path to the height where it meets q's, then descends q's (Bridson &
    Haefliger II.1).  A distance takes one ``_lca`` and a geodesic point one
    ``_above``; on a finite tree each takes O(log V) steps, on a Cayley tree
    O(word length).
    """

    def _meet(self, p, q):
        """p and q as (vertex below, height), and the height where their root paths meet."""
        x, hp = self._low(p)
        y, hq = self._low(q)
        return x, hp, y, hq, min(self._height(self._lca(x, y)), hp, hq)

    def _dist(self, p, q) -> float:
        _, hp, _, hq, hm = self._meet(p, q)
        return (hp - hm) + (hq - hm)

    def _span(self, p, q):
        """The geodesic p -> q apart from t: its length, each end as (vertex below, height), p's climb, the snap."""
        x, hp, y, hq, hm = self._meet(p, q)
        up = hp - hm
        total = up + (hq - hm)
        if total == 0.0:
            return None
        # heights carry rounding relative to their size, and so does the vertex snap
        return total, x, hp, y, hq, up, VERTEX_SNAP * max(1.0, hp + hq)

    def _step(self, span: tuple, t: float):
        total, x, hp, y, hq, up, snap = span
        target = t * total
        if target <= up:
            return self._above(x, hp - target, snap)
        return self._above(y, hq - (total - target), snap)

    @staticmethod
    def _side(span: tuple, t: float) -> tuple:
        """The (vertex, height) from which ``_step`` climbs, by its choice of side."""
        total, x, hp, y, hq, up, _ = span
        return (x, hp - t * total) if t * total <= up else (y, hq - (total - t * total))

    def _track_lengths(self, a, b, c, d, ts) -> list:
        """Samples are ``_side``'s, unsnapped; two meet at the height of one ``_lca`` per pair of vertices."""
        ts, tracks = np.asarray(ts, dtype=float).tolist(), []
        for p, q in ((a, b), (c, d)):
            span = self._span(p, q)
            ends = (self._low(p), self._low(q)) if span is None else (span[1:3], span[3:5])
            tracks.append(self._walk(span, *ends, ts, self._side))
        meet = functools.cache(lambda x, y: self._height(self._lca(x, y)))
        return [(h1 - m) + (h2 - m) for (x, h1), (y, h2) in zip(*tracks) for m in [min(meet(x, y), h1, h2)]]

    def local_min(self, y0, point_terms, iso_terms):
        """Walk downhill from y0 vertex to vertex, then minimise exactly on each edge out of where it stopped.

        F is convex along geodesics: a minimiser beyond a neighbour q of the stop point would make F(q)
        lower, and the walk would have gone on.  Ties go to the stop point, then to the first neighbour."""
        f = functools.partial(self.local_value, point_terms=point_terms, iso_terms=iso_terms)
        y, fy = y0, f(y0)
        while True:
            around = self._neighbours(y)
            fq, q = min(zip(map(f, around), around), key=lambda e: e[0])  # the first on ties
            if fq >= fy:
                return min([y] + [self._edge_min(y, x, point_terms, iso_terms) for x in around], key=f)
            y, fy = q, fq

    def _edge_min(self, p, q, point_terms, iso_terms):
        """The exact minimiser of F on the geodesic p -> q.

        At arclength s from p a term's distance is m + k d(s, [lo, hi]), m its least value on the edge: k = 1
        and lo = hi for a point term, k = 2 for a loop term d(y, A y).  F is a convex piecewise quadratic."""
        dist, n = self._dist, self._dist(p, q)
        if n == 0.0:  # an interior p that rounds onto its edge's end q
            return p
        term_dists = [(w, 1.0, lambda y, x=x: dist(y, x)) for w, x in point_terms]
        term_dists += [(w, 2.0, lambda y, a=a: dist(y, a.apply(y))) for w, a in iso_terms]
        terms = []  # (w, k, lo, hi, m)
        for w, k, d in term_dists:
            d0, d1 = d(p), d(q)
            # the value at c = (d0 - d1 + k n) / 2k, where the term is least: the middle of [lo, hi]
            m = d(self._geodesic_point(p, q, min(max(0.5 * (d0 - d1) / (k * n) + 0.5, 0.0), 1.0)))
            terms.append((w, k, (d0 - m) / k, n - (d1 - m) / k, m))
        kinks = sorted({0.0, n} | {s for *_, lo, hi, _ in terms for s in (lo, hi) if 0.0 < s < n})
        for s0, s1 in zip(kinks, kinks[1:]):  # on [s0, s1] F is the sum of w (a s + b)^2
            mid, aa, ab = 0.5 * (s0 + s1), 0.0, 0.0
            for w, k, lo, hi, m in terms:
                a, b = (-k, m + k * lo) if mid < lo else (k, m - k * hi) if mid > hi else (0.0, m)
                aa, ab = aa + w * a * a, ab + w * a * b
            if aa * s1 + ab >= 0.0:  # F' >= 0 at s1, and F is convex: its least value is on [s0, s1]
                return self._geodesic_point(p, q, (min(max(-ab / aa, s0), s1) if aa > 0.0 else s0) / n)
        return q


class MetricTree(_TreeSpace):
    """A finite simplicial metric tree with at least one edge.

    ``vertices`` is a sequence of hashable ids; ``edges`` a sequence of
    (a, b, length) with length > 0.  Connectivity and acyclicity are
    checked at construction, by one breadth-first search from the first
    vertex that roots the tree there: each vertex index gets its parent,
    the edge to it, its level and its height.  The search order then gives
    a heavy-path decomposition: a vertex continues its parent's chain when
    it roots the parent's largest subtree, so a root path crosses at most
    log2(V) chains.  Each vertex gets its chain's head and its place in
    one list of all chains, each top down, beside a list of their heights.
    ``_lca`` climbs whole chains; ``_above`` climbs whole chains and
    bisects the heights of the last one.  The state is O(V).
    """

    model = "tree"

    def __init__(self, vertices: Sequence, edges: Sequence[tuple]):
        self.vertices = list(vertices)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise DomainError("duplicate vertex ids")
        self.edges = []
        for e in edges:
            a, b, length = e
            if not 0.0 < length < math.inf:  # NaN included
                raise DomainError(f"edge {a}-{b} has length {length}, not positive and finite")
            if a not in self._index or b not in self._index:
                raise DomainError(f"edge {a}-{b} references unknown vertices")
            self.edges.append((a, b, float(length)))
        n = len(self.vertices)
        if len(self.edges) != n - 1:
            raise DomainError("a tree on n vertices has exactly n-1 edges")
        if not self.edges:
            raise DomainError("a tree needs at least one edge")
        # (index of a, index of b, length) per edge
        self._ends = [(self._index[a], self._index[b], length) for a, b, length in self.edges]
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (edge index, other end)
        for k, (ia, ib, _) in enumerate(self._ends):
            adj[ia].append((k, ib))
            adj[ib].append((k, ia))
        parents, pedges, levels, heights = [None] * n, [-1] * n, [0] * n, [0.0] * n
        parents[0] = -1
        order = [0]
        for u in order:  # grows while it is walked: breadth-first from the root
            for k, w in adj[u]:
                if parents[w] is None:
                    parents[w], pedges[w], levels[w] = u, k, levels[u] + 1
                    heights[w] = heights[u] + self._ends[k][2]
                    order.append(w)
        if len(order) != n:
            raise DomainError("tree is not connected")
        self._adj, self._parents, self._pedges, self._levels, self._heights = adj, parents, pedges, levels, heights
        self._height = heights.__getitem__
        # heavy paths: sizes and each vertex's heaviest child, then the chains top down in search order
        sizes, heavy = [1] * n, [-1] * n
        for w in order[:0:-1]:  # children before parents
            u = parents[w]
            sizes[u] += sizes[w]
            if heavy[u] < 0 or sizes[w] > sizes[heavy[u]]:
                heavy[u] = w
        heads, chains = [0] * n, {0: [0]}
        for w in order[1:]:
            u = parents[w]
            if heavy[u] == w:
                heads[w] = heads[u]
                chains[heads[u]].append(w)
            else:
                heads[w] = w
                chains[w] = [w]
        # the chains one after another, each top down, in a few flat lists
        chained = [v for chain in chains.values() for v in chain]
        places = [0] * n
        for k, v in enumerate(chained):
            places[v] = k
        self._heads, self._chained, self._places = heads, chained, places
        self._chained_heights = [heights[v] for v in chained]

    @classmethod
    def from_json(cls, data: dict) -> "MetricTree":
        edges = [(e["a"], e["b"], json_field(e, "len", float)) for e in data["edges"]]
        return cls(data["vertices"], edges)

    def to_json_dict(self) -> dict:
        """The tree's JSON form without its model key, as tree files hold it."""
        return {
            "vertices": list(self.vertices),
            "edges": [{"a": a, "b": b, "len": length} for a, b, length in self.edges],
        }

    def to_json(self) -> dict:
        return {"model": self.model, **self.to_json_dict()}

    def point_to_json(self, p: TreePoint) -> dict:
        if p.edge is None:
            return {"model": self.model, "vertex": p.vertex}
        return {"model": self.model, "edge": p.edge, "offset": p.offset}

    def _point_from_json(self, data: dict) -> TreePoint:
        if "vertex" in data:
            return self.vertex_point(data["vertex"])
        return self.edge_point(json_field(data, "edge", int), json_field(data, "offset", float))

    # point construction and canonicalization -------------------------------

    def vertex_point(self, v) -> TreePoint:
        p = TreePoint(vertex=v)
        self.validate_point(p)
        return p

    def edge_point(self, edge: int, offset: float) -> TreePoint:
        self.validate_point(TreePoint(edge=edge, offset=offset))
        return self._edge_point(edge, offset)

    def _edge_point(self, edge: int, offset: float) -> TreePoint:
        """The canonical point at a trusted offset in [0, length] of a trusted edge."""
        a, b, length = self.edges[edge]
        if offset == 0.0:
            return TreePoint(vertex=a)
        if offset == length:
            return TreePoint(vertex=b)
        return TreePoint(edge=edge, offset=offset)

    def validate_point(self, p) -> None:
        if not isinstance(p, TreePoint):
            raise ModelMismatchError(f"expected a TreePoint, got {p!r}")
        if p.edge is None:
            if p.vertex not in self._index:
                raise InvalidPointError(f"unknown vertex {p.vertex!r}")
        else:
            if not (0 <= p.edge < len(self.edges)):
                raise InvalidPointError(f"unknown edge index {p.edge}")
            if not (0.0 <= p.offset <= self.edges[p.edge][2]):
                raise DomainError(f"offset {p.offset} outside [0, {self.edges[p.edge][2]}]")

    # the rooted tree on vertex indices -------------------------------------

    def _lca(self, i: int, j: int) -> int:
        """Climb whole chains, the one whose head is lower first, until i and j share a chain."""
        heads, parents, levels = self._heads, self._parents, self._levels
        hi, hj = heads[i], heads[j]
        while hi != hj:
            if levels[hi] > levels[hj]:
                i = parents[hi]
                hi = heads[i]
            else:
                j = parents[hj]
                hj = heads[j]
        return i if levels[i] <= levels[j] else j

    def _low(self, p: TreePoint) -> tuple[int, float]:
        if p.edge is None:
            i = self._index[p.vertex]
            return i, self._heights[i]
        ia, ib, length = self._ends[p.edge]
        if self._parents[ib] == ia:
            return ib, self._heights[ia] + p.offset
        return ia, self._heights[ib] + (length - p.offset)

    def _above(self, i: int, h: float, snap: float) -> TreePoint:
        """The point a climb from i returns: the first vertex j with heights[j] - h <= snap, or the point inside
        the edge below j when h - heights[j] > snap.  The first test only turns true going up, so beyond i's
        parent j is found by climbing whole chains and bisecting the heights of the last one."""
        heads, parents, heights = self._heads, self._parents, self._heights
        if heights[i] - h <= snap:
            return TreePoint(vertex=self.vertices[i])
        below, j = i, parents[i]
        if heights[j] - h > snap:
            while heights[heads[j]] - h > snap:
                below = heads[j]
                j = parents[below]
            chained, hs, places = self._chained, self._chained_heights, self._places
            first, top = places[heads[j]], places[j]  # j's chain, from its head down to j
            k = bisect.bisect_right(hs, h + snap, first, top + 1)  # rounding in h + snap may put k off by one
            while k > first + 1 and hs[k - 1] - h > snap:
                k -= 1
            while k <= top and hs[k] - h <= snap:
                k += 1
            j = chained[k - 1]
            if k <= top:
                below = chained[k]
        r = h - heights[j]  # arclength from j
        if r > snap:
            e = self._pedges[below]
            ia, _, length = self._ends[e]
            return self._edge_point(e, min(r, length) if ia == j else max(length - r, 0.0))
        return TreePoint(vertex=self.vertices[j])

    def _edge_between(self, a, b) -> Optional[int]:
        """Index of the edge joining vertices a and b, or None."""
        ia, ib = self._index[a], self._index[b]
        if self._parents[ia] == ib:
            return self._pedges[ia]
        if self._parents[ib] == ia:
            return self._pedges[ib]
        return None

    def random_point(self, rng: np.random.Generator):
        k = int(rng.integers(0, len(self.edges)))
        offset = float(rng.uniform(0.0, self.edges[k][2]))
        return self._edge_point(k, offset)

    def _neighbours(self, p: TreePoint) -> list:
        if p.edge is None:
            return [TreePoint(vertex=self.vertices[j]) for _, j in self._adj[self._index[p.vertex]]]
        a, b, _ = self.edges[p.edge]
        return [TreePoint(vertex=a), TreePoint(vertex=b)]

    def check_not_boundary_fixing(self, rho) -> None:
        """A finite tree has no ideal boundary; only trivial images are refused."""
        if rho.is_trivial():
            raise PreconditionError("trivial representation image is refused")


class CayleyTree(_TreeSpace):
    """Cayley tree of the free group of rank n, unit edge lengths.

    Vertices are reduced words; the free group acts on itself by left
    translation (see :mod:`geowidth.isometries`).
    """

    model = "cayley"

    #: random vertices use words up to this length
    RANDOM_WORD_CAP = 6

    def __init__(self, rank: int):
        if rank < 1:
            raise DomainError("rank must be >= 1")
        self.rank = rank

    @classmethod
    def from_json(cls, data: dict) -> "CayleyTree":
        return cls(json_field(data, "rank", int))

    def to_json(self) -> dict:
        return {"model": self.model, "rank": self.rank}

    def point_to_json(self, p: CayleyPoint) -> dict:
        out = {"model": self.model, "word": words.word_to_str(p.word)}
        if p.letter != 0:
            out["letter"] = words.word_to_str((p.letter,))
            out["t"] = p.t
        return out

    def _point_from_json(self, data: dict) -> CayleyPoint:
        w = words.parse_word(data["word"], self.rank)
        if "letter" in data:
            letter = words.parse_word(data["letter"], self.rank)
            if len(letter) != 1:
                raise InvalidPointError(f"edge letter {data['letter']!r} is not one signed letter")
            return self.edge_point(w, letter[0], json_field(data, "t", float))
        return self.vertex_point(w)

    def vertex_point(self, w: words.Word) -> CayleyPoint:
        p = CayleyPoint(word=w)
        self.validate_point(p)
        return p

    def edge_point(self, w: words.Word, letter: int, t: float) -> CayleyPoint:
        """Point at parameter t along the edge from vertex w toward w*letter."""
        if not (0.0 <= t <= 1.0):
            raise DomainError("edge parameter outside [0, 1]")
        self.validate_point(CayleyPoint(word=w))
        if letter == 0 or abs(letter) > self.rank:
            raise InvalidPointError(f"invalid letter {letter}")
        return self._edge_point(w, letter, t)

    @staticmethod
    def _edge_point(w: words.Word, letter: int, t: float) -> CayleyPoint:
        """``edge_point`` on a trusted reduced word, letter and t in [0, 1]."""
        if t == 0.0:
            return CayleyPoint(word=w)
        if t == 1.0:
            return CayleyPoint(word=words.multiply(w, (letter,)))
        if w and w[-1] == -letter:
            # anchor at the shorter endpoint
            return CayleyPoint(word=w[:-1], letter=-letter, t=1.0 - t)
        return CayleyPoint(word=w, letter=letter, t=t)

    def validate_point(self, p) -> None:
        if not isinstance(p, CayleyPoint):
            raise ModelMismatchError(f"expected a CayleyPoint, got {p!r}")
        last = 0
        for x in p.word:
            if abs(x) > self.rank:
                words.check_alphabet(p.word, self.rank)  # raises AlphabetMismatchError
            if x == -last or x == 0:
                raise InvalidPointError("vertex word must be freely reduced, without letter 0")
            last = x
        if p.letter != 0:
            if abs(p.letter) > self.rank:
                raise InvalidPointError(f"invalid letter {p.letter}")
            if p.letter == -last:
                raise InvalidPointError("edge point must be anchored at its endpoint nearer e")
            if not (0.0 < p.t < 1.0):
                raise DomainError("interior edge parameter must be in (0, 1)")

    # the tree rooted at e: a word's parent drops its last letter ------------

    _height = staticmethod(len)

    @staticmethod
    def _lca(u: words.Word, v: words.Word) -> words.Word:
        k = 0
        for x, y in zip(u, v):
            if x != y:
                break
            k += 1
        return u[:k]

    @staticmethod
    def _low(p: CayleyPoint) -> tuple[words.Word, float]:
        if p.letter == 0:
            return p.word, float(len(p.word))
        return p.word + (p.letter,), len(p.word) + p.t

    @staticmethod
    def _above(w: words.Word, h: float, snap: float) -> CayleyPoint:
        j = math.floor(h)
        if h - j <= snap:
            return CayleyPoint(word=w[:j])
        if j + 1 - h <= snap:
            return CayleyPoint(word=w[: j + 1])
        return CayleyPoint(word=w[:j], letter=w[j], t=h - j)

    def random_point(self, rng: np.random.Generator):
        def letter_after(w):
            while True:
                x = int(rng.integers(1, self.rank + 1)) * (1 if rng.random() < 0.5 else -1)
                if not w or w[-1] != -x:
                    return x

        k = int(rng.integers(0, self.RANDOM_WORD_CAP + 1))
        w = ()
        for _ in range(k):
            w += (letter_after(w),)
        if rng.random() < 0.5:
            return CayleyPoint(word=w)
        return self._edge_point(w, letter_after(w), float(rng.uniform(0.0, 1.0)))

    def _neighbours(self, p: CayleyPoint) -> list:
        """A vertex w's neighbours are w a, w A, w b, w B, ... in that order."""
        if p.letter != 0:
            return [CayleyPoint(word=p.word), CayleyPoint(word=p.word + (p.letter,))]
        return [CayleyPoint(word=words.multiply(p.word, (x,))) for i in range(1, self.rank + 1) for x in (i, -i)]

    check_not_boundary_fixing = _check_no_common_fixed_end


#: the one place a JSON "model" string picks a class
MODELS = {cls.model: cls for cls in (EuclideanSpace, HyperbolicPlane, MetricTree, CayleyTree)}


def space_from_json(data: dict) -> Space:
    """The space a JSON form describes."""
    cls = MODELS.get(data["model"])
    if cls is None:
        raise DomainError(f"unknown space model {data['model']!r}")
    return cls.from_json(data)


def json_field(data: dict, key: str, kind: type):
    """``data[key]`` as kind, int or float, if JSON writes it as such a number: an int for an int, an int or a
    float for a float.  A bool, a string or a fraction for an int raises TypeError."""
    v = data[key]
    if type(v) is not int and (kind is int or not isinstance(v, float)):
        raise TypeError(f"{key!r} must be a JSON {'integer' if kind is int else 'number'}, not {v!r}")
    return kind(v)


def json_array(data: dict, key: str):
    """``data[key]``, arrays of numbers held to ``json_field``'s float rule; a null goes on to the finiteness checks."""
    entries = [data[key]]
    for v in entries:  # grows as nested arrays are opened
        if isinstance(v, list):
            entries += v
        elif v is not None:
            json_field({key: v}, key, float)
    return data[key]


# ---------------------------------------------------------------------------
# comparison-inequality defects (signed; >= 0 means the inequality holds)


def _check_points(space: Space, *points) -> None:
    for p in points:
        space._check_point(p)


def _triangle(lam: float, d_pq: float, d_pr: float, d_qr: float, d_pql: float) -> float:
    """The triangle defect from d(P, Q), d(P, R), d(Q, R) and d(P, Q_lam)."""
    try:
        rhs = (1.0 - lam) * d_pq**2 + lam * d_pr**2 - lam * (1.0 - lam) * d_qr**2
        return rhs - d_pql**2
    except OverflowError as e:
        raise DomainError(f"distances too large to square: {e}") from None


def _quadrilateral(t: float, alpha: float, d_pq: float, d_rs: float, d_ps: float, d_qr: float, d_t: float) -> float:
    """The quadrilateral defect from four sides, the diagonal d(P, S), and d(P_t, Q_t)."""
    try:
        lhs = d_t**2
        rhs = (
            (1.0 - t) * d_pq**2
            + t * d_rs**2
            - t * (1.0 - t) * (alpha * (d_ps - d_qr) ** 2 + (1.0 - alpha) * (d_rs - d_pq) ** 2)
        )
    except OverflowError as e:
        raise DomainError(f"distances too large to square: {e}") from None
    return rhs - lhs


def _convexity(t: float, d_pq: float, d_rs: float, d_t: float) -> float:
    """The convexity defect from d(P, Q), d(R, S) and d(P_t, Q_t)."""
    return (1.0 - t) * d_pq + t * d_rs - d_t


def triangle_defect(space: Space, P, Q, R, lam: float) -> float:
    """RHS - LHS of the CAT(0) triangle comparison at fraction lam on [Q, R]."""
    if not (0.0 <= lam <= 1.0):
        raise DomainError("lambda outside [0, 1]")
    _check_points(space, P, Q, R)
    dist = space._dist
    return _triangle(lam, dist(P, Q), dist(P, R), dist(Q, R), dist(P, space._geodesic_point(Q, R, lam)))


def quadrilateral_defect(space: Space, P, Q, R, S, t: float, alpha: float) -> float:
    """RHS - LHS of the Reshetnyak quadrilateral comparison.

    P_t lies on the geodesic P -> S, Q_t on the geodesic Q -> R.
    """
    if not (0.0 <= t <= 1.0 and 0.0 <= alpha <= 1.0):
        raise DomainError("t and alpha must lie in [0, 1]")
    _check_points(space, P, Q, R, S)
    dist, geodesic_point = space._dist, space._geodesic_point
    d_t = dist(geodesic_point(P, S, t), geodesic_point(Q, R, t))
    return _quadrilateral(t, alpha, dist(P, Q), dist(R, S), dist(P, S), dist(Q, R), d_t)


def convexity_defect(space: Space, P, Q, R, S, t: float) -> float:
    """Slack in d(P_t, Q_t) <= (1-t) d(P,Q) + t d(R,S) (distance convexity)."""
    space._check_t(t)
    _check_points(space, P, Q, R, S)
    dist, geodesic_point = space._dist, space._geodesic_point
    return _convexity(t, dist(P, Q), dist(R, S), dist(geodesic_point(P, S, t), geodesic_point(Q, R, t)))


class ComparisonSweep(NamedTuple):
    """The defects of one quadruple, and its six side lengths."""

    triangle: float
    quadrilateral: list  # at (t, alpha) for t in the grid, then alpha in the grid
    convexity: list  # at each t of the grid
    sides: tuple  # d(P, Q), d(P, R), d(P, S), d(Q, R), d(Q, S), d(R, S)


def comparison_sweep(space: Space, P, Q, R, S, lam: float, grid) -> ComparisonSweep:
    """``triangle_defect(P, Q, R, lam)``, ``quadrilateral_defect`` at every (t, alpha) of the grid and
    ``convexity_defect`` at every t, bit for bit, from one check of each point, one measurement of each
    side, and P_t, Q_t and d(P_t, Q_t) once per t."""
    grid = list(grid)
    if not (0.0 <= lam <= 1.0 and all(0.0 <= t <= 1.0 for t in grid)):
        raise DomainError("lambda and the grid must lie in [0, 1]")
    _check_points(space, P, Q, R, S)
    dist, pts = space._dist, (P, Q, R, S)
    sides = tuple(dist(a, b) for k, a in enumerate(pts) for b in pts[k + 1:])
    d_pq, d_pr, d_ps, d_qr, _, d_rs = sides
    q_lam, *q_ts = space._geodesic_points(Q, R, [lam, *grid])
    d_ts = list(map(dist, space._geodesic_points(P, S, grid), q_ts))
    return ComparisonSweep(
        _triangle(lam, d_pq, d_pr, d_qr, dist(P, q_lam)),
        [_quadrilateral(t, alpha, d_pq, d_rs, d_ps, d_qr, d_t) for t, d_t in zip(grid, d_ts) for alpha in grid],
        [_convexity(t, d_pq, d_rs, d_t) for t, d_t in zip(grid, d_ts)],
        sides,
    )

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
harmonic relaxation runs on it (``local_min``); and the precondition of
the width-constant estimator (``check_not_boundary_fixing``).  An
operation a model does not support raises ``CapabilityError``.  The two
tree models share one geodesic walk and differ only in their anchors,
vertex distance and vertex path.

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
distance convexity) and nearest-point projection onto a geodesic segment.
Defects are signed: nonnegative means the inequality holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import words
from .errors import CapabilityError, DomainError, InvalidPointError, ModelMismatchError, PreconditionError

TOL = 1e-9

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section step ratio


def golden_section(f: Callable[[float], float], a: float, b: float, tol: float = 1e-10) -> float:
    """Argmin of a unimodal (convex) function on [a, b]."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


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
    """Common interface of the model spaces."""

    model = "abstract"

    def dist(self, p, q) -> float:
        raise NotImplementedError

    def geodesic_point(self, p, q, t: float):
        raise NotImplementedError

    def random_point(self, rng: np.random.Generator):
        raise NotImplementedError

    def validate_point(self, p) -> None:
        raise NotImplementedError

    def same_point(self, p, q, tol: float = TOL) -> bool:
        return self.dist(p, q) <= tol

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
        return self.point(data["coords"])

    # harmonic relaxation and the width-constant precondition --------------

    def local_value(self, y, point_terms, iso_terms) -> float:
        """F(y) = sum w d^2(y, p) over point terms + sum w d^2(y, A y) over isometry terms."""
        total = 0.0
        for w, p in point_terms:
            total += w * self.dist(y, p) ** 2
        for w, a in iso_terms:
            total += w * self.dist(y, a.apply(y)) ** 2
        return total

    def local_min(self, y0, point_terms, iso_terms, cfg):
        """A minimiser of ``local_value``, started from y0 (one relaxation update)."""
        raise CapabilityError(f"relaxation not supported on model {self.model!r}")

    def check_not_boundary_fixing(self, rho, search_radius: int) -> None:
        """Raise PreconditionError unless rho's image visibly fixes no ideal point."""
        raise CapabilityError(
            f"boundary fixed-point check not implemented for model {self.model!r}"
        )


class EuclideanSpace(Space):
    model = "euclidean"

    def __init__(self, dim: int):
        if dim < 1:
            raise DomainError("dimension must be >= 1")
        self.dim = dim

    @classmethod
    def from_json(cls, data: dict) -> "EuclideanSpace":
        return cls(int(data["dim"]))

    def to_json(self) -> dict:
        return {"model": self.model, "dim": self.dim}

    def point(self, coords) -> np.ndarray:
        x = np.asarray(coords, dtype=float)
        self.validate_point(x)
        return x

    def validate_point(self, p) -> None:
        if not isinstance(p, np.ndarray) or p.shape != (self.dim,):
            raise ModelMismatchError(
                f"expected a length-{self.dim} Euclidean vector, got {p!r}"
            )

    def dist(self, p, q) -> float:
        self.validate_point(p)
        self.validate_point(q)
        return float(np.linalg.norm(p - q))

    def geodesic_point(self, p, q, t: float):
        self._check_t(t)
        self.validate_point(p)
        self.validate_point(q)
        if t == 0.0:
            return p
        if t == 1.0:
            return q
        return (1.0 - t) * p + t * q

    def random_point(self, rng: np.random.Generator):
        return rng.standard_normal(self.dim)

    def local_min(self, y0, point_terms, iso_terms, cfg):
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


_J = np.diag([1.0, -1.0, -1.0])


def _safe_ratio(phi: float, h: float) -> float:
    """phi / sqrt(h^2 - 1), continuous at h = 1."""
    s2 = h * h - 1.0
    if s2 <= 1e-24:
        return 1.0
    return phi / math.sqrt(s2)


def _end_diff(a: float, b: float) -> float:
    if math.isinf(a) and math.isinf(b):
        return 0.0
    if math.isinf(a) or math.isinf(b):
        return math.inf
    return a - b


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
        return float(p[0] * q[0] - p[1] * q[1] - p[2] * q[2])

    def normalize(self, x: np.ndarray) -> np.ndarray:
        m = self.minkowski(x, x)
        if m <= 0.0 or x[0] <= 0.0:
            raise InvalidPointError("point is not on the upper hyperboloid sheet")
        return x / math.sqrt(m)

    def validate_point(self, p) -> None:
        if not isinstance(p, np.ndarray) or p.shape != (3,):
            raise ModelMismatchError(f"expected a hyperboloid point, got {p!r}")
        if abs(self.minkowski(p, p) - 1.0) > 1e-6 or p[0] <= 0.0:
            raise InvalidPointError("point violates x0^2 - x1^2 - x2^2 = 1, x0 > 0")

    def dist(self, p, q) -> float:
        if not (isinstance(p, np.ndarray) and isinstance(q, np.ndarray) and p.shape == (3,) and q.shape == (3,)):
            raise ModelMismatchError("hyperbolic distance expects hyperboloid points")
        # Difference form 2 asinh(|p - q|_M / 2) is stable near coincident
        # points, where acosh(<p, q>) loses half the significant digits.
        v = p - q
        s = v[1] * v[1] + v[2] * v[2] - v[0] * v[0]
        if s <= 0.0:
            return 0.0
        return 2.0 * math.asinh(0.5 * math.sqrt(s))

    def geodesic_point(self, p, q, t: float):
        self._check_t(t)
        if t == 0.0:
            return p
        if t == 1.0:
            return q
        d = self.dist(p, q)
        if d == 0.0:
            return p
        s = math.sinh(d)
        r = (math.sinh((1.0 - t) * d) / s) * p + (math.sinh(t * d) / s) * q
        return self.normalize(r)

    def from_polar(self, radius: float, angle: float) -> np.ndarray:
        return np.array(
            [math.cosh(radius), math.sinh(radius) * math.cos(angle), math.sinh(radius) * math.sin(angle)]
        )

    def random_point(self, rng: np.random.Generator):
        r = min(float(rng.exponential(1.0)), self.RADIUS_CAP)
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        return self.from_polar(r, theta)

    # tangent-space helpers used by the harmonic relaxation ----------------

    def log(self, p, q) -> np.ndarray:
        """Tangent vector at p pointing to q with Riemannian norm dist(p, q)."""
        d = self.dist(p, q)
        if d < 1e-15:
            return np.zeros(3)
        return d * (q - math.cosh(d) * p) / math.sinh(d)

    def exp(self, p, v: np.ndarray) -> np.ndarray:
        nrm2 = -(self.minkowski(v, v))
        if nrm2 <= 0.0:
            return p
        nrm = math.sqrt(nrm2)
        return self.normalize(math.cosh(nrm) * p + (math.sinh(nrm) / nrm) * v)

    def tangent_norm(self, v: np.ndarray) -> float:
        return math.sqrt(max(-(self.minkowski(v, v)), 0.0))

    def _local_grad(self, y, point_terms, iso_mats):
        """Riemannian gradient of the local objective at y."""
        ambient = np.zeros(3)
        for w, p in point_terms:
            h = self.minkowski(y, p)
            phi = self.dist(y, p)
            ambient += w * 2.0 * _safe_ratio(phi, h) * (_J @ p)
        for w, b in iso_mats:
            by = b @ y
            h = self.minkowski(y, by)
            phi = math.acosh(max(h, 1.0))
            grad_h = _J @ by + b.T @ (_J @ y)
            ambient += w * 2.0 * _safe_ratio(phi, h) * grad_h
        g = -(_J @ ambient) + float(y @ ambient) * y
        return g

    def local_min(self, y0, point_terms, iso_terms, cfg):
        """Riemannian gradient descent with Armijo backtracking."""
        iso_mats = [(w, a.so21_matrix()) for w, a in iso_terms]
        y = y0
        f = self.local_value(y, point_terms, iso_terms)
        step = 0.25 / max(sum(w for w, _ in point_terms) + sum(w for w, _ in iso_terms), 1e-12)
        for _ in range(cfg.max_inner_iterations):
            g = self._local_grad(y, point_terms, iso_mats)
            gnorm = self.tangent_norm(g)
            if gnorm < 1e-9:
                break
            t = step * 2.0
            improved = False
            while t * gnorm > 1e-16:
                y_try = self.exp(y, -t * g)
                f_try = self.local_value(y_try, point_terms, iso_terms)
                if f_try <= f - cfg.armijo_slope * t * gnorm * gnorm:
                    # refuse steps that no longer move the objective: they only
                    # drift the iterate along flat directions of the local term
                    if f - f_try <= cfg.inner_tolerance * max(1.0, abs(f)):
                        break
                    y, f = y_try, f_try
                    step = t
                    improved = True
                    break
                t *= cfg.armijo_backtrack
            if not improved:
                break
        return y

    def check_not_boundary_fixing(self, rho, search_radius: int) -> None:
        """The image must contain two hyperbolic elements with distinct axis endpoint sets."""
        endpoint_sets: list[tuple] = []
        for g in words.enumerate_ball(rho.alphabet_size, search_radius):
            ends = rho.evaluate(g).axis_endpoints()
            if ends is None:
                continue
            same = any(
                max(abs(_end_diff(a, b)) for a, b in zip(ends, other)) <= 1e-6
                for other in endpoint_sets
            )
            if not same:
                endpoint_sets.append(ends)
            if len(endpoint_sets) >= 2:
                return
        raise PreconditionError(
            "representation image fixes an ideal boundary point: no two "
            "hyperbolic elements with distinct axes found "
            f"(searched words up to length {search_radius})"
        )


class _TreeSpace(Space):
    """The geodesic walk that the two tree models share.

    A vertex is named by a key (a vertex index, or a reduced word).  A
    subclass supplies ``_anchors(p)``, the vertex keys of p's edge in the
    edge's own orientation with their arclength from p (one pair for a
    vertex); ``_vdist(u, v)`` and ``_vertex_path(u, v)`` between vertex
    keys; ``_edge(u, v)``, the edge between adjacent vertices as
    (first key, second key, length); and ``_at(a, b, r)``, the point at
    arclength r from a on the edge (a, b).
    """

    @staticmethod
    def _same_edge(ap, aq) -> bool:
        return len(ap) == 2 and len(aq) == 2 and ap[0][0] == aq[0][0] and ap[1][0] == aq[1][0]

    def dist(self, p, q) -> float:
        self.validate_point(p)
        self.validate_point(q)
        ap, aq = self._anchors(p), self._anchors(q)
        if self._same_edge(ap, aq):
            return abs(ap[0][1] - aq[0][1])
        best = math.inf
        for (u, cu) in ap:
            for (v, cv) in aq:
                best = min(best, cu + self._vdist(u, v) + cv)
        return best

    def _path_breakpoints(self, p, q):
        """The geodesic p -> q as ([piece, ...], total length).

        A piece is (cumulative arclength at its end, its edge (a, b, length),
        arclength from a where it starts, +1.0 or -1.0 for its direction).
        """
        ap, aq = self._anchors(p), self._anchors(q)
        if self._same_edge(ap, aq):
            (a, op), (b, _) = ap
            oq = aq[0][1]
            total = abs(op - oq)
            return [(total, self._edge(a, b), op, 1.0 if oq >= op else -1.0)], total
        # pick the anchor combination realizing the distance
        best = None
        for (u, cu) in ap:
            for (v, cv) in aq:
                total = cu + self._vdist(u, v) + cv
                if best is None or total < best[0] - 1e-15:
                    best = (total, u, v, cu, cv)
        _, u, v, cu, cv = best
        pieces = []
        cum = cu
        if len(ap) == 2:  # from p to its anchor u
            (a, op), (b, _) = ap
            pieces.append((cum, self._edge(a, b), op, -1.0 if u == a else 1.0))
        path = self._vertex_path(u, v)
        for x, y in zip(path, path[1:]):
            edge = self._edge(x, y)
            cum += edge[2]
            pieces.append((cum, edge, 0.0, 1.0) if x == edge[0] else (cum, edge, edge[2], -1.0))
        total = cum + cv
        if len(aq) == 2:  # from q's anchor v to q
            edge = self._edge(aq[0][0], aq[1][0])
            pieces.append((total, edge, 0.0, 1.0) if v == edge[0] else (total, edge, edge[2], -1.0))
        return pieces, total

    def geodesic_point(self, p, q, t: float):
        self._check_t(t)
        if t == 0.0:
            return p
        if t == 1.0:
            return q
        pieces, total = self._path_breakpoints(p, q)
        if total == 0.0:
            return p
        target = t * total
        ca = 0.0
        for cb, (a, b, length), r0, direction in pieces:
            if target <= cb + 1e-15 and cb > ca:
                # target may pass cb by rounding; clamp to the edge
                r = r0 + direction * (target - ca)
                return self._at(a, b, min(max(r, 0.0), length))
            ca = cb
        return q

    def _segment_min(self, a, b, f, tol: float = 1e-10):
        """Best point on the geodesic [a, b] for objective f."""
        if self.dist(a, b) < 1e-15:
            return a, f(a)
        s = golden_section(lambda s: f(self.geodesic_point(a, b, s)), 0.0, 1.0, tol)
        candidates = [a, self.geodesic_point(a, b, s), b]
        vals = [f(p) for p in candidates]
        i = int(np.argmin(vals))
        return candidates[i], vals[i]


class MetricTree(_TreeSpace):
    """A finite simplicial metric tree.

    ``vertices`` is a sequence of hashable ids; ``edges`` a sequence of
    (a, b, length) with length > 0.  Connectivity and acyclicity are
    checked at construction.  All-pairs vertex distances and next-hop
    tables are precomputed, so point distance is O(1) and interpolation
    walks the (short) vertex path.
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
            if length <= 0.0:
                raise DomainError(f"edge {a}-{b} has non-positive length {length}")
            if a not in self._index or b not in self._index:
                raise DomainError(f"edge {a}-{b} references unknown vertices")
            self.edges.append((a, b, float(length)))
        n = len(self.vertices)
        if len(self.edges) != n - 1:
            raise DomainError("a tree on n vertices has exactly n-1 edges")
        # (index of a, index of b, length) per edge
        self._ends = [(self._index[a], self._index[b], length) for a, b, length in self.edges]
        self._adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (edge_idx, other)
        self._edge_by_pair = {}
        for k, (ia, ib, _) in enumerate(self._ends):
            self._adj[ia].append((k, ib))
            self._adj[ib].append((k, ia))
            self._edge_by_pair[(ia, ib)] = k
            self._edge_by_pair[(ib, ia)] = k
        vdist, next_hop = self._all_pairs()
        if not np.all(np.isfinite(vdist)):
            raise DomainError("tree is not connected")
        self._vdist = vdist.item
        self._next_hop = next_hop.item

    def _all_pairs(self):
        n = len(self.vertices)
        dist = np.full((n, n), np.inf)
        nxt = np.full((n, n), -1, dtype=int)
        for root in range(n):
            dist[root, root] = 0.0
            nxt[root, root] = root
            stack = [root]
            seen = {root}
            while stack:
                u = stack.pop()
                for k, w in self._adj[u]:
                    if w in seen:
                        continue
                    seen.add(w)
                    dist[root, w] = dist[root, u] + self.edges[k][2]
                    # first step on the path root -> w
                    nxt[root, w] = w if u == root else nxt[root, u]
                    stack.append(w)
        return dist, nxt

    @classmethod
    def from_json(cls, data: dict) -> "MetricTree":
        edges = [(e["a"], e["b"], float(e["len"])) for e in data["edges"]]
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
        return self.edge_point(int(data["edge"]), float(data["offset"]))

    # point construction and canonicalization -------------------------------

    def vertex_point(self, v) -> TreePoint:
        if v not in self._index:
            raise InvalidPointError(f"unknown vertex {v!r}")
        return TreePoint(vertex=v)

    def edge_point(self, edge: int, offset: float) -> TreePoint:
        if not (0 <= edge < len(self.edges)):
            raise InvalidPointError(f"unknown edge index {edge}")
        a, b, length = self.edges[edge]
        if not (0.0 <= offset <= length):
            raise DomainError(f"offset {offset} outside [0, {length}]")
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
                raise DomainError("offset outside the edge")

    # the geodesic walk's pieces, on vertex indices -------------------------

    def _anchors(self, p: TreePoint) -> list[tuple[int, float]]:
        if p.edge is None:
            return [(self._index[p.vertex], 0.0)]
        ia, ib, length = self._ends[p.edge]
        return [(ia, p.offset), (ib, length - p.offset)]

    def _vertex_path(self, iu: int, iv: int) -> list[int]:
        path = [iu]
        while path[-1] != iv:
            path.append(self._next_hop(path[-1], iv))
        return path

    def _edge(self, iu: int, iv: int) -> tuple[int, int, float]:
        return self._ends[self._edge_by_pair[(iu, iv)]]

    def _at(self, ia: int, ib: int, r: float) -> TreePoint:
        return self.edge_point(self._edge_by_pair[(ia, ib)], r)

    def total_length(self) -> float:
        return sum(length for _, _, length in self.edges)

    def random_point(self, rng: np.random.Generator):
        k = int(rng.integers(0, len(self.edges)))
        offset = float(rng.uniform(0.0, self.edges[k][2]))
        return self.edge_point(k, offset)

    def local_min(self, y0, point_terms, iso_terms, cfg):
        """Convex search over every vertex and edge."""
        def f(y):
            return self.local_value(y, point_terms, iso_terms)

        best, best_val = y0, f(y0)
        for v in self.vertices:
            p = self.vertex_point(v)
            val = f(p)
            if val < best_val - 1e-15:
                best, best_val = p, val
        for a, b, _ in self.edges:
            pa, pb = self.vertex_point(a), self.vertex_point(b)
            p, val = self._segment_min(pa, pb, f, cfg.inner_tolerance)
            if val < best_val - 1e-15:
                best, best_val = p, val
        return best

    def check_not_boundary_fixing(self, rho, search_radius: int) -> None:
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
        return cls(int(data["rank"]))

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
            letter = words.parse_word(data["letter"], self.rank)[0]
            return self.edge_point(w, letter, float(data["t"]))
        return self.vertex_point(w)

    def vertex_point(self, w: words.Word) -> CayleyPoint:
        words.check_alphabet(w, self.rank)
        if words.reduce_word(w) != w:
            raise InvalidPointError("vertex word must be freely reduced")
        return CayleyPoint(word=w)

    def edge_point(self, w: words.Word, letter: int, t: float) -> CayleyPoint:
        """Point at parameter t along the edge from vertex w toward w*letter."""
        if not (0.0 <= t <= 1.0):
            raise DomainError("edge parameter outside [0, 1]")
        words.check_alphabet(w, self.rank)
        if letter == 0 or abs(letter) > self.rank:
            raise InvalidPointError(f"invalid letter {letter}")
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
        words.check_alphabet(p.word, self.rank)
        if p.letter != 0:
            if abs(p.letter) > self.rank:
                raise InvalidPointError(f"invalid letter {p.letter}")
            if not (0.0 < p.t < 1.0):
                raise DomainError("interior edge parameter must be in (0, 1)")

    # the geodesic walk's pieces, on reduced words --------------------------

    def _anchors(self, p: CayleyPoint) -> list[tuple[words.Word, float]]:
        if p.letter == 0:
            return [(p.word, 0.0)]
        far = words.multiply(p.word, (p.letter,))
        return [(p.word, p.t), (far, 1.0 - p.t)]

    @staticmethod
    def _vdist(u: words.Word, v: words.Word) -> int:
        return len(words.multiply(words.inverse(u), v))

    @staticmethod
    def _vertex_path(u: words.Word, v: words.Word) -> list[words.Word]:
        path = [u]
        for x in words.multiply(words.inverse(u), v):
            path.append(words.multiply(path[-1], (x,)))
        return path

    @staticmethod
    def _edge(u: words.Word, v: words.Word) -> tuple[words.Word, words.Word, float]:
        return (u, v, 1.0) if len(v) > len(u) else (v, u, 1.0)

    def _at(self, a: words.Word, b: words.Word, r: float) -> CayleyPoint:
        return self.edge_point(a, b[-1], r)

    def random_point(self, rng: np.random.Generator):
        k = int(rng.integers(0, self.RANDOM_WORD_CAP + 1))
        letters = []
        for _ in range(k):
            while True:
                x = int(rng.integers(1, self.rank + 1)) * (1 if rng.random() < 0.5 else -1)
                if not letters or letters[-1] != -x:
                    break
            letters.append(x)
        w = tuple(letters)
        if rng.random() < 0.5:
            return CayleyPoint(word=w)
        while True:
            x = int(rng.integers(1, self.rank + 1)) * (1 if rng.random() < 0.5 else -1)
            if not w or w[-1] != -x:
                break
        return self.edge_point(w, x, float(rng.uniform(0.0, 1.0)))

    def local_min(self, y0, point_terms, iso_terms, cfg):
        """Convex search over the subtree that the term targets span."""
        def f(y):
            return self.local_value(y, point_terms, iso_terms)

        # anchors: the current point and every term target (isometry images both ways)
        anchor_points = [y0] + [p for _, p in point_terms]
        for _, a in iso_terms:
            anchor_points.append(a.apply(y0))
            anchor_points.append(a.inverse().apply(y0))
        anchor_vertices: set[words.Word] = set()
        for p in anchor_points:
            for w, _ in self._anchors(p):
                anchor_vertices.add(w)
        # the subtree spanned by the anchors: vertices on all pairwise paths
        verts = set(anchor_vertices)
        anchors = list(anchor_vertices)
        for i in range(len(anchors)):
            for j in range(i + 1, len(anchors)):
                verts.update(self._vertex_path(anchors[i], anchors[j]))
        best, best_val = y0, f(y0)
        edges = set()
        for v in verts:
            p = self.vertex_point(v)
            val = f(p)
            if val < best_val - 1e-15:
                best, best_val = p, val
            if v:  # edge toward the parent vertex
                edges.add((v[:-1], v[-1]))
        for w, letter in edges:
            pa = self.vertex_point(w)
            pb = self.vertex_point(words.multiply(w, (letter,)))
            p, val = self._segment_min(pa, pb, f, cfg.inner_tolerance)
            if val < best_val - 1e-15:
                best, best_val = p, val
        return best

    def check_not_boundary_fixing(self, rho, search_radius: int) -> None:
        """The image must contain two non-commuting hyperbolic elements."""
        hyperbolics = []
        for g in words.enumerate_ball(rho.alphabet_size, search_radius):
            iso = rho.evaluate(g)
            if iso.translation_length() == 0:
                continue
            for h in hyperbolics:
                if words.multiply(iso.word, h) != words.multiply(h, iso.word):
                    return
            hyperbolics.append(iso.word)
        raise PreconditionError(
            "representation image fixes an end of the tree: no two "
            "non-commuting hyperbolic elements found "
            f"(searched words up to length {search_radius})"
        )


#: the one place a JSON "model" string picks a class
MODELS = {cls.model: cls for cls in (EuclideanSpace, HyperbolicPlane, MetricTree, CayleyTree)}


def space_from_json(data: dict) -> Space:
    """The space a JSON form describes."""
    cls = MODELS.get(data["model"])
    if cls is None:
        raise DomainError(f"unknown space model {data['model']!r}")
    return cls.from_json(data)


# ---------------------------------------------------------------------------
# comparison-inequality defects (signed; >= 0 means the inequality holds)


def triangle_defect(space: Space, P, Q, R, lam: float) -> float:
    """RHS - LHS of the CAT(0) triangle comparison at fraction lam on [Q, R]."""
    if not (0.0 <= lam <= 1.0):
        raise DomainError("lambda outside [0, 1]")
    q_lam = space.geodesic_point(Q, R, lam)
    d_pq = space.dist(P, Q)
    d_pr = space.dist(P, R)
    d_qr = space.dist(Q, R)
    d_pql = space.dist(P, q_lam)
    rhs = (1.0 - lam) * d_pq**2 + lam * d_pr**2 - lam * (1.0 - lam) * d_qr**2
    return rhs - d_pql**2


def quadrilateral_defect(space: Space, P, Q, R, S, t: float, alpha: float) -> float:
    """RHS - LHS of the Reshetnyak quadrilateral comparison.

    P_t lies on the geodesic P -> S, Q_t on the geodesic Q -> R.
    """
    if not (0.0 <= t <= 1.0 and 0.0 <= alpha <= 1.0):
        raise DomainError("t and alpha must lie in [0, 1]")
    p_t = space.geodesic_point(P, S, t)
    q_t = space.geodesic_point(Q, R, t)
    d_pq = space.dist(P, Q)
    d_rs = space.dist(R, S)
    d_ps = space.dist(P, S)
    d_qr = space.dist(Q, R)
    lhs = space.dist(p_t, q_t) ** 2
    rhs = (
        (1.0 - t) * d_pq**2
        + t * d_rs**2
        - t * (1.0 - t) * (alpha * (d_ps - d_qr) ** 2 + (1.0 - alpha) * (d_rs - d_pq) ** 2)
    )
    return rhs - lhs


def convexity_defect(space: Space, P, Q, R, S, t: float) -> float:
    """Slack in d(P_t, Q_t) <= (1-t) d(P,Q) + t d(R,S) (distance convexity)."""
    p_t = space.geodesic_point(P, S, t)
    q_t = space.geodesic_point(Q, R, t)
    return (1.0 - t) * space.dist(P, Q) + t * space.dist(R, S) - space.dist(p_t, q_t)


def project_to_segment(space: Space, a, b, y, tol: float = 1e-10):
    """Nearest point on the geodesic segment [a, b] to y, with its parameter.

    The objective s -> dist(y, geodesic_point(a, b, s)) is convex on a
    CAT(0) space, so golden-section search finds the global minimum.
    """
    def objective(s: float) -> float:
        return space.dist(y, space.geodesic_point(a, b, s))

    s_star = golden_section(objective, 0.0, 1.0, tol)
    # snap to the endpoints when the optimum sits on the boundary
    if objective(0.0) <= objective(s_star):
        s_star = 0.0
    elif objective(1.0) <= objective(s_star):
        s_star = 1.0
    return space.geodesic_point(a, b, s_star), s_star

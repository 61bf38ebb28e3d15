"""Equivariant piecewise-geodesic maps of graphs and their width functionals.

A map is encoded by its images of the vertices of a finite fundamental
graph whose directed edges carry group-element labels: the edge
(src, tgt, len, label) is sent to the constant-speed geodesic from
images[src] to rho(label) . images[tgt].  Everything else (length, energy,
geodesic homotopies, the W2 and Winf widths, convexity reports) is
computed from this finite description.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import words
from .errors import DomainError, GeowidthError
from .isometries import Representation
from .spaces import Space


@dataclass(frozen=True)
class Edge:
    src: object
    tgt: object
    length: float
    label: words.Word


class FundamentalGraph:
    """A finite connected graph without terminal vertices, with labelled edges."""

    def __init__(self, vertices: Sequence, edges: Sequence[Edge]):
        self.vertices = list(vertices)
        self.edges = list(edges)
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise DomainError("duplicate vertices")
        degree = {v: 0 for v in self.vertices}
        adj = {v: set() for v in self.vertices}
        for e in self.edges:
            if e.src not in vs or e.tgt not in vs:
                raise DomainError("edge endpoint not a graph vertex")
            if e.length <= 0.0:
                raise DomainError("edge lengths must be positive")
            degree[e.src] += 1
            degree[e.tgt] += 1
            adj[e.src].add(e.tgt)
            adj[e.tgt].add(e.src)
        if any(d <= 1 for d in degree.values()):
            raise DomainError("graph must have no terminal (degree-1) vertices")
        # connectivity
        if self.vertices:
            seen = {self.vertices[0]}
            stack = [self.vertices[0]]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if seen != vs:
                raise DomainError("graph must be connected")

    def total_length(self) -> float:
        return sum(e.length for e in self.edges)


def bouquet_graph(num_loops: int, vertex="v") -> FundamentalGraph:
    """One vertex with num_loops unit-length loop edges labelled by generators."""
    if num_loops < 1:
        raise DomainError("a bouquet needs at least one loop")
    edges = [Edge(vertex, vertex, 1.0, (i,)) for i in range(1, num_loops + 1)]
    return FundamentalGraph([vertex], edges)


class EquivariantMap:
    """A piecewise-geodesic equivariant map, determined by vertex images."""

    def __init__(self, graph: FundamentalGraph, rho: Representation, images: dict):
        self.graph = graph
        self.rho = rho
        self.images = dict(images)
        if set(self.images) != set(graph.vertices):
            raise DomainError("images must cover exactly the graph vertices")
        for p in self.images.values():
            rho.space.validate_point(p)
        # rho(label) applied to the target image, cached per edge
        self._far = [
            rho.act(e.label, self.images[e.tgt]) for e in graph.edges
        ]

    @property
    def space(self) -> Space:
        return self.rho.space

    def edge_endpoints(self, k: int):
        """Images of edge k's endpoints: (u(src), rho(label) . u(tgt))."""
        e = self.graph.edges[k]
        return self.images[e.src], self._far[k]

    def edge_image_length(self, k: int) -> float:
        a, b = self.edge_endpoints(k)
        return self.space.dist(a, b)

    def at(self, k: int, x: float):
        """Value at the point of edge k at arclength fraction x in [0, 1]."""
        if not (0.0 <= x <= 1.0):
            raise DomainError("edge coordinate outside [0, 1]")
        a, b = self.edge_endpoints(k)
        return self.space.geodesic_point(a, b, x)


def build_bouquet_map(rho: Representation, basepoint) -> EquivariantMap:
    """The orbit-graph map of a bouquet of loops, one loop per generator."""
    graph = bouquet_graph(rho.alphabet_size)
    return EquivariantMap(graph, rho, {"v": basepoint})


def length(u: EquivariantMap) -> float:
    """Total length: sum of the geodesic edge-image lengths."""
    return sum(u.edge_image_length(k) for k in range(len(u.graph.edges)))


def energy(u: EquivariantMap) -> float:
    """Energy of the constant-speed parameterization: sum of d^2 / len."""
    total = 0.0
    for k, e in enumerate(u.graph.edges):
        d = u.edge_image_length(k)
        total += d * d / e.length
    return total


def per_edge_table(u: EquivariantMap) -> list[dict]:
    """Per-edge lengths and energies (L_I, E_I, len_I)."""
    rows = []
    for k, e in enumerate(u.graph.edges):
        d = u.edge_image_length(k)
        rows.append({"edge": k, "len": e.length, "L": d, "E": d * d / e.length})
    return rows


def approx_length_density(
    space: Space,
    curve: Callable[[float], object],
    a: float,
    b: float,
    eps: float,
    step: float | None = None,
):
    """Two-sided difference-quotient speed samples of a curve on [a, b].

    Returns (ts, values) at interior samples where [t-eps, t+eps] fits in
    the interval.  Values carry the 1/2 normalization, so for a
    constant-speed geodesic they converge to the speed as eps -> 0.
    """
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    if eps > 0.5 * (b - a):
        raise DomainError("eps larger than half the interval")
    if step is None:
        step = eps / 4.0
    if step > eps / 4.0 + 1e-15:
        raise DomainError("sample step must resolve eps (step <= eps/4)")
    ts = np.arange(a + eps, b - eps + step * 0.5, step)
    vals = np.empty_like(ts)
    for i, t in enumerate(ts):
        fwd = space.dist(curve(t), curve(t + eps))
        bwd = space.dist(curve(t), curve(t - eps))
        vals[i] = (fwd + bwd) / (2.0 * eps)
    return ts, vals


class GeodesicHomotopy:
    """The geodesic homotopy between two maps over the same graph and rho."""

    def __init__(self, u: EquivariantMap, v: EquivariantMap):
        if u.graph is not v.graph and (
            [(e.src, e.tgt, e.length, e.label) for e in u.graph.edges]
            != [(e.src, e.tgt, e.length, e.label) for e in v.graph.edges]
        ):
            raise DomainError("maps must share the fundamental graph")
        if u.rho is not v.rho:
            raise DomainError("maps must share the representation")
        self.u = u
        self.v = v

    @property
    def space(self) -> Space:
        return self.u.space

    def at(self, s: float, k: int, x: float):
        """H(s, .) evaluated at the point of edge k at fraction x."""
        return self.space.geodesic_point(self.u.at(k, x), self.v.at(k, x), s)

    def map_at(self, s: float) -> EquivariantMap:
        """The intermediate map with vertex images interpolated at fraction s."""
        if not (0.0 <= s <= 1.0):
            raise DomainError("homotopy parameter outside [0, 1]")
        images = {
            v: self.space.geodesic_point(self.u.images[v], self.v.images[v], s)
            for v in self.u.graph.vertices
        }
        return EquivariantMap(self.u.graph, self.u.rho, images)

    def track_length(self, k: int, x: float) -> float:
        """l_H at the point of edge k at fraction x: dist(u(x), v(x))."""
        return self.space.dist(self.u.at(k, x), self.v.at(k, x))


def homotopy_width_inf(h: GeodesicHomotopy, check_samples: int = 0) -> float:
    """L-infinity width: max over the fundamental domain of dist(u(x), v(x)).

    Distance convexity puts the per-edge maximum at an edge endpoint, so
    only endpoint pairs are examined.  With check_samples > 0 a per-edge
    scan asserts the convexity reduction within 1e-9.
    """
    best = 0.0
    for k in range(len(h.u.graph.edges)):
        au, bu = h.u.edge_endpoints(k)
        av, bv = h.v.edge_endpoints(k)
        end_max = max(h.space.dist(au, av), h.space.dist(bu, bv))
        best = max(best, end_max)
        if check_samples > 0:
            for i in range(1, check_samples):
                x = i / check_samples
                val = h.track_length(k, x)
                if val > end_max + 1e-9:
                    raise GeowidthError(
                        f"convexity reduction violated on edge {k} at x={x}: "
                        f"{val} > {end_max}"
                    )
    return best


def homotopy_width_2_detailed(h: GeodesicHomotopy, samples_per_edge: int = 64):
    """L2 width by composite Simpson, with a Richardson error estimate.

    Returns (width, error_estimate); the estimate compares against the
    half-resolution rule, so it is deterministic.
    """
    if samples_per_edge < 2:
        raise DomainError("need at least 2 subintervals per edge")
    k_sub = samples_per_edge + (samples_per_edge % 2)  # Simpson needs even

    def integral(n_sub: int) -> float:
        total = 0.0
        for k, e in enumerate(h.u.graph.edges):
            xs = np.linspace(0.0, 1.0, n_sub + 1)
            fs = np.array([h.track_length(k, x) ** 2 for x in xs])
            w = np.ones(n_sub + 1)
            w[1:-1:2] = 4.0
            w[2:-1:2] = 2.0
            step = e.length / n_sub
            total += step / 3.0 * float(w @ fs)
        return total

    fine = integral(k_sub)
    coarse = integral(max(k_sub // 2, 2))
    width = math.sqrt(max(fine, 0.0))
    err = abs(fine - coarse) / 15.0
    err_width = err / (2.0 * width) if width > 1e-12 else math.sqrt(err)
    return width, err_width


def homotopy_width_2(h: GeodesicHomotopy, samples_per_edge: int = 64) -> float:
    return homotopy_width_2_detailed(h, samples_per_edge)[0]


@dataclass
class ConvexityRow:
    s: float
    length: float
    energy: float


def convexity_report(
    h: GeodesicHomotopy, s_grid: Sequence[float], tol: float = 1e-9
) -> list[ConvexityRow]:
    """Lengths and energies of the intermediate maps along the homotopy.

    Raises GeowidthError if the length or sqrt-energy convexity inequality
    fails beyond tol.
    """
    l_u, l_v = length(h.u), length(h.v)
    e_u, e_v = energy(h.u), energy(h.v)
    rows = []
    for s in s_grid:
        if not (0.0 <= s <= 1.0):
            raise DomainError(f"grid value {s} outside [0, 1]")
        m = h.map_at(s)
        l_s, e_s = length(m), energy(m)
        if l_s > (1.0 - s) * l_u + s * l_v + tol:
            raise GeowidthError(f"length convexity violated at s={s}")
        if math.sqrt(e_s) > (1.0 - s) * math.sqrt(e_u) + s * math.sqrt(e_v) + tol:
            raise GeowidthError(f"energy convexity violated at s={s}")
        rows.append(ConvexityRow(s=float(s), length=l_s, energy=e_s))
    return rows

"""Equivariant piecewise-geodesic maps of graphs and their width functionals.

A map is encoded by its images of the vertices of a finite fundamental graph
whose directed edges carry group-element labels: the edge (src, tgt, len,
label) is sent to the constant-speed geodesic from images[src] to
rho(label) . images[tgt].  Everything else (length, energy, geodesic
homotopies, the W2 and Winf widths, convexity reports, the last two from the
space's track kernels, with no map built) is computed from this.  The
constructor evaluates each label once, into ``isometries``, and measures
each edge image once, into ``edge_lengths``; ``with_images`` moves a map to
images that the library computed, sharing the isometries, unvalidated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import words
from .errors import DomainError, GeowidthError
from .isometries import Representation
from .spaces import Space

CONVEXITY_TOL = 1e-9  # convexity_report: slack allowed in each convexity inequality


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
            if not 0.0 < e.length < math.inf:  # NaN included
                raise DomainError("edge lengths must be positive and finite")
            degree[e.src] += 1
            degree[e.tgt] += 1
            adj[e.src].add(e.tgt)
            adj[e.tgt].add(e.src)
        if any(d <= 1 for d in degree.values()):
            raise DomainError("graph must have no terminal (degree-1) vertices")
        seen, stack = set(self.vertices[:1]), self.vertices[:1]
        while stack:
            reached = adj[stack.pop()] - seen
            seen |= reached
            stack.extend(reached)
        if seen != vs:
            raise DomainError("graph must be connected")

    def total_length(self) -> float:
        return sum(e.length for e in self.edges)


def bouquet_graph(num_loops: int) -> FundamentalGraph:
    """One vertex "v" with num_loops unit-length loop edges labelled by generators."""
    if num_loops < 1:
        raise DomainError("a bouquet needs at least one loop")
    edges = [Edge("v", "v", 1.0, (i,)) for i in range(1, num_loops + 1)]
    return FundamentalGraph(["v"], edges)


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
        #: rho(label) per edge
        self.isometries = [rho.evaluate(e.label) for e in graph.edges]
        self._measure()

    def with_images(self, images: dict) -> "EquivariantMap":
        """This map's graph and isometries at other images, which the library computed."""
        u = object.__new__(type(self))
        u.graph, u.rho, u.isometries, u.images = self.graph, self.rho, self.isometries, dict(images)
        u._measure()
        return u

    def _measure(self) -> None:
        """Far endpoint rho(label) . u(tgt), u(tgt) itself for the empty label, and image length of each edge."""
        edges, images, dist = self.graph.edges, self.images, self.space._dist
        self._far = [g.apply(images[e.tgt]) if e.label else images[e.tgt] for e, g in zip(edges, self.isometries)]
        self.edge_lengths = [dist(images[e.src], b) for e, b in zip(edges, self._far)]

    @property
    def space(self) -> Space:
        return self.rho.space

    def edge_endpoints(self, k: int):
        """Images of edge k's endpoints: (u(src), rho(label) . u(tgt))."""
        e = self.graph.edges[k]
        return self.images[e.src], self._far[k]


def build_bouquet_map(rho: Representation, basepoint) -> EquivariantMap:
    """The orbit-graph map of a bouquet of loops, one loop per generator."""
    graph = bouquet_graph(rho.alphabet_size)
    return EquivariantMap(graph, rho, {"v": basepoint})


def length(u: EquivariantMap) -> float:
    """Total length: sum of the geodesic edge-image lengths."""
    return sum(u.edge_lengths)


def energy(u: EquivariantMap) -> float:
    """Energy of the constant-speed parameterization: sum of d^2 / len."""
    total = 0.0
    for e, d in zip(u.graph.edges, u.edge_lengths):
        total += d * d / e.length
    return total


def per_edge_table(u: EquivariantMap) -> list[dict]:
    """Per-edge lengths and energies (L_I, E_I, len_I)."""
    return [
        {"edge": k, "len": e.length, "L": d, "E": d * d / e.length}
        for k, (e, d) in enumerate(zip(u.graph.edges, u.edge_lengths))
    ]


class GeodesicHomotopy:
    """The geodesic homotopy between two maps over the same graph and rho.

    H_s's edge lengths d(H_s(src), rho(label) . H_s(tgt)), like l_H(x) = d(u(x), v(x)), are measured over
    all s or x at once, by the space's track kernels, without building H_s."""

    def __init__(self, u: EquivariantMap, v: EquivariantMap):
        if u.graph is not v.graph and u.graph.edges != v.graph.edges:  # Edge compares its four fields
            raise DomainError("maps must share the fundamental graph")
        if u.rho is not v.rho:
            raise DomainError("maps must share the representation")
        self.u = u
        self.v = v

    @property
    def space(self) -> Space:
        return self.u.space

    def length_energy_at(self, s_grid: Iterable[float]) -> list[tuple[float, float, float]]:
        """(s, length, energy) of H_s for each s of s_grid, read once, from one ``_edge_track_lengths`` call per
        edge over the grid; each sums over the edges in edge order, as ``length`` and ``energy`` do."""
        s_grid = tuple(s_grid)
        for s in s_grid:
            if not (0.0 <= s <= 1.0):
                raise DomainError(f"homotopy parameter {s} outside [0, 1]")
        u, v, lengths, energies = self.u, self.v, [0.0] * len(s_grid), [0.0] * len(s_grid)
        for k, (e, g) in enumerate(zip(u.graph.edges, u.isometries)):
            ends = (u.images[e.src], v.images[e.src], u.images[e.tgt], v.images[e.tgt], g if e.label else None)
            for i, d_s in enumerate(self.space._edge_track_lengths(*ends, (u._far[k], v._far[k]), s_grid)):
                lengths[i] += d_s
                energies[i] += d_s * d_s / e.length
        return list(zip(s_grid, lengths, energies))

    def track_lengths(self, k: int, xs: Sequence[float]) -> list[float]:
        """l_H at the points of edge k at fractions xs, from one ``_track_lengths`` call."""
        if not all(0.0 <= x <= 1.0 for x in xs):
            raise DomainError("edge coordinate outside [0, 1]")
        return self.space._track_lengths(*self.u.edge_endpoints(k), *self.v.edge_endpoints(k), xs)


def homotopy_width_inf(h: GeodesicHomotopy) -> float:
    """L-infinity width: max over the fundamental domain of dist(u(x), v(x)).

    Distance convexity puts the per-edge maximum at an edge endpoint, so
    only endpoint pairs are examined.
    """
    best, dist = 0.0, h.space._dist
    for k in range(len(h.u.graph.edges)):
        au, bu = h.u.edge_endpoints(k)
        av, bv = h.v.edge_endpoints(k)
        best = max(best, dist(au, av), dist(bu, bv))
    return best


def homotopy_width_2_detailed(h: GeodesicHomotopy, samples_per_edge: int = 64):
    """L2 width by composite Simpson, with a Richardson error estimate.

    Returns (width, error_estimate); the estimate compares against the
    half-resolution rule on every other sample, so it is deterministic.  The
    subinterval count is rounded up to a multiple of 4: both rules need it even.
    Each edge's track lengths come from one ``track_lengths`` call.
    """
    if samples_per_edge < 2:
        raise DomainError("need at least 2 subintervals per edge")
    k_sub = -(-samples_per_edge // 4) * 4
    xs = np.linspace(0.0, 1.0, k_sub + 1)

    def simpson(fs: np.ndarray, step: float) -> float:
        w = np.ones(len(fs))
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return step / 3.0 * float(w @ fs)

    fine = coarse = 0.0
    for k, e in enumerate(h.u.graph.edges):
        fs = np.array([d ** 2 for d in h.track_lengths(k, xs)])
        fine += simpson(fs, e.length / k_sub)
        # a contiguous copy, so that the dot product sums as on a fresh array
        coarse += simpson(fs[::2].copy(), e.length / (k_sub // 2))
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


def convexity_report(h: GeodesicHomotopy, s_grid: Iterable[float]) -> list[ConvexityRow]:
    """Lengths and energies of the intermediate maps along the homotopy, from ``length_energy_at``.

    Raises DomainError, before any track is measured, on a grid value outside
    [0, 1], and GeowidthError if the length or sqrt-energy convexity
    inequality fails beyond ``CONVEXITY_TOL``.
    """
    l_u, l_v = length(h.u), length(h.v)
    e_u, e_v = energy(h.u), energy(h.v)
    rows = []
    for s, l_s, e_s in h.length_energy_at(s_grid):
        if l_s > (1.0 - s) * l_u + s * l_v + CONVEXITY_TOL:
            raise GeowidthError(f"length convexity violated at s={s}")
        if math.sqrt(e_s) > (1.0 - s) * math.sqrt(e_u) + s * math.sqrt(e_v) + CONVEXITY_TOL:
            raise GeowidthError(f"energy convexity violated at s={s}")
        rows.append(ConvexityRow(s=float(s), length=l_s, energy=e_s))
    return rows

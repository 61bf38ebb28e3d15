"""Energy minimization over equivariant piecewise-geodesic maps.

``relax`` runs deterministic cyclic coordinate descent on the vertex
images: each update replaces one image by the minimizer of its local
convex objective

    F_v(y) = sum_j w_j d^2(y, p_j)  +  sum_k w_k d^2(y, A_k y),

where the p_j are the rho-translated neighbour images and the A_k come
from loop edges.  A run reads the start map's edge isometries into a term
table and builds one map per sweep.  Two point terms alone have a closed
form (see ``relax``); other updates run the model's ``Space.local_min``,
and the model owns the estimator's non-elementarity precondition too.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .equivariant import (
    EquivariantMap,
    GeodesicHomotopy,
    build_bouquet_map,
    energy,
    homotopy_width_inf,
    length,
)
from .errors import DomainError, InvalidPointError, PreconditionError
from .isometries import Representation

PROBE_DIRECTIONS = 16  # stationarity_probe: random directions tried per vertex
PROBE_STEP = 1e-6  # stationarity_probe: length of each geodesic step


@dataclass
class RelaxationConfig:
    max_iterations: int = 2000
    displacement_tolerance: float = 1e-10

    def __post_init__(self):
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be >= 1")
        if not self.displacement_tolerance > 0.0:  # NaN included
            raise DomainError("displacement_tolerance must be positive")


@dataclass
class HarmonicResult:
    map: EquivariantMap
    e_star: float
    l_star: float
    iterations: int
    converged: bool
    energy_trace: list = field(default_factory=list)


def _term_table(u: EquivariantMap) -> dict:
    """Per vertex, in edge order: ([(weight, isometry, neighbour)], [(weight, loop isometry)]).

    The isometries are the map's own, inverted at an edge's target, and None for the empty label (the identity).
    """
    table = {v: ([], []) for v in u.graph.vertices}
    for e, g in zip(u.graph.edges, u.isometries):
        w = 1.0 / e.length
        if e.src == e.tgt:
            table[e.src][1].append((w, g))
        else:
            table[e.src][0].append((w, g if e.label else None, e.tgt))
            table[e.tgt][0].append((w, g.inverse() if e.label else None, e.src))
    return table


def _local_terms(terms, images: dict):
    """(weight, target_point) and (weight, isometry) terms of F_vertex at the current images."""
    point_terms, iso_terms = terms
    return [(w, images[n] if g is None else g.apply(images[n])) for w, g, n in point_terms], iso_terms


def relax(u0: EquivariantMap, cfg: RelaxationConfig | None = None) -> HarmonicResult:
    """Cyclic coordinate descent to a harmonic map: u0's isometries in one term table, one map per sweep.

    An update with two point terms (w1, p1), (w2, p2) and no loop term goes to the point at w2 / (w1 + w2) of the
    geodesic [p1, p2]: a = d(y, p1) and b = d(y, p2) have a + b >= d(p1, p2), with equality only on that unique
    geodesic, and F_v = w1 a^2 + w2 b^2 with a + b = d(p1, p2) is least there.  Where that point raises (a far
    hyperbolic pair), ``local_min`` runs, as it does for every other update."""
    cfg = cfg or RelaxationConfig()
    space = u0.space
    table = _term_table(u0)
    images = dict(u0.images)
    trace = [energy(u0)]
    converged = False
    for iterations in range(1, cfg.max_iterations + 1):
        max_disp = 0.0
        for v, terms in table.items():
            point_terms, iso_terms = _local_terms(terms, images)
            y_old, y_new = images[v], None
            if len(point_terms) == 2 and not iso_terms:
                (w1, p1), (w2, p2) = point_terms
                with contextlib.suppress(InvalidPointError, OverflowError):  # a far hyperbolic pair: local_min below
                    y_new = space._geodesic_point(p1, p2, w2 / (w1 + w2))
            if y_new is None:
                y_new = space.local_min(y_old, point_terms, iso_terms)
            # guard: never accept an increase of the local objective
            if space.local_value(y_new, point_terms, iso_terms) > space.local_value(y_old, point_terms, iso_terms):
                y_new = y_old
            max_disp = max(max_disp, space._dist(y_old, y_new))
            images[v] = y_new
        u = u0.with_images(images)
        trace.append(energy(u))
        if max_disp < cfg.displacement_tolerance:
            converged = True
            break
    return HarmonicResult(
        map=u, e_star=trace[-1], l_star=length(u), iterations=iterations, converged=converged, energy_trace=trace
    )


def stationarity_probe(result: HarmonicResult) -> float:
    """Largest objective decrease found by perturbing single vertex images.

    Moves every vertex image a geodesic step toward seeded random targets
    and reports the maximum decrease of the global objective (0 for an
    exact stationary point, up to roundoff).
    """
    u = result.map
    space = u.space
    rng = np.random.default_rng(7)
    worst = 0.0
    for v, terms in _term_table(u).items():
        point_terms, iso_terms = _local_terms(terms, u.images)
        f0 = space.local_value(u.images[v], point_terms, iso_terms)
        for _ in range(PROBE_DIRECTIONS):
            target = space.random_point(rng)
            d = space.dist(u.images[v], target)
            if d < PROBE_STEP:
                continue
            y_try = space.geodesic_point(u.images[v], target, PROBE_STEP / d)
            f_try = space.local_value(y_try, point_terms, iso_terms)
            worst = max(worst, f0 - f_try)
    return worst


def verify_harmonic_homotopy(
    r1: HarmonicResult, r2: HarmonicResult, s_grid: Iterable[float]
) -> list[tuple[float, float]]:
    """Energies along the geodesic homotopy between two minimizers, from ``GeodesicHomotopy.length_energy_at``.

    Asserts |E(H_s) - E_star| <= max(1e-6, 10 * displacement_tolerance * E_star)
    at every grid value; the harmonic-map energy is constant along the
    homotopy.
    """
    if not (r1.converged and r2.converged):
        raise PreconditionError("both relaxation results must have converged")
    h = GeodesicHomotopy(r1.map, r2.map)
    e_star = min(r1.e_star, r2.e_star)
    tol = max(1e-6, 10.0 * RelaxationConfig().displacement_tolerance * e_star)
    rows = []
    for s, _, e_s in h.length_energy_at(s_grid):
        if abs(e_s - e_star) > tol:
            raise PreconditionError(
                f"energy not constant along the homotopy: E({s}) = {e_s}, E* = {e_star}"
            )
        rows.append((float(s), e_s))
    return rows


def d_infinity(u: EquivariantMap, v: EquivariantMap) -> float:
    """Max distance between two maps over the fundamental domain.

    Distance convexity along the shared edge geodesics puts the maximum at
    an edge endpoint.
    """
    return max(u.space._dist(u.images[w], v.images[w]) for w in u.graph.vertices)


def main_lemma_ratio(u: EquivariantMap, r: HarmonicResult):
    """d_inf(u, u_bar) / (L(u) - L_star), or None when the gap vanishes.

    The harmonic comparison map u_bar is re-derived by relaxing from u
    itself, so that with non-unique minimizers the ratio is taken against
    a near-nearest minimizer; falls back to r.map when that refinement
    does not reach the energy minimum.
    """
    if not r.converged:
        raise PreconditionError("harmonic result must have converged")
    l_u = length(u)
    gap = l_u - r.l_star
    if gap <= 1e-12:
        return None
    refined = relax(u)
    u_bar = refined.map if (refined.converged and refined.e_star <= r.e_star + 1e-6) else r.map
    return d_infinity(u, u_bar) / gap


# --- non-elementarity checks and the width-constant estimator ---------------


def check_not_boundary_fixing(rho: Representation) -> None:
    """Raise PreconditionError unless the image visibly fixes no ideal point.

    Hyperbolic-plane and Cayley-tree targets: among words of length at most
    ``spaces.BOUNDARY_SEARCH_RADIUS``, the image must contain two hyperbolic
    elements with no common fixed end (tr[g, h] != 2 on the hyperbolic
    plane; words that do not commute on the Cayley tree).  Finite-tree
    targets have no ideal boundary; only trivial images are refused.
    Euclidean targets are not supported.
    """
    rho.space.check_not_boundary_fixing(rho)


@dataclass
class WidthConstantEstimate:
    c_hat: float
    samples: list


def estimate_width_constant(
    rho: Representation, trials: int = 1000, seed: int = 0
) -> WidthConstantEstimate:
    """Empirical lower bound for the width-inequality constant.

    Samples pairs of bouquet maps at random basepoints and returns the
    maximum of W_inf(H) / (L(u) + L(v)) together with the sample table.
    Deterministic under the seed.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    check_not_boundary_fixing(rho)
    rng = np.random.default_rng(seed)
    basepoints = [(rho.space.random_point(rng), rho.space.random_point(rng)) for _ in range(trials)]
    bouquet = build_bouquet_map(rho, basepoints[0][0])
    samples = []
    c_hat = 0.0
    for k, (y1, y2) in enumerate(basepoints):
        u, v = bouquet.with_images({"v": y1}), bouquet.with_images({"v": y2})
        w_inf = homotopy_width_inf(GeodesicHomotopy(u, v))
        denom = length(u) + length(v)
        ratio = 0.0 if denom <= 1e-15 else w_inf / denom
        c_hat = max(c_hat, ratio)
        samples.append({"trial": k, "w_inf": w_inf, "length_sum": denom, "ratio": ratio})
    return WidthConstantEstimate(c_hat=c_hat, samples=samples)

"""Energy minimization over equivariant piecewise-geodesic maps.

``relax`` runs deterministic cyclic coordinate descent on the vertex
images: each update replaces one image by the minimizer of its local
convex objective

    F_v(y) = sum_j w_j d^2(y, p_j)  +  sum_k w_k d^2(y, A_k y),

where the p_j are the rho-translated neighbour images and the A_k come
from loop edges.  The inner solver belongs to the model space
(``Space.local_min`` in :mod:`geowidth.spaces`), as does the
non-elementarity precondition of the width-constant estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .equivariant import (
    EquivariantMap,
    GeodesicHomotopy,
    build_bouquet_map,
    energy,
    homotopy_width_inf,
    length,
)
from .errors import DomainError, PreconditionError
from .isometries import Representation


@dataclass
class RelaxationConfig:
    max_iterations: int = 2000
    displacement_tolerance: float = 1e-10
    inner_tolerance: float = 1e-12
    # Armijo parameters for the hyperbolic inner loop
    armijo_backtrack: float = 0.5
    armijo_slope: float = 1e-4
    max_inner_iterations: int = 500

    def __post_init__(self):
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be >= 1")
        if self.displacement_tolerance <= 0.0 or self.inner_tolerance <= 0.0:
            raise DomainError("tolerances must be positive")


@dataclass
class HarmonicResult:
    map: EquivariantMap
    e_star: float
    l_star: float
    iterations: int
    converged: bool
    energy_trace: list = field(default_factory=list)


def _local_terms(u: EquivariantMap, vertex):
    """(weight, target_point) and (weight, isometry) terms of F_vertex."""
    point_terms = []
    iso_terms = []
    rho = u.rho
    for e in u.graph.edges:
        w = 1.0 / e.length
        if e.src == vertex and e.tgt == vertex:
            iso_terms.append((w, rho.evaluate(e.label)))
        elif e.src == vertex:
            point_terms.append((w, rho.act(e.label, u.images[e.tgt])))
        elif e.tgt == vertex:
            point_terms.append((w, rho.evaluate(e.label).inverse().apply(u.images[e.src])))
    return point_terms, iso_terms


def relax(u0: EquivariantMap, cfg: RelaxationConfig | None = None) -> HarmonicResult:
    """Cyclic coordinate descent to an equivariant harmonic map."""
    if cfg is None:
        cfg = RelaxationConfig()
    space = u0.space
    u = EquivariantMap(u0.graph, u0.rho, dict(u0.images))
    trace = [energy(u)]
    converged = False
    iterations = 0
    order = list(u0.graph.vertices)
    for it in range(cfg.max_iterations):
        iterations = it + 1
        max_disp = 0.0
        images = dict(u.images)
        for v in order:
            point_terms, iso_terms = _local_terms(u, v)
            y_old = images[v]
            y_new = space.local_min(y_old, point_terms, iso_terms, cfg)
            # guard: never accept an increase of the local objective
            if space.local_value(y_new, point_terms, iso_terms) > space.local_value(
                y_old, point_terms, iso_terms
            ):
                y_new = y_old
            max_disp = max(max_disp, space.dist(y_old, y_new))
            images[v] = y_new
            u = EquivariantMap(u0.graph, u0.rho, images)
        trace.append(energy(u))
        if max_disp < cfg.displacement_tolerance:
            converged = True
            break
    return HarmonicResult(
        map=u,
        e_star=trace[-1],
        l_star=length(u),
        iterations=iterations,
        converged=converged,
        energy_trace=trace,
    )


def stationarity_probe(
    result: HarmonicResult,
    directions: int = 16,
    step: float = 1e-6,
    seed: int = 7,
) -> float:
    """Largest objective decrease found by perturbing single vertex images.

    Moves every vertex image a geodesic step toward seeded random targets
    and reports the maximum decrease of the global objective (0 for an
    exact stationary point, up to roundoff).
    """
    u = result.map
    space = u.space
    rng = np.random.default_rng(seed)
    base = energy(u)
    worst = 0.0
    for v in u.graph.vertices:
        point_terms, iso_terms = _local_terms(u, v)
        f0 = space.local_value(u.images[v], point_terms, iso_terms)
        for _ in range(directions):
            target = space.random_point(rng)
            d = space.dist(u.images[v], target)
            if d < step:
                continue
            y_try = space.geodesic_point(u.images[v], target, step / d)
            f_try = space.local_value(y_try, point_terms, iso_terms)
            worst = max(worst, f0 - f_try)
    return worst


def verify_harmonic_homotopy(
    r1: HarmonicResult, r2: HarmonicResult, s_grid: Sequence[float]
) -> list[tuple[float, float]]:
    """Energies along the geodesic homotopy between two minimizers.

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
    for s in s_grid:
        e_s = energy(h.map_at(s))
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
    return max(
        u.space.dist(u.images[w], v.images[w]) for w in u.graph.vertices
    )


def main_lemma_ratio(
    u: EquivariantMap, r: HarmonicResult, cfg: RelaxationConfig | None = None
):
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
    refined = relax(u, cfg)
    u_bar = refined.map if (refined.converged and refined.e_star <= r.e_star + 1e-6) else r.map
    return d_infinity(u, u_bar) / gap


# --- non-elementarity checks and the width-constant estimator ---------------


def check_not_boundary_fixing(rho: Representation, search_radius: int = 3) -> None:
    """Raise PreconditionError unless the image visibly fixes no ideal point.

    Hyperbolic-plane targets: the image must contain two hyperbolic
    elements with distinct axis endpoint sets.  Cayley-tree targets: two
    non-commuting hyperbolic (positive translation length) elements.
    Finite-tree targets have no ideal boundary; only trivial images are
    refused.  Euclidean targets are not supported.
    """
    rho.space.check_not_boundary_fixing(rho, search_radius)


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
    space = rho.space
    samples = []
    c_hat = 0.0
    for k in range(trials):
        y1 = space.random_point(rng)
        y2 = space.random_point(rng)
        u = build_bouquet_map(rho, y1)
        v = build_bouquet_map(rho, y2)
        w_inf = homotopy_width_inf(GeodesicHomotopy(u, v))
        denom = length(u) + length(v)
        ratio = 0.0 if denom <= 1e-15 else w_inf / denom
        c_hat = max(c_hat, ratio)
        samples.append({"trial": k, "w_inf": w_inf, "length_sum": denom, "ratio": ratio})
    return WidthConstantEstimate(c_hat=c_hat, samples=samples)

"""CAT(0) model spaces, equivariant maps of graphs, geodesic homotopy
widths, harmonic relaxation, and list conjugacy in free groups."""

__version__ = "0.1.0"

from .spaces import (
    CayleyTree,
    EuclideanSpace,
    HyperbolicPlane,
    MetricTree,
    comparison_sweep,
    convexity_defect,
    quadrilateral_defect,
    triangle_defect,
)
from .words import enumerate_ball, inverse, multiply, parse_word, word_to_str
from .isometries import (
    CayleyTranslation,
    EuclideanIsometry,
    HyperbolicIsometry,
    Representation,
    TreeAutomorphism,
    orbit_distance,
)
from .equivariant import (
    Edge,
    EquivariantMap,
    FundamentalGraph,
    GeodesicHomotopy,
    build_bouquet_map,
    convexity_report,
    energy,
    homotopy_width_2,
    homotopy_width_inf,
    length,
)
from .harmonic import (
    HarmonicResult,
    RelaxationConfig,
    estimate_width_constant,
    main_lemma_ratio,
    relax,
    verify_harmonic_homotopy,
)
from .conjugacy import (
    ConjugacyCertificate,
    ConjugacyInstance,
    free_group_oracle,
    orbit_bound_report,
    search_radius,
    solve,
    verify,
)

"""Level sets of 1-Holder-alpha functions on fractals.

Exact geometry of the Sierpinski subdivision, conductivity-based lower
bounds, the Bernoulli-measure upper-bound witness, separated-structure
degeneracy and the fat-Cantor phase transition.  The package holds what
the CLI, the README and the benchmark run; the slow exact paths that
check it (the Q(sqrt(3)) arithmetic, the whole-family enumeration, the
IFS separated structure) are test oracles under ``tests/``.
"""

from .exact import CoordQ3, PointQ3, QSqrt3
from .paf import (
    HolderCertificate,
    HolderParams,
    PiecewiseAffineFn,
    holder_certificate,
    random_standard_paf,
)
from .bernoulli import BernoulliWitnessFn
from .graft import GraftedFn, graft, graft_certificate_constant, min_graft_level
from .levelset import (
    LevelSetTree,
    LevelValue,
    kappa_exponent,
    well_conducting_census,
)
from .bounds import (
    BoundSearchParams,
    DimensionEstimate,
    box_count_dimension,
    census_constant,
    feasible_l,
    lower_bound,
    mass_distribution_lower,
    trivial_upper_bound_sierpinski,
    upper_bound,
)
from .cantor import (
    FatCantorSet,
    PhaseTransitionConfig,
    SeparatedStructure,
    cantor_level,
    capacity_gap,
    feasibility_search,
    phase_perturbation,
    piecewise_constant_feasibility,
    product_separated_structure,
)
from .triangles import (
    boundary_family,
    line_crossing_count,
    line_crossing_count_geometric,
    triangle_vertices,
)

__version__ = "0.1.0"

__all__ = [
    "BernoulliWitnessFn", "BoundSearchParams", "CoordQ3", "DimensionEstimate",
    "FatCantorSet", "GraftedFn", "HolderCertificate", "HolderParams", "LevelSetTree",
    "LevelValue", "PhaseTransitionConfig", "PiecewiseAffineFn", "PointQ3", "QSqrt3",
    "SeparatedStructure", "boundary_family", "box_count_dimension", "cantor_level",
    "capacity_gap", "census_constant", "feasibility_search", "feasible_l", "graft",
    "graft_certificate_constant", "holder_certificate", "kappa_exponent",
    "line_crossing_count", "line_crossing_count_geometric", "lower_bound",
    "mass_distribution_lower", "min_graft_level", "phase_perturbation",
    "piecewise_constant_feasibility", "product_separated_structure", "random_standard_paf",
    "triangle_vertices", "trivial_upper_bound_sierpinski", "upper_bound",
    "well_conducting_census",
]

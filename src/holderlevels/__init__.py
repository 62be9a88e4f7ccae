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
    affine_from_corners,
    constant_fn,
    holder_certificate,
    random_standard_paf,
)
from .bernoulli import BernoulliWitnessFn, bernoulli_cdf, dyadic_cylinder_mass
from .graft import GraftedFn, graft, graft_certificate_constant, min_graft_level
from .levelset import (
    ApproxLevelSet,
    LevelSetTree,
    LevelValue,
    approx_level_set,
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
    BoundaryFamilyL,
    boundary_family,
    line_crossing_count,
    line_crossing_count_geometric,
    triangle_vertices,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""The public surface, and the names that left the library for the tests.

The package exports exactly the names below, written out in its
``__all__``: no submodule name is exported.  The Q(sqrt(3)) ring and
field arithmetic now lives in ``geometry_oracle`` and the other code only
the tests ran in ``helpers``; an AST scan of the library, the benchmark
and the tools finds none of those names, and the options and members
that went with them are gone from the classes that remain.
"""

import ast
import inspect
from pathlib import Path

import holderlevels
from holderlevels.exact import CoordQ3, PointQ3, QSqrt3
from holderlevels.levelset import approx_level_set
from holderlevels.paf import PiecewiseAffineFn

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "ApproxLevelSet", "BernoulliWitnessFn", "BoundSearchParams", "CoordQ3",
    "DimensionEstimate", "FatCantorSet", "GraftedFn", "HolderCertificate",
    "HolderParams", "LevelSetTree", "LevelValue", "PhaseTransitionConfig",
    "PiecewiseAffineFn", "PointQ3", "QSqrt3", "SeparatedStructure",
    "affine_from_corners", "approx_level_set", "bernoulli_cdf", "boundary_family",
    "box_count_dimension", "cantor_level", "capacity_gap", "census_constant",
    "constant_fn", "dyadic_cylinder_mass", "feasibility_search", "feasible_l",
    "graft", "graft_certificate_constant", "holder_certificate", "kappa_exponent",
    "line_crossing_count", "line_crossing_count_geometric", "lower_bound",
    "mass_distribution_lower", "min_graft_level", "phase_perturbation",
    "piecewise_constant_feasibility", "product_separated_structure",
    "random_standard_paf", "triangle_vertices", "trivial_upper_bound_sierpinski",
    "upper_bound", "well_conducting_census",
]

# deleted, or moved to tests/geometry_oracle.py and tests/helpers.py
REMOVED = {
    # levelset: deleted wrappers of LevelSetTree and extreme_pair
    "conductivity", "conservation_check", "conductivity_measure",
    "ExtremeLabeling", "extreme_labeling",
    # levelset and triangles: the whole-family enumeration
    "_corner_values_checked", "subdivision_addresses", "iter_subdivision_addresses",
    # cantor: the IFS structure and its option
    "ifs_separated_structure", "AffineMap1D", "Cylinder", "self_similar",
    "_IFS_LEVELS", "_IFS_BASE",
    # cantor: the Fraction endpoint shift and the rectangle distance
    "_right_shift", "_distance_sq",
    # paf: the Fraction word table beside the integer one; cantor: the
    # log2 sides outside the one feasibility decision
    "word_table", "_words", "_log2_sides",
    # triangles and levelset: the wrapper around the boundary words and
    # the dict caches beside the cached functions
    "BoundaryFamilyL", "_boundary_words", "_BOUNDARY_CACHE", "_DIGIT_CACHE", "_STEPS_CACHE",
    # exact and triangles: the ring and field arithmetic
    "SQRT3", "from_fraction", "from_coord", "sign", "is_rational", "as_fraction",
    "inverse", "dist_sq", "scale_pow2", "_coerce", "_is_power_of_two",
    "rescaled_construction_triangles",
    "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__radd__",
    "__truediv__", "__rtruediv__", "__lt__", "__le__", "__gt__", "__ge__", "__float__",
}


def _identifiers(tree: ast.AST):
    """(line, identifier) for every name a module binds, reads or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.arg):
            yield node.lineno, node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.value.lineno, node.arg
        elif isinstance(node, ast.alias):
            yield node.lineno, (node.asname or node.name).split(".")[-1]
            yield node.lineno, node.name.split(".")[-1]


def test_public_names_are_pinned():
    assert sorted(holderlevels.__all__) == PUBLIC


def test_removed_names_appear_nowhere_outside_the_tests():
    files = [p for d in ("src", "perfbench", "tools") for p in sorted((ROOT / d).rglob("*.py"))]
    assert files
    hits = [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path in files
            for line, name in _identifiers(ast.parse(path.read_text(), str(path)))
            if name in REMOVED]
    assert hits == []


def test_value_types_and_removed_members():
    # the exact types keep no arithmetic beyond what midpoint needs
    assert set(vars(CoordQ3)) & REMOVED == set()
    assert set(vars(QSqrt3)) & REMOVED == set()
    assert {"__add__", "__sub__", "__neg__"} & set(vars(PointQ3)) == set()
    assert "values" not in vars(PiecewiseAffineFn)
    assert "method" not in inspect.signature(approx_level_set).parameters

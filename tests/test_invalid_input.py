"""Invalid input at the library boundary is a ValueError that names the parameter.

Every exported callable is called with negative, zero, NaN and
out-of-range values of one argument at a time, the others valid; the
rows read by the argument readers of ``triangles`` also get None and a
str, and the count rows a float.  A bool is an int to Python but no
depth and no boundary parameter, so the function levels, the
certificate and tree depths, the capacity gap's k and every l are also
called with True.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import holderlevels as hl
from holderlevels.cantor import product_separated_structure
from test_floor import third_up

F = Fraction
nan, inf = math.nan, math.inf

_FN, _R = third_up(7, 3)
_STRUCTURE = product_separated_structure(3)
_WITNESS = hl.BernoulliWitnessFn.for_alpha(0.5)

# (callable of the bad value, the bad values, a fragment the message holds)
CASES = {
    "holder_certificate alpha": (lambda v: hl.holder_certificate(_FN, v, 0.9, 4),
                                 [nan, 0, -1, 2, None, "abc"], "alpha"),
    "holder_certificate c": (lambda v: hl.holder_certificate(_FN, 0.5, v, 4),
                             [nan, 0, -1, inf, None, "abc"], "c must"),
    "holder_certificate depth": (lambda v: hl.holder_certificate(_FN, 0.5, 0.9, v),
                                 [-1, 0, nan, None, "abc", 1.5, True], "depth"),
    "feasibility_search k_cap": (lambda v: hl.feasibility_search(0.6, 0.5, 1.0, _STRUCTURE,
                                                                 k_cap=v),
                                 [-1, -5, 1.5, None], "k_cap"),
    "feasibility_search alpha": (lambda v: hl.feasibility_search(v, 0.5, 1.0, _STRUCTURE, 3),
                                 [nan, 0, -1, 2, None, "abc"], "alpha"),
    "piecewise_constant_feasibility M": (
        lambda v: hl.piecewise_constant_feasibility(0.6, 0.5, v, _STRUCTURE, 3),
        [nan, -1, None, "abc"], "M"),
    "piecewise_constant_feasibility c": (
        lambda v: hl.piecewise_constant_feasibility(0.6, v, 1.0, _STRUCTURE, 3),
        [nan, 0, -1, 2, None, "abc"], "c"),
    "piecewise_constant_feasibility k": (
        lambda v: hl.piecewise_constant_feasibility(0.6, 0.5, 1.0, _STRUCTURE, v),
        [-1, 1.5, None], "k must"),
    "product_separated_structure k_max": (hl.product_separated_structure, [-1, 0, 1], "k_max"),
    "BoundSearchParams l": (lambda v: hl.BoundSearchParams(1.0, F(1, 2), v),
                             [0, -2, 1.5, 2.0, F(3, 2), True], "int l >= 1"),
    "BoundSearchParams alpha": (lambda v: hl.BoundSearchParams(v, F(1, 2), 1),
                                [nan, 0, -1, 2, None, "abc"], "alpha must"),
    "HolderParams alpha": (lambda v: hl.HolderParams(v, 0.9), [nan, 0, -1, 2, None, "abc"],
                           "alpha"),
    "HolderParams c": (lambda v: hl.HolderParams(0.5, v), [nan, 0, -1, inf, None, "abc"],
                       "c must"),
    "LevelValue r": (lambda v: hl.LevelValue.checked(v, _FN),
                     [nan, inf, -inf, "abc", "1/0", None], "level r"),
    "LevelSetTree r": (lambda v: hl.LevelSetTree(_FN, v, 1, 2), [nan, inf], "level r"),
    "PhaseTransitionConfig alpha": (
        lambda v: hl.PhaseTransitionConfig(v, F(1, 2), 2, 1, 1, 0.2),
        [nan, 0, -1, 2, None, "abc"], "alpha"),
    "PhaseTransitionConfig c": (lambda v: hl.PhaseTransitionConfig(0.6, v, 2, 1, 1, 0.2),
                                [nan, 0, -1, 1, inf, None, "abc"], "c < 1"),
    "PhaseTransitionConfig k": (lambda v: hl.PhaseTransitionConfig(0.6, F(1, 2), v, 0, 0, 0.2),
                                [0, -1], "k >= 1"),
    "PhaseTransitionConfig ix": (lambda v: hl.PhaseTransitionConfig(0.6, F(1, 2), 2, v, 0, 0.2),
                                 [-1, 4, 9], "ix must"),
    "PhaseTransitionConfig iy": (lambda v: hl.PhaseTransitionConfig(0.6, F(1, 2), 2, 0, v, 0.2),
                                 [-1, 4, 9], "iy must"),
    "PhaseTransitionConfig delta": (
        lambda v: hl.PhaseTransitionConfig(0.6, F(1, 2), 2, 1, 1, v),
        [nan, 0, -5, inf, None, "abc"], "delta must"),
    "BoundSearchParams d1": (lambda v: hl.BoundSearchParams(1.0, v, 1),
                             [F(0), F(-1, 2), F(2), 0.5, 0.1, "1/2"], "d1"),
    "box_count_dimension digits": (hl.box_count_dimension,
                                   [[2, 0], [0, -1], [nan], [0.5], 0, None], "digits"),
    "line_crossing_count digits": (hl.line_crossing_count, [[2, 0], [0, -1], [nan], 0, None],
                                   "digits"),
    "line_crossing_count_geometric level": (
        lambda v: hl.line_crossing_count_geometric(F(1, 3), v), [-1, -4, 1.5, None], "level"),
    "line_crossing_count_geometric y": (lambda v: hl.line_crossing_count_geometric(v, 3),
                                        [F(0), F(-1, 3), F(4, 3), None, "abc", nan],
                                        "height"),
    "BernoulliWitnessFn p": (hl.BernoulliWitnessFn, [nan, 0, -1, 2, 0.5, 1], "p must"),
    "BernoulliWitnessFn.value_at_height y": (_WITNESS.value_at_height, [nan, -1, 2],
                                             r"\[0, 1\]"),
    "BernoulliWitnessFn max_depth": (lambda v: hl.BernoulliWitnessFn(0.7, max_depth=v),
                                     [-1, 1.5, None], "max_depth"),
    # p = 0.7 means alpha = -log2(0.7) = 0.5146
    "BernoulliWitnessFn alpha": (lambda v: hl.BernoulliWitnessFn(0.7, alpha=v),
                                 [0.1, 0.999, 0.5147, nan, 0, 1], "alpha"),
    "min_graft_level lipschitz": (lambda v: hl.min_graft_level(v, 0.5),
                                  [nan, 0, -1, inf, None, "abc"], "lipschitz"),
    "min_graft_level alpha": (lambda v: hl.min_graft_level(1.0, v),
                              [nan, 0, -1, 1, 2, None, "abc"], "alpha"),
    "graft_certificate_constant lipschitz": (
        lambda v: hl.graft_certificate_constant(v, 0.5, 3), [nan, -1, inf, None, "abc"],
        "lipschitz"),
    "graft_certificate_constant alpha": (
        lambda v: hl.graft_certificate_constant(1.0, v, 3), [nan, 0, -1, 2, None, "abc"],
        "alpha"),
    "graft_certificate_constant n_prime": (
        lambda v: hl.graft_certificate_constant(1.0, 0.5, v), [-1, 1.5, None], "n_prime"),
    "census_constant d1": (lambda v: hl.census_constant(1.0, v, 2),
                           [nan, 0, -1, None, "abc", inf, "1/0"], "d1"),
    "census_constant alpha": (lambda v: hl.census_constant(v, F(1, 2), 2),
                              [nan, 0, -1, 2, None, "abc"], "alpha"),
    "census_constant l": (lambda v: hl.census_constant(1.0, F(1, 2), v), [0, -1, 1.5, True],
                          "l >= 1"),
    "feasible_l alpha": (lambda v: hl.feasible_l(v, F(1, 4)), [nan, 0, -1, 2, None, "abc"],
                         "alpha"),
    "feasible_l d1": (lambda v: hl.feasible_l(0.6, v), [nan, 0, -1, 2, None, "abc", inf, "1/0"],
                      "d1"),
    "lower_bound alpha": (hl.lower_bound, [nan, 0, -1, 2, None, "abc"], "alpha"),
    "upper_bound alpha": (hl.upper_bound, [nan, 0, -1, 2, None, "abc"], "alpha"),
    "lower_bound precision": (lambda v: hl.lower_bound(0.5, v), ["quad", "", "Big"],
                              "precision"),
    "upper_bound precision": (lambda v: hl.upper_bound(0.5, v), ["quad", "", "Big"],
                              "precision"),
    "trivial_upper_bound_sierpinski precision": (hl.trivial_upper_bound_sierpinski,
                                                 ["quad", "", "Big"], "precision"),
    "triangle_vertices word": (hl.triangle_vertices, ["3", "01-"], "address"),
    "capacity_gap k": (lambda v: hl.capacity_gap(v, 0.75), [-1, 0, 1.5, nan, None, "abc", True],
                       "k must|k >= 1"),
    "capacity_gap alpha": (lambda v: hl.capacity_gap(3, v), [nan, 0, -1, 2, None, "abc"],
                           "alpha"),
    "cantor_level n": (hl.cantor_level, [-1, 1.5, None], "n must"),
    "FatCantorSet n": (hl.FatCantorSet, [-1, 1.5, None], "n must"),
    "boundary_family l": (hl.boundary_family, [0, -1, 1.5, 2.0, "2", None, [1], True], "l >= 1"),
    "random_standard_paf level": (lambda v: hl.random_standard_paf(1, v, 0.5, 0.9, check=False),
                                  [-1, 0, 1.5, nan, None, "abc", True], "level"),
    "random_standard_paf alpha": (lambda v: hl.random_standard_paf(1, 2, v, 0.9, check=False),
                                  [nan, 0, -1, 2, None, "abc"], "alpha"),
    "random_standard_paf c": (lambda v: hl.random_standard_paf(1, 2, 0.5, v, check=False),
                              [nan, 0, -1, inf, None, "abc"], "c must"),
    "PiecewiseAffineFn.refine level": (_FN.refine, [-1, 2, 1.5, 4.5, nan, None, "abc", True],
                                       "level"),
    "kappa_exponent l": (lambda v: hl.kappa_exponent(_FN, "01", v), [0, -1, 1.5, 2.0, True],
                         "int l >= 1"),
    "kappa_exponent word": (lambda v: hl.kappa_exponent(_FN, v, 1), [12, None, "0a"],
                            "address"),
    "LevelSetTree l": (lambda v: hl.LevelSetTree(_FN, _R, v, 2), [0, -1, 1.5, 2.0, True],
                       "int l >= 1"),
    "LevelSetTree depth": (lambda v: hl.LevelSetTree(_FN, _R, 1, v),
                           [-1, -3, 2.5, 5.5, 2.0, True], "depth"),
    "LevelSetTree.extend depth": (lambda v: hl.LevelSetTree(_FN, _R, 1).extend(v),
                                  [-1, 1.5, 2.0, F(2)], "depth"),
    "LevelSetTree.nodes_at level": (lambda v: hl.LevelSetTree(_FN, _R, 1).nodes_at(v),
                                    [-1, 1.5, 2.0], "level"),
    "LevelSetTree.fill_measure depth": (lambda v: hl.LevelSetTree(_FN, _R, 1).fill_measure(v),
                                        [-1, 1.5, 2.0], "depth"),
    "LevelSetTree.conservation k": (lambda v: hl.LevelSetTree(_FN, _R, 1).conservation("", v),
                                    [-1, 1.5, 2.0], "k must"),
    "LevelSetTree.histogram n": (lambda v: hl.LevelSetTree(_FN, _R, 1).histogram(v),
                                 [-1, -3, 1.5, 2.0], "n must"),
    "LevelSetTree.histograms n": (lambda v: hl.LevelSetTree(_FN, _R, 1).histograms(v),
                                  [-1, -3, 1.5, 2.0], "n must"),
    "LevelSetTree.find word": (lambda v: hl.LevelSetTree(_FN, _R, 1).find(v),
                               ["ab9", "01x", 12, None, ["0", "1"]], "address"),
    "LevelSetTree.conservation word": (lambda v: hl.LevelSetTree(_FN, _R, 1).conservation(v, 1),
                                       ["01x", "3"], "address"),
    "LevelSetTree.histograms first": (lambda v: hl.LevelSetTree(_FN, _R, 1).histograms(2, v),
                                      [-1, 3, 0.5, 1.0], "first must"),
    "well_conducting_census n": (
        lambda v: hl.well_conducting_census(_FN, None, v, 1, F(1, 2), alpha=0.5),
        [-2, 4.0, F(4), 2.5], "n must"),
    "well_conducting_census l": (
        lambda v: hl.well_conducting_census(_FN, None, 2, v, F(1, 2), alpha=0.5),
        [0, -1, 1.5, 2.0, True], "int l >= 1"),
    "well_conducting_census d1": (
        lambda v: hl.well_conducting_census(_FN, None, 2, 1, v, alpha=0.5),
        [0, F(-1, 2), nan, inf, "abc", "1/0", None], "d1"),
    "well_conducting_census alpha": (
        lambda v: hl.well_conducting_census(_FN, None, 2, 1, F(1, 2), alpha=v),
        [nan, 0, -1, 2, None, "abc"], "alpha"),
    "mass_distribution_lower n_prime_max": (
        lambda v: hl.mass_distribution_lower(_FN, _R, hl.BoundSearchParams(1.0, F(1, 2), 1), v),
        [0, -1, 1.5, 2.0], "n_prime_max"),
    "graft n_prime": (lambda v: hl.graft(_FN, v, _WITNESS), [-1, 0], "level"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_bad_arguments_raise_a_named_value_error(name):
    call, values, fragment = CASES[name]
    for value in values:
        with pytest.raises(ValueError, match=fragment):
            call(value)


def test_a_bad_address_is_refused_before_the_tree_grows():
    tree = hl.LevelSetTree(_FN, _R, 1)
    for call in (lambda: tree.find("ab9"), lambda: tree.conservation("01x", 1)):
        with pytest.raises(ValueError, match="invalid address"):
            call()
        assert tree.depth == 0


ALPHA_CALLS = [name for name in CASES if name.endswith(" alpha")]
outside_unit_interval = st.one_of(
    st.floats(max_value=0.0), st.floats(min_value=1.0, exclude_min=True), st.just(nan),
    st.none(), st.text())


@given(st.sampled_from(ALPHA_CALLS), outside_unit_interval)
@settings(max_examples=200, deadline=None)
def test_alpha_outside_the_unit_interval_is_refused(name, alpha):
    # a witness's alpha None means "-log2(p)"
    assume(not (alpha is None and name == "BernoulliWitnessFn alpha"))
    call, _, fragment = CASES[name]
    with pytest.raises(ValueError, match=fragment):
        call(alpha)


def test_every_exported_callable_is_swept():
    # the value types, the result types and the perturbation (whose
    # config validates itself at construction) aside, every exported
    # function or class is called with bad input above, itself or
    # through a method ("Class.method parameter")
    swept = {name.split()[0].split(".")[0] for name in CASES}
    skipped = {"CoordQ3", "DimensionEstimate", "GraftedFn", "HolderCertificate",
               "PointQ3", "QSqrt3", "SeparatedStructure", "phase_perturbation"}
    assert swept | skipped == set(hl.__all__)
    assert swept & skipped == set()

"""Invalid input at the library boundary is a ValueError that names the parameter.

Every exported callable is called with negative, zero, NaN and
out-of-range values of one argument at a time, the others valid; the
rows read by the argument readers of ``triangles`` also get None and a
str, and the count rows a float.  A bool is an int to Python but no
depth and no boundary parameter, so the function levels, the
certificate and tree depths, the capacity gap's k and every l are also
called with True.

Every row also gets the value zoo ``ZOO``: each of its values is refused
with the row's fragment unless ``ACCEPTED`` lists it for the row, with
the reason (or ``OTHER_ERROR`` names the error that refuses it).  A
``Decimal`` is no real to ``triangles._check_interval`` and numpy's bool
no number, so the zoo holds both.  It holds no huge int such as 10**400:
on one, some calls run for minutes and others overflow a float, and no
reader refuses it yet.  The public methods of the exported classes have
rows too, ``Class.method parameter``, or a listed reason to have none.
"""

import inspect
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import holderlevels as hl
from holderlevels.cantor import product_separated_structure
from holderlevels.triangles import locate
from test_floor import third_up

F = Fraction
nan, inf = math.nan, math.inf

_FN, _R = third_up(7, 3)
_STRUCTURE = product_separated_structure(3)
_WITNESS = hl.BernoulliWitnessFn.for_alpha(0.5)
_GRID = dict(_FN.grid)
_PARAMS = hl.BoundSearchParams(1.0, F(1, 2), 1)
_JSON = hl.random_standard_paf(1, 1, 0.5, 0.9, check=False).to_json()
_POINT = (F(1, 4), 0)
_GRAFT = hl.graft(_FN, hl.min_graft_level(_FN.lipschitz(), 0.5), _WITNESS)
_WORD = locate(_POINT, _GRAFT.n_prime)

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
    "feasibility_search c": (lambda v: hl.feasibility_search(0.6, v, 1.0, _STRUCTURE, 3),
                             [nan, 0, -1, 1, 2], "c must"),
    "feasibility_search M": (lambda v: hl.feasibility_search(0.6, 0.5, v, _STRUCTURE, 3),
                             [nan, -1], "M"),
    "piecewise_constant_feasibility alpha": (
        lambda v: hl.piecewise_constant_feasibility(v, 0.5, 1.0, _STRUCTURE, 3),
        [nan, 0, -1, 2], "alpha"),
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
    "PiecewiseAffineFn level": (lambda v: hl.PiecewiseAffineFn(v, _GRID), [-1, 2, 4, 2.0],
                                "level"),
    "PiecewiseAffineFn grid": (lambda v: hl.PiecewiseAffineFn(3, v), [list(_GRID), "abc"],
                               "grid must"),
    "PiecewiseAffineFn grid value": (
        lambda v: hl.PiecewiseAffineFn(3, {**_GRID, next(iter(_GRID)): v}),
        [None, "abc", "1/0", nan, inf, -inf, True, False],
        r"grid\[\(\d+, \d+\)\] must be a finite rational"),
    "PhaseTransitionConfig alpha": (
        lambda v: hl.PhaseTransitionConfig(v, F(1, 2), 2, 1, 1, 0.2),
        [nan, 0, -1, 2, None, "abc"], "alpha"),
    "PhaseTransitionConfig c": (lambda v: hl.PhaseTransitionConfig(0.6, v, 2, 1, 1, 0.2),
                                [nan, 0, -1, 1, inf, None, "abc"], r"c must lie in \(0, 1\)"),
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
    "random_standard_paf seed": (lambda v: hl.random_standard_paf(v, 2, 0.5, 0.9, check=False),
                                 [1.0, F(1), "1", True], "seed must"),
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
    "well_conducting_census r": (
        lambda v: hl.well_conducting_census(_FN, v, 2, 1, F(1, 2), alpha=0.5),
        [nan, inf, "abc", "1/0"], "level r"),
    "mass_distribution_lower n_prime_max": (
        lambda v: hl.mass_distribution_lower(_FN, _R, hl.BoundSearchParams(1.0, F(1, 2), 1), v),
        [0, -1, 1.5, 2.0], "n_prime_max"),
    "mass_distribution_lower r": (lambda v: hl.mass_distribution_lower(_FN, v, _PARAMS, 1),
                                  [nan, inf, "abc", -1, 100], "level r"),
    "graft n_prime": (lambda v: hl.graft(_FN, v, _WITNESS), [-1, 0], "level"),
    "BernoulliWitnessFn.for_alpha alpha": (hl.BernoulliWitnessFn.for_alpha,
                                           [nan, 0, -1, 1, 2, None, "abc"], "alpha"),
    "BernoulliWitnessFn.for_alpha max_depth": (
        lambda v: hl.BernoulliWitnessFn.for_alpha(0.5, v), [-1, 1.5, None], "max_depth"),
    "BoundSearchParams.for_alpha alpha": (hl.BoundSearchParams.for_alpha,
                                          [nan, 0, -1, 2, None, "abc"], "alpha"),
    "FatCantorSet.contains x": (hl.FatCantorSet(3).contains,
                                [nan, inf, -inf, None, "abc", [], 1j, True], "x must"),
    "FatCantorSet.interval index": (hl.FatCantorSet(3).interval,
                                    [1.0, F(1), "abc", None, True], "index"),
    "PiecewiseAffineFn.corner_values word": (_FN.corner_values, ["3", "01-", None, 12],
                                             "address"),
    "PiecewiseAffineFn.eval point": (_FN.eval, [None, 1.5, (F(1, 4), None), (F(1, 4),), "ab",
                                                (F(1, 4), nan)], "point"),
    "PiecewiseAffineFn.from_json data": (
        hl.PiecewiseAffineFn.from_json,
        [None, {}, {"level": 1}, {**_JSON, "level": 1.9}, {**_JSON, "level": True},
         {**_JSON, "entries": None}, {**_JSON, "entries": [("x", "1")] * 6},
         {**_JSON, "entries": [5] * 6}, {**_JSON, "entries": [(k, "x") for k, _ in _JSON["entries"]]}],
        r"data\[|data must|vertex id"),
    "GraftedFn.eval point": (_GRAFT.eval, [None, 1.5, (F(1, 4), None), "ab"], "point"),
    "GraftedFn.value_in_triangle word": (lambda v: _GRAFT.value_in_triangle(v, _POINT),
                                         ["3", "01-", None, 12], "address"),
    "GraftedFn.value_in_triangle point": (lambda v: _GRAFT.value_in_triangle(_WORD, v),
                                          [None, 1.5, (F(1, 4), None), "ab"], "point"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_bad_arguments_raise_a_named_value_error(name):
    call, values, fragment = CASES[name]
    for value in values:
        with pytest.raises(ValueError, match=fragment):
            call(value)


ZOO = (None, "abc", nan, inf, -inf, -1, 0, 1.5, True, [], object(), 1j, Decimal("0.5"), np.True_)

# the zoo values a row accepts, by the reason; each other one is refused
ACCEPTED_BY_REASON = {
    "a count of 0: the root, the unit interval, level 0 or no digit read": [
        ("BernoulliWitnessFn max_depth", 0), ("FatCantorSet n", 0), ("cantor_level n", 0),
        ("LevelSetTree depth", 0), ("LevelSetTree.extend depth", 0),
        ("LevelSetTree.fill_measure depth", 0), ("LevelSetTree.nodes_at level", 0),
        ("LevelSetTree.conservation k", 0), ("LevelSetTree.histogram n", 0),
        ("LevelSetTree.histograms n", 0), ("LevelSetTree.histograms first", 0),
        ("PhaseTransitionConfig ix", 0), ("PhaseTransitionConfig iy", 0),
        ("feasibility_search k_cap", 0), ("graft_certificate_constant n_prime", 0),
        ("line_crossing_count_geometric level", 0), ("piecewise_constant_feasibility k", 0),
        ("well_conducting_census n", 0), ("BernoulliWitnessFn.for_alpha max_depth", 0)],
    "index 0: the first interval": [("FatCantorSet.interval index", 0)],
    "an empty digit stream: one root triangle, an empty estimate": [
        ("box_count_dimension digits", []), ("line_crossing_count digits", [])],
    "the base height 0": [("BernoulliWitnessFn.value_at_height y", 0)],
    "float() reads a height that is no int or Fraction, as it reads a str: the Decimal 1/2, "
    "and numpy's True as 1.0, the apex": [
        ("BernoulliWitnessFn.value_at_height y", Decimal("0.5")),
        ("BernoulliWitnessFn.value_at_height y", np.True_)],
    "a Decimal is read exactly, as any finite rational: 1/2 here": [
        (row, Decimal("0.5")) for row in (
            "LevelSetTree r", "LevelValue r", "well_conducting_census r",
            "PiecewiseAffineFn grid value", "census_constant d1", "feasible_l d1",
            "well_conducting_census d1", "FatCantorSet.contains x")],
    "any finite rational x: contains answers whether the set holds it": [
        ("FatCantorSet.contains x", x) for x in (-1, 0, 1.5)],
    "None: alpha is -log2(p)": [("BernoulliWitnessFn alpha", None)],
    "c is any positive constant": [
        ("HolderParams c", 1.5), ("holder_certificate c", 1.5), ("random_standard_paf c", 1.5)],
    "a Lipschitz constant: 0 for a constant function, or any finite positive one": [
        ("graft_certificate_constant lipschitz", 0), ("graft_certificate_constant lipschitz", 1.5),
        ("min_graft_level lipschitz", 1.5)],
    "M = 0 is feasible at every level, M = inf at none, and 1.5 is any M": [
        (row, m) for row in ("piecewise_constant_feasibility M", "feasibility_search M")
        for m in (0, 1.5, inf)],
    "d1 is any positive rational; here n d1 = 3 is an integer": [
        ("census_constant d1", 1.5), ("well_conducting_census d1", 1.5)],
    "a rational level that no vertex value equals; off the root's range a tree is empty": [
        (row, r) for row in ("LevelSetTree r", "LevelValue r", "well_conducting_census r")
        for r in (-1, 0, 1.5)],
    "None: the census checks no level value, as its count does not depend on r": [
        ("well_conducting_census r", None)],
    "a vertex value is any finite rational": [
        ("PiecewiseAffineFn grid value", v) for v in (-1, 0, 1.5)],
    "any int seeds the generator, a negative one too": [
        ("random_standard_paf seed", -1), ("random_standard_paf seed", 0)],
}
ACCEPTED = {(row, repr(value)): reason for reason, pairs in ACCEPTED_BY_REASON.items()
            for row, value in pairs}

# the zoo values a row refuses with another error than ValueError, by the reason
OTHER_ERROR_BY_REASON = {
    "an int index out of range is an IndexError, as for a sequence": [
        ("FatCantorSet.interval index", -1, IndexError)],
}
OTHER_ERROR = {(row, repr(value)): error for pairs in OTHER_ERROR_BY_REASON.values()
               for row, value, error in pairs}


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_value_zoo_is_refused_or_accepted_for_a_reason(name):
    call, _, fragment = CASES[name]
    for value in ZOO:
        if (name, repr(value)) in ACCEPTED:
            call(value)
        else:
            with pytest.raises(OTHER_ERROR.get((name, repr(value)), ValueError), match=fragment):
                call(value)


def test_accepted_values_are_zoo_values_of_a_row():
    for listed in (ACCEPTED, OTHER_ERROR):
        assert {row for row, _ in listed} <= set(CASES)
        assert {value for _, value in listed} <= {repr(v) for v in ZOO}
    assert not ACCEPTED.keys() & OTHER_ERROR.keys()


def test_a_bad_address_is_refused_before_the_tree_grows():
    tree = hl.LevelSetTree(_FN, _R, 1)
    for call in (lambda: tree.find("ab9"), lambda: tree.conservation("01x", 1)):
        with pytest.raises(ValueError, match="invalid address"):
            call()
        assert tree.depth == 0


ALPHA_CALLS = [name for name in CASES if name.endswith(" alpha")]
outside_unit_interval = st.one_of(
    st.floats(max_value=0.0), st.floats(min_value=1.0, exclude_min=True), st.just(nan),
    st.none(), st.text(), st.booleans())


@given(st.sampled_from(ALPHA_CALLS), outside_unit_interval)
@settings(max_examples=200, deadline=None)
def test_alpha_outside_the_unit_interval_is_refused(name, alpha):
    # a witness's alpha None means "-log2(p)"
    assume(not (alpha is None and name == "BernoulliWitnessFn alpha"))
    call, _, fragment = CASES[name]
    with pytest.raises(ValueError, match=fragment):
        call(alpha)


# the value types, the result types and the perturbation, whose config
# validates itself at construction
SKIPPED = {"CoordQ3", "DimensionEstimate", "GraftedFn", "HolderCertificate",
           "PointQ3", "QSqrt3", "SeparatedStructure", "phase_perturbation"}

# the parameters of the swept callables that no row sweeps, by the reason
NOT_SWEPT_BY_REASON = {
    "a value of a library type, read by its attributes like any Python object": [
        "LevelSetTree fn", "holder_certificate fn", "kappa_exponent fn",
        "mass_distribution_lower fn", "well_conducting_census fn", "graft base",
        "graft witness", "mass_distribution_lower params", "mass_distribution_lower tree",
        "feasibility_search structure", "piecewise_constant_feasibility structure"],
    "a flag, read for its truth like any Python condition": ["random_standard_paf check"],
}
NOT_SWEPT = {row for rows in NOT_SWEPT_BY_REASON.values() for row in rows}


def test_every_exported_callable_is_swept():
    # every exported function or class but SKIPPED is called with bad
    # input above, itself or through a method ("Class.method parameter");
    # a SKIPPED class is swept through its methods alone
    swept = {name.split()[0].split(".")[0] for name in CASES}
    assert swept | SKIPPED == set(hl.__all__)
    assert {name.split()[0] for name in CASES} & SKIPPED == set()


def test_every_exported_parameter_has_a_row():
    params = {f"{name} {p}" for name in sorted(set(hl.__all__) - SKIPPED)
              for p in inspect.signature(getattr(hl, name)).parameters}
    assert params - set(CASES) == NOT_SWEPT
    assert NOT_SWEPT <= params


# the parameters of public methods of exported classes that no row sweeps, by the reason
METHODS_NOT_SWEPT_BY_REASON = {
    "the law items call it about 12,000 times a certify pass; it reads what float() reads": [
        "BernoulliWitnessFn.holder_bound x", "BernoulliWitnessFn.holder_bound y"],
    "swept by the row LevelValue r, which calls LevelValue.checked": ["LevelValue.checked r"],
    "a value of a library type, read by its attributes like any Python object": [
        "LevelValue.checked fn"],
    "the tree's scale at a word length it computed; any int length has one": [
        "LevelSetTree.scale length"],
}
METHODS_NOT_SWEPT = {row for rows in METHODS_NOT_SWEPT_BY_REASON.values() for row in rows}


def test_every_public_method_parameter_has_a_row():
    # "Class.method parameter" for each public method of an exported class,
    # a classmethod or staticmethod too; properties take no argument
    params = set()
    for name in hl.__all__:
        if inspect.isclass(cls := getattr(hl, name)):
            for method, fn in vars(cls).items():
                fn = getattr(fn, "__func__", fn)
                if not method.startswith("_") and inspect.isfunction(fn):
                    params |= {f"{name}.{method} {p}" for p in inspect.signature(fn).parameters
                               if p not in ("self", "cls")}
    assert params - set(CASES) == METHODS_NOT_SWEPT
    assert METHODS_NOT_SWEPT <= params

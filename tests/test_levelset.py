"""Level-set approximations, conductivity, conservation and the measure."""

import json
from fractions import Fraction

import pytest

from holderlevels import cli
from holderlevels.levelset import (
    LevelCollisionError,
    LevelSetTree,
    LevelValue,
    extreme_pair,
    kappa_exponent,
    well_conducting_census,
)
from holderlevels.paf import random_standard_paf

from helpers import affine_from_corners, constant_fn, full_level_set, subdivision_addresses

F = Fraction


def members(tree, n: int) -> dict[str, int]:
    """{word: kappa exponent} of the tree's depth-n members."""
    return {node.word: node.kappa_exp for node in tree.nodes_at(n)}


@pytest.fixture
def ramp():
    """The affine function with corner values (0, 0, 1) at level 1."""
    return affine_from_corners(F(0), F(0), F(1), level=1)


def test_extreme_labeling_examples():
    assert extreme_pair((F(0), F(1), F(2))) == (0, 2)
    assert extreme_pair((F(0), F(0), F(1))) == (0, 2)     # the low tie goes to corner 0
    assert extreme_pair((F(5), F(5), F(5))) == ()         # a constant triangle


def test_level_value_collision():
    fn = affine_from_corners(F(0), F(0), F(1), level=1)
    with pytest.raises(LevelCollisionError):
        LevelValue.checked(F(1, 2), fn)
    assert LevelValue.checked(F(1, 3), fn).r == F(1, 3)


def test_constant_function_empty_level_set(ramp):
    c = constant_fn(F(2), level=1)
    assert members(LevelSetTree(c, F(1, 3), 1), 2) == {}


def test_membership_examples(ramp):
    assert set(members(LevelSetTree(ramp, F(1, 3), 1), 1)) == {"0", "1"}
    assert set(members(LevelSetTree(ramp, F(2, 3), 1), 1)) == {"2"}


def test_full_membership_matches_hull_condition(ramp):
    for word in full_level_set(ramp, F(1, 3), 2, 1):
        vals = ramp.corner_values(word)
        assert min(vals) < F(1, 3) < max(vals)


def test_membership_against_geometric_oracle_l2(ramp):
    # the ramp is 2/sqrt(3) times the height, so corner values can be
    # computed straight from vertex coordinates, independently of the
    # value-table averaging the level-set walk uses
    from holderlevels.triangles import triangle_vertices

    r = F(1, 3)
    expected = {}
    for word in subdivision_addresses(1, 2):
        heights = [v.y.sqrt3_coefficient() * 2 for v in triangle_vertices(word)]
        if min(heights) < r < max(heights):
            # the root's designated extremes sit at corners 0 and 2
            expected[word] = 0 if word in ("00", "22") else 1
    assert members(LevelSetTree(ramp, r, 2), 1) == expected


def test_conductivity_examples(ramp):
    tree = LevelSetTree(ramp, F(1, 3), 1, depth=1)
    assert tree.root.kappa == 1
    assert tree.find("0").kappa == 1       # designated low corner
    assert tree.find("1").kappa == F(1, 2)  # collapsed tie halves
    assert tree.find("2") is None           # not a member for this level


def test_kappa_two_nonextreme_steps():
    f = affine_from_corners(F(0), F(1), F(2), level=2)
    # corner 1 is never extreme for this ramp, so two middle steps halve twice
    assert kappa_exponent(f, "11") == 2
    assert LevelSetTree(f, F(9, 8) + F(1, 3 * 2**10), 1, depth=2).find("11").kappa == F(1, 4)


def test_kappa_rejects_bad_words():
    f = affine_from_corners(F(0), F(1), F(2), level=2)
    with pytest.raises(ValueError):
        kappa_exponent(f, "012", l=2)  # length not a multiple of l
    # any length-2 word is a boundary word at l=2
    assert kappa_exponent(f, "01", l=2) in (0, 1)


def test_conservation_example(ramp):
    res = LevelSetTree(ramp, F(1, 3), 1).conservation("", 1)
    assert res.lhs == F(3, 2) and res.rhs == 1 and res.passed


def test_conservation_equality_on_extreme_chain(ramp):
    # r near the maximum: the single descendant chain through the apex
    # inherits conductivity, so the sum equals it at every depth
    r = F(9, 10)
    for k in (1, 2, 3):
        res = LevelSetTree(ramp, r, 1).conservation("", k)
        assert res.lhs == res.rhs == 1


def test_measure_examples(ramp):
    def measure(r, n):
        tree = LevelSetTree(ramp, r, 1).fill_measure(n)
        return {node.word: node.mu for node in tree.nodes_at(n)}

    mu = measure(F(1, 3), 1)
    assert mu == {"0": F(2, 3), "1": F(1, 3)}
    chain = measure(F(9, 10), 3)
    assert chain == {"222": F(1)}


def test_measure_normalization_and_domination(small_corpus):
    for fn, l, alpha, depth, pairs in small_corpus:
        for r, tree in pairs:
            tree.fill_measure(depth)
            for level in range(1, depth + 1):
                nodes = tree.nodes_at(level)
                assert sum(n.mu for n in nodes) == 1
                assert all(n.mu <= n.kappa for n in nodes)


def test_conservation_property(small_corpus):
    for fn, l, alpha, depth, pairs in small_corpus:
        for r, tree in pairs:
            for level in range(depth):
                for node in tree.nodes_at(level):
                    for k in range(1, min(3, depth - level) + 1):
                        res = tree.conservation(node.word, k)
                        assert res.passed, (node.word, k, res)


def test_nesting_every_member_has_member_child(small_corpus):
    for fn, l, alpha, depth, pairs in small_corpus:
        for r, tree in pairs:
            for level in range(depth):
                for node in tree.nodes_at(level):
                    assert node.children, (node.word, float(r))


def test_level_set_nonempty_at_all_depths(small_corpus):
    for fn, l, alpha, depth, pairs in small_corpus:
        for r, tree in pairs:
            assert all(tree.nodes_at(level) for level in range(depth + 1))


def test_monotone_shrink_at_affine_scale():
    # once triangles sit inside one affine piece, hulls nest, so every
    # member's parent is a member
    fn = random_standard_paf(3, 2, 0.5, 0.9, check=False)
    root = fn.corner_values("")
    r = min(root) + (max(root) - min(root)) * F(1, 3)
    sets = {n: full_level_set(fn, r, n, 1) for n in (2, 3, 4, 5)}
    for n in (2, 3, 4):
        parents = set(sets[n])
        for word in sets[n + 1]:
            assert word[:-1] in parents


def test_descendants_subset_of_full(small_corpus):
    fn, l, alpha, depth, pairs = small_corpus[0]
    r, tree = pairs[0]
    n = min(depth, 3)
    desc = members(tree, n)
    full = full_level_set(fn, r, n, l)
    assert set(desc) <= set(full)
    for w, e in desc.items():
        assert full[w] == e


def test_census_small_cases(ramp):
    res = well_conducting_census(ramp, None, 0, 1, F(1, 2), alpha=1.0)
    assert res.count == 1 and res.binomial_bound >= 1 and res.passed
    with pytest.raises(ValueError):
        well_conducting_census(ramp, None, 3, 1, F(1, 2), alpha=1.0)


def test_census_matches_direct_enumeration():
    fn = random_standard_paf(9, 3, 0.5, 0.9, check=False)
    for n, l in ((4, 1), (2, 2)):
        d1 = F(1, 2)
        res = well_conducting_census(fn, None, n, l, d1, alpha=0.5)
        threshold = n * d1
        direct = sum(
            1 for w in subdivision_addresses(n, l)
            if kappa_exponent(fn, w, l) <= threshold
        )
        assert res.count == direct
        assert res.passed


def test_census_requires_integer_exponent(ramp):
    with pytest.raises(ValueError):
        well_conducting_census(ramp, None, 3, 1, F(1, 2), alpha=1.0)
    res = well_conducting_census(ramp, None, 4, 1, F(1, 2), alpha=1.0)
    assert res.threshold_exp == 2


def test_census_validates_level_value(ramp):
    with pytest.raises(LevelCollisionError):
        well_conducting_census(ramp, F(1, 2), 2, 1, F(1, 2), alpha=1.0)
    ok = well_conducting_census(ramp, F(1, 3), 2, 1, F(1, 2), alpha=1.0)
    assert ok.passed


def test_collision_raised_during_walk(ramp):
    # r = 1/4 equals a vertex value two levels down the ramp
    with pytest.raises(LevelCollisionError):
        LevelSetTree(ramp.refine(2), F(1, 4), 1, depth=2)


def test_negative_levels_are_rejected():
    # a negative index used to read the deepest level as if it were level n
    fn = random_standard_paf(0, 2, 0.5, 0.9, check=False)
    root = fn.corner_values("")
    r = min(root) + (max(root) - min(root)) * F(1, 3)
    tree = LevelSetTree(fn, r, 1, depth=4)
    with pytest.raises(ValueError, match="non-negative"):
        tree.nodes_at(-1)
    with pytest.raises(ValueError, match="non-negative"):
        tree.conservation("", -1)
    assert tree.depth == 4 and tree.nodes_at(4)


def tree_state(tree):
    """(word, corners, kappa, split, children's words, mu) of every node, level by level."""
    return [[(n.word, n.corners, n.kappa_exp, n.split, [c.word for c in n.children],
              n.mu_num, n.mu_den) for n in tree.nodes_at(k)] for k in range(tree.depth + 1)]


def test_extend_is_all_or_nothing_on_a_collision():
    # the level is a corner value of 00100: two depth-4 members are
    # expanded before the one that meets it
    fn = random_standard_paf(7, 3, 1.0, 0.9)
    r = fn.corner_values("00100")[1]
    tree = LevelSetTree(fn, r, 1, depth=4)
    with pytest.raises(LevelCollisionError) as err:
        tree.extend(5)
    assert err.value.word == "00100"
    assert tree.depth == 4
    assert tree_state(tree) == tree_state(LevelSetTree(fn, r, 1, depth=4))
    with pytest.raises(LevelCollisionError) as again:
        tree.extend(5)
    assert again.value.word == "00100"
    assert tree_state(tree) == tree_state(LevelSetTree(fn, r, 1, depth=4))


def test_negative_depths_are_rejected():
    fn = random_standard_paf(0, 2, 0.5, 0.9, check=False)
    root = fn.corner_values("")
    r = min(root) + (max(root) - min(root)) * F(1, 3)
    with pytest.raises(ValueError, match="depth must be non-negative, got -3"):
        LevelSetTree(fn, r, 1, depth=-3)
    tree = LevelSetTree(fn, r, 1, depth=2)
    with pytest.raises(ValueError, match="depth must be non-negative, got -1"):
        tree.extend(-1)
    with pytest.raises(ValueError, match="depth must be non-negative, got -1"):
        tree.fill_measure(-1)
    assert tree.depth == 2


@pytest.mark.parametrize("l", [-1, 0])
def test_tree_rejects_l_below_one(l):
    fn = random_standard_paf(0, 2, 0.5, 0.9, check=False)
    root = fn.corner_values("")
    r = min(root) + (max(root) - min(root)) * F(1, 3)
    with pytest.raises(ValueError, match=f"l >= 1, got l={l}"):
        LevelSetTree(fn, r, l, 2)
    with pytest.raises(ValueError, match=f"l >= 1, got l={l}"):
        LevelSetTree(fn, r, l)


def test_census_and_kappa_reject_invalid_parameters():
    fn = random_standard_paf(0, 2, 0.5, 0.9, check=False)
    with pytest.raises(ValueError, match="n must be non-negative"):
        well_conducting_census(fn, None, -2, 1, 1 / 2, alpha=0.5)
    for d1 in (0, F(-1, 2)):
        with pytest.raises(ValueError, match=r"d1 must lie in \(0, inf\)"):
            well_conducting_census(fn, None, 2, 1, d1, alpha=0.5)
    with pytest.raises(ValueError, match="l >= 1"):
        kappa_exponent(fn, "01", 0)


def test_kappa_sum_at_least_one(small_corpus):
    for fn, l, alpha, depth, pairs in small_corpus:
        for r, tree in pairs:
            assert tree.conservation("", depth).lhs >= 1


def test_serialization(ramp, tmp_path, monkeypatch):
    # `levelset --json-out` serializes the ramp's tree in place of the seeded one
    trees = [(F(1, 3), LevelSetTree(ramp, F(1, 3), 1, depth=1), 0)]
    monkeypatch.setattr(cli, "_trees", lambda args: iter(trees))
    js = tmp_path / "ls.json"
    assert cli.main(["levelset", "--depth", "1", "--r-count", "1",
                     "--out", str(tmp_path / "ls.csv"), "--json-out", str(js)]) == 0
    payload, = json.loads(js.read_text())["level_sets"]
    assert payload["r"] == "1/3" and payload["n"] == 1 and payload["l"] == 1
    members = {m["address"]: m for m in payload["members"]}
    assert members["0"]["kappa_exp"] == 0
    assert members["0"]["mu"] == "2/3"

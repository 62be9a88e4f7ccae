"""The cached lattice index of each level against the pre-order walk.

``level_index`` is the one walk over the lattice; the word table,
``refine``, ``standardize``, ``to_json``, the certificate's vertex arrays,
the generator and the grid check all read it.  Each of them must see the
words, cells, corners and vertex order that the walk in ``walk_oracle``
produces, and the table it gathers must be the one the walk filled.
"""

import math

import pytest

from holderlevels.paf import random_standard_paf
from holderlevels.triangles import delta_lattice_index, level_index

from walk_oracle import corners, preorder, walk


@pytest.mark.parametrize("level", range(8))
def test_level_index_matches_walk(level):
    index = level_index(level)
    walked = list(preorder(level))
    assert list(index.words) == [word for word, _, _ in walked]
    assert list(index.cells) == [(row, col) for _, row, col in walked]
    assert all(cell == delta_lattice_index(word)
               for word, cell in zip(index.words, index.cells))
    position = {word: i for i, word in enumerate(index.words)}
    assert index.parents == tuple(position[w[:-1]] if w else -1 for w in index.words)
    # each length's words in decreasing order: the generator's draw order
    for n, layer in enumerate(index.layers):
        words = [index.words[i] for i in layer]
        assert all(len(w) == n for w in words) and words == sorted(words, reverse=True)
    assert sum(map(len, index.layers)) == len(index.words) == (3 ** (level + 1) - 1) // 2
    # the vertices in first-visit order, and each word's corners among them
    cell_corners = [corners(row, col, level - len(word)) for word, row, col in walked]
    first_visit = list(dict.fromkeys(p for cs in cell_corners for p in cs))
    assert list(index.vertices) == first_visit
    assert list(index.vertices.values()) == list(range(len(first_visit)))
    assert len(first_visit) == (3 ** (level + 1) + 3) // 2
    assert [tuple(first_visit[k] for k in ks) for ks in index.corners] == cell_corners


@pytest.mark.parametrize("level", range(1, 7))
def test_word_tables_match_walk(level):
    fn = random_standard_paf(70 + level, level, 0.5, 0.9, check=False)
    table = [(word, vals) for word, _, _, vals in walk(fn, level)]
    assert [(w, fn.corner_values(w)) for w in level_index(level).words] == table
    d = math.lcm(*(v.denominator for v in fn.grid.values()))
    assert fn.int_word_table() == (d, {w: tuple(v.numerator * (d // v.denominator) for v in vals)
                                       for w, vals in table})


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_refine_matches_walk(level):
    # keys, values and insertion order of the former leaf walk; at the
    # function's own level refine copies the grid as it is
    fn = random_standard_paf(60 + level, level, 0.5, 0.9, check=False)
    assert list(fn.refine(level).grid.items()) == list(fn.grid.items())
    for extra in range(1, 4):
        depth = level + extra
        grid = {}
        for word, row, col, vals in walk(fn, depth):
            if len(word) == depth:
                grid.update(zip(corners(row, col), vals))
        assert list(fn.refine(depth).grid.items()) == list(grid.items())

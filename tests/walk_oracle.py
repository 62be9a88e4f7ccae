"""The pre-order walk over the Sierpinski lattice, kept as an oracle.

``PiecewiseAffineFn`` once walked the lattice like this for its word
tables, its refinement, its standardization and its serialization; the
certificate, the generator and the grid check each had a copy of it.
``triangles.level_index`` now walks each level once for all of them, and
the tests check it against this walk.

Children are pushed in symbol order and popped in reverse, so the words
of each length come out in decreasing order.  A cell (row, col) at scale
2**-n has the corners (row, col), (row, col+1) and (row+1, col); child s
keeps corner s, whose indices double.
"""

from fractions import Fraction


def corners(row: int, col: int, s: int = 0) -> tuple:
    """Lattice indices of the corners of cell (row, col), each times 2**s."""
    return ((row << s, col << s), (row << s, (col + 1) << s), ((row + 1) << s, col << s))


def preorder(depth: int):
    """(word, row, col) of the words of length <= ``depth``, in the walk's order."""
    stack = [("", 0, 0)]
    while stack:
        word, row, col = stack.pop()
        yield word, row, col
        if len(word) < depth:
            stack.extend((word + "012"[s], 2 * row + (s == 2), 2 * col + (s == 1))
                         for s in range(3))


def walk(fn, depth: int):
    """(word, row, col, corner values) in the walk's order, as ``Fraction``s.

    At or above the function level the values are read from ``fn.grid``;
    below it each child's corners are midpoint averages with the corner
    it keeps.
    """
    seen: dict[str, tuple] = {}
    for word, row, col in preorder(depth):
        s = fn.level - len(word)
        if s >= 0:
            vals = tuple(Fraction(fn.grid[p]) for p in corners(row, col, s))
        else:
            up = seen[word[:-1]]
            anchor = up[int(word[-1])]
            vals = tuple((v + anchor) / 2 for v in up)
        seen[word] = vals
        yield word, row, col, vals

"""Runs past the crossing depth: the block algebra and the layout of a run's digits.

Below the crossing depth c a level-set tree keeps runs.  A run is a
crossing member whose corners are b, except a = b + d at its odd corner
o, and one integer K: the base-2**l digits of the level's relative
height h = (r - b)/d past c, most significant first, one digit per
depth.  The children of a run's members at one depth are the block of
that depth's digit k (``_blocks``), the same for every member.  This
module is the one that knows how K is laid out: the tree and the mass
check take its digits, blocks, weights and cells from here.

A block's children sit on one lattice line of the run's region, at line
positions e in 0..2**l - 1, and a member of a run's chain of blocks at
line position P spells P's base-2**l digits, one e per block.
"""

from __future__ import annotations

import functools
import itertools


def _split(incs) -> tuple[tuple[int, ...], int]:
    """Child weights 2**(top - e) and their sum, from the children's kappa increments.

    A node's measure goes to its children in proportion to their
    conductivities 2**-e; top is the largest exponent among them.
    """
    top = max(incs, default=0)
    weights = tuple(1 << (top - inc) for inc in incs)
    return weights, sum(weights)


class _Blocks(dict):
    """``_blocks(l)[k]``: (k, S, spans) of the run block of digit k, built on its first read.

    The block's children are the boundary words whose steps into the odd
    corner o spell k's l bits: the child at line position e puts o at k's
    1 bits, M at e's and m elsewhere, m < M the other symbols.  With top =
    2**l - 1 the positions are 0..top for k = 0, 0 for k = top and 0 and
    top ^ k otherwise.  Each span is (kappa increment, weight, a range of
    e), in word order: only o**l and m**l, at e = 0, keep kappa, only m**l
    weighs 2 (``_split``), and S is 2**l + 1, 1 or 2.  A block read again
    is one dict lookup, as cheap as an index into a table of every digit.
    """

    def __init__(self, l: int):
        super().__init__()
        self.top = (1 << l) - 1         # the ones digit, and the last line position

    def __missing__(self, k: int) -> tuple:
        top = self.top
        spans = (((0, 2, range(1)), (1, 1, range(1, top + 1))) if k == 0 else
                 ((0, 1, range(1)),) if k == top else
                 ((1, 1, range(1)), (1, 1, range(top ^ k, (top ^ k) + 1))))
        self[k] = block = (k, sum(w * len(lines) for _, w, lines in spans), spans)
        return block


_blocks = functools.cache(_Blocks)


def _weight(l: int, k: int, e: int) -> int:
    """u(e): the weight of the child at line position e of ``_blocks(l)[k]``, 0 where none is.

    2 at e = 0 of the zero block and 1 at its other positions; 1 at e = 0
    and e = top ^ k of any other block, which for the ones block is e = 0
    alone.
    """
    return 1 + (e == 0) if k == 0 else int(e == 0 or e == ((1 << l) - 1) ^ k)


def _block_word(l: int, o: int, k: int, e: int = 0) -> str:
    """The l-symbol word with o at k's 1 bits, M at e's and m elsewhere, m < M the others.

    At e = 0 it is the first in word order whose steps into o spell k.
    """
    symbols = [str(s) for s in range(3) if s != o] + [str(o)]     # m, M, o: 2 k_i + e_i
    return "".join(symbols[(k >> i & 1) << 1 | e >> i & 1] for i in range(l - 1, -1, -1))


@functools.cache
def _block_children(l: int, o: int, k: int) -> tuple:
    """((word, kappa increment) of each child, split) of ``_blocks(l)[k]`` below corner o."""
    children = tuple((_block_word(l, o, k, e), inc)
                     for inc, _, lines in _blocks(l)[k][2] for e in lines)
    return children, _split([inc for _, inc in children])


def _block_cell(l: int, o: int, k: int, e: int) -> tuple[int, int]:
    """``delta_lattice_index`` of the word at line position e of block k below o.

    Both coordinates are digit by digit in k and e, so with l k bits in
    place of l it gives the cell bits below a run of the chain whose
    digits spell k and whose block positions spell e.
    """
    return ((e, ((1 << l) - 1) ^ k ^ e), (e, k), (k, e))[o]


@functools.cache
def _block_summary(l: int, digit: int) -> tuple:
    """The block of ``digit`` along its run's line, at unit 1.

    With u(e) the weight of the child at line position e (0 where the
    block has no child) and top = 2**l - 1, the summary is (the block sum
    S, the largest u, the largest u(e - 1) + u(e) + u(e + 1) T, the
    starts (u(top), u(0) + u(1)) and (u(top - 1) + u(top), u(0)), the set
    of pairs (u(e), u(e + 1)) over e < top).  At a depth of lcm L the
    block's factors are L / S times these weights.  Each entry reads at
    most three consecutive positions or an end, so u is read along
    the block's spans with each stretch of equal weights cut to three.
    """
    _, total, spans = _blocks(l)[digit]
    u, end = [0], 0         # the cut line with a 0 on either side, and the next position
    for _, w, lines in spans:
        u += [0] * min(lines.start - end, 3) + [w] * min(len(lines), 3)
        end = lines.stop
    u += [0] * min((1 << l) - end, 3) + [0]
    return (total, max(u), max(map(sum, zip(u, u[1:], u[2:]))),
            ((u[-2], u[1] + u[2]), (u[-3] + u[-2], u[1])), frozenset(zip(u[1:-2], u[2:-1])))


@functools.cache
def _straddle(l: int, prev: int, digit: int) -> int:
    """The largest a x + b y over block ``digit``'s starts (a, b) and ``prev``'s pairs (x, y)."""
    pairs = _block_summary(l, prev)[4]
    return max(a * x + b * y for a, b in _block_summary(l, digit)[3] for x, y in pairs)


@functools.cache
def _corner_cells(l: int, o: int, lead: int | None, digit: int, k: int) -> tuple:
    """The corner chains of a run whose k - 1 leading digits are all ``lead``, the last ``digit``.

    For each member within one layer of a corner V of the run's region,
    a word V**(l (k - 1)) V**(l - 1) s of k blocks, the last of digit
    ``digit`` (s any symbol): (row bits, col bits, weight, sum), its cell
    below the run's and the products of its blocks' weights and sums, in
    word order and once each.  ``lead`` None stands for no leading block
    (k = 1).
    """
    top, big = (1 << l) - 1, 1 + (o < 2)
    ones = ((1 << l * (k - 1)) - 1) // top          # the lowest bit of each leading digit
    cells = {}
    for v, s in itertools.product(range(3), repeat=2):
        # (digit, line position) of V**l and V**(l - 1) s: the bits of their o and big steps
        k0, e0 = top * (v == o), top * (v == big)
        k1, e1 = k0 & ~1 | (s == o), e0 & ~1 | (s == big)
        if lead in (None, k0) and k1 == digit:
            cells[e0 * (lead is not None), e1] = (
                *_block_cell(l * k, o, (k0 * ones) << l | k1, (e0 * ones) << l | e1),
                _weight(l, k0, e0) ** (k - 1) * _weight(l, k1, e1),
                _blocks(l)[k0][1] ** (k - 1) * _blocks(l)[k1][1])
    return tuple(cells[key] for key in sorted(cells))


# -- the digit source: every read of a run's K ---------------------------

def _run_ks(runs, level: int, rden: int, l: int, n: int) -> tuple[list[int], int, int | None]:
    """(each run's K to n digits, the first depth j past c the level meets a vertex, its first run).

    ``runs`` are (o, b, a) and ``level`` is the level times r.den at the
    crossing scale, so K, rem = divmod((level - b r.den) 2**(l n), (a - b)
    r.den) is K = floor(2**(l n) h).  A remainder of 0 makes h = K /
    2**(l n), whose last nonzero digit is the level's first vertex hit, j
    = n - (K's trailing zero digits).  j is n + 1 and the run None when no
    run meets a vertex by n.
    """
    ks, first, hit = [], n + 1, None
    for i, (_, b, a) in enumerate(runs):
        k, rem = divmod((level - b * rden) << l * n, (a - b) * rden)
        ks.append(k)
        if not rem:
            j = n - ((k & -k).bit_length() - 1) // l
            if hit is None or j < first:
                first, hit = j, i
    return ks, first, hit


def _cut(ks, l: int, drop: int) -> list[int]:
    """Each K without its last ``drop`` base-2**l digits: the runs' K that many depths up."""
    return [k >> l * drop for k in ks] if drop else ks


def _digits(k: int, l: int, size: int) -> list[int]:
    """The last ``size`` base-2**l digits of k, most significant first."""
    mask = (1 << l) - 1
    return [k >> s & mask for s in range(l * (size - 1), -1, -l)]


def _chain(k: int, l: int, size: int) -> list[tuple]:
    """The blocks (``_blocks``) of the last ``size`` digits of k, most significant first."""
    blocks, mask = _blocks(l), (1 << l) - 1
    return [blocks[k >> s & mask] for s in range(l * (size - 1), -1, -l)]


def _block_sums(ks, l: int, size: int) -> list[set[int]]:
    """The sums S of the blocks of the digits of ``ks`` at each of their last ``size`` positions."""
    blocks, mask = _blocks(l), (1 << l) - 1
    return [{blocks[k >> s & mask][1] for k in ks} for s in range(l * (size - 1), -1, -l)]


def _last_digits(ks, l: int) -> list[int]:
    """The last base-2**l digit of each K of ``ks``."""
    mask = (1 << l) - 1
    return [k & mask for k in ks]


def _digit_counts(k: int, j: int, l: int) -> tuple[int, int]:
    """(zero digits, mixed digits) among the j base-2**l digits of k.

    A digit is mixed when it is neither 0 nor 2**l - 1.  A digit is
    nonzero when its top bit is set or its low l - 1 bits, plus 2**(l -
    1) - 1, carry into it; the top digits of k are the zero digits of its
    complement.
    """
    if l == 1:
        return j - k.bit_count(), 0
    ones = ((1 << l * j) - 1) // ((1 << l) - 1)     # the lowest bit of each digit
    high, fill = ones << (l - 1), ones * ((1 << (l - 1)) - 1)
    nonzero = ((((k & ~high) + fill) | k) & high).bit_count()
    flip = k ^ ((1 << l * j) - 1)
    nontop = ((((flip & ~high) + fill) | flip) & high).bit_count()
    return j - nonzero, nonzero + nontop - j


def _run_weights(ks, l: int, size: int) -> list[tuple[int, int]]:
    """(exponent, count) of the chain of each K's last ``size`` digits.

    Its kappa sum, over its members, is count 2**-exponent.  A block's
    children weigh 2**-inc, in sum S 2**-top (``_blocks``): a zero digit
    adds 1 to the exponent and multiplies the count by 2**l + 1, a mixed
    digit adds 1 and doubles it, and the ones digit adds nothing.  With Z
    zero and X mixed digits (``_digit_counts``) the exponent is Z + X and
    the count (2**l + 1)**Z 2**X.
    """
    mask, zero_sum = (1 << l * size) - 1, (1 << l) + 1
    return [(z + x, zero_sum ** z << x)
            for z, x in (_digit_counts(k & mask, size, l) for k in ks)]


def _heads(ks, l: int, size: int, js) -> list[list[tuple[int, int, int, int]]]:
    """For each K of ``ks``, (digit j - 1, digit j, zero digits, mixed digits) for each j of ``js``.

    Each K has ``size`` digits and each j is at least 1; the zero and
    mixed digits (``_digit_counts``) are counted among K's first j - 1,
    and digit 0 reads as 0.
    """
    mask, shifts = (1 << l) - 1, [(l * (size - j), j - 1) for j in js]
    return [[(lead & mask, k >> s & mask, *_digit_counts(lead, j, l))
             for s, j in shifts for lead in [k >> s + l]] for k in ks]


def _line_members(run, l: int, lcms, k: int, positions):
    """(row, col, mu numerator) of each member at chain length k of ``run`` at ``positions``.

    ``run`` is a record (row, col, mu, o, K) whose K has ``len(lcms)``
    digits, ``lcms`` the lcm at each depth of its chain.  A line position
    spells its block positions e, one base-2**l digit per block of K's
    first k, and is a member's when each block has a child at its e; at k
    <= 1 a position past the run's last spells one of the others.
    """
    row, col, mu, o, digits = run
    chain = _chain(digits, l, len(lcms))
    for p in positions:
        i, j, m = row, col, mu
        for (digit, total, _), e, lcm in zip(chain, _digits(p, l, k), lcms):
            bi, bj = _block_cell(l, o, digit, e)
            i, j, m = i << l | bi, j << l | bj, m * (lcm // total) * _weight(l, digit, e)
        if m:
            yield i, j, m

"""Small functions that only the tests call.

Each one used to live in the library beside the code it exercises; no
library path, benchmark or tool calls them.
"""

import json
import math
import random
from fractions import Fraction

from holderlevels.cantor import ProductPiece, _distance_sq
from holderlevels.levelset import ApproxLevelSet


def touching_up_cells(row: int, col: int) -> list[tuple[int, int]]:
    """Upward cells sharing at least one lattice vertex with (row, col)."""
    return [(row + dr, col + dc)
            for dr, dc in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))]


def level_set_to_json(level_set: ApproxLevelSet) -> str:
    return json.dumps(level_set.to_json(), sort_keys=True)


def lchoice_window(alpha: float) -> tuple[float, float]:
    """The (lo, lo+1] window for l when d1 is essentially alpha/2."""
    lo = (alpha / 2 * (1 + math.log(3 / alpha)) + math.log(2)) / (alpha / 2 * math.log(2))
    return (lo, lo + 1)


def _binary_digits(x: Fraction):
    """Binary digits of a rational x in [0, 1] until the remainder is zero.

    The walk ends only for dyadic x.  The numerator is doubled against
    the denominator, so no Fraction is built per digit.
    """
    num, den = x.numerator, x.denominator
    while num:
        num <<= 1
        if num >= den:
            num -= den
            yield 1
        else:
            yield 0


def digits_of_dyadic(x: Fraction) -> list[int]:
    """Binary digits of a dyadic rational in [0, 1), through the last 1."""
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError("expected a value in [0, 1)")
    if x.denominator & (x.denominator - 1):
        raise ValueError("not a dyadic rational (denominator is not a power of two)")
    return list(_binary_digits(x))


def sample_dyadic(rng: random.Random, depth: int) -> Fraction:
    """Uniform dyadic rational with ``depth`` digits."""
    return Fraction(rng.randrange(1 << depth), 1 << depth)


def product_distance_sq(a: ProductPiece, b: ProductPiece) -> Fraction:
    """Exact squared distance between two product cells."""
    return _distance_sq(a.rectangle(), b.rectangle())

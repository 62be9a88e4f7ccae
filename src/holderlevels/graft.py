"""Grafting the Bernoulli witness into a standard piecewise affine base.

Each level-n' triangle T of a standard base g gets relabeled so the two
corners carrying the repeated value play the roles of the base vertices
of the rescaled triangle and the remaining corner the apex.  The
grafted function is

    f(x) = phi(Psi_T(x)) * (g(v3) - g(v1)) + g(v1)

where Psi_T is the similarity onto the rescaled triangle and phi the
witness.  Since phi is 0 on the base edge and 1 at the apex, f agrees
with g on all vertices of level n'.  The per-triangle Holder constant
is bounded by M * 2**(-n'(1-alpha)) * 3 * (2/sqrt(3))**alpha, which
drops below the grafting budget once M * 2**(-n'(1-alpha)) < 1/100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bernoulli import BernoulliWitnessFn
from .levelset import odd_corner
from .paf import PiecewiseAffineFn
from .triangles import _check_depth, _check_interval, delta_lattice_index, lattice_weights, locate

HOLDER_STEP_THRESHOLD = Fraction(1, 100)
GRAFT_BUDGET = Fraction(1, 8)


class NotStandardError(ValueError):
    pass


def min_graft_level(lipschitz: float, alpha: float) -> int:
    """Smallest n' with M * 2**(-n'(1-alpha)) < HOLDER_STEP_THRESHOLD."""
    _check_interval("alpha", alpha, 0, 1)
    _check_interval("lipschitz", lipschitz, 0, math.inf)
    t = float(HOLDER_STEP_THRESHOLD)
    # a difference of logs: lipschitz / t overflows from about 1.8e306 on
    n = max(0, math.floor((math.log2(lipschitz) - math.log2(t)) / (1 - alpha)) + 1)
    while lipschitz * 2.0 ** (-n * (1 - alpha)) >= t:
        n += 1
    while n > 0 and lipschitz * 2.0 ** (-(n - 1) * (1 - alpha)) < t:
        n -= 1
    return n


def graft_certificate_constant(lipschitz: float, alpha: float, n_prime: int) -> float:
    """Closed-form per-triangle Holder constant of the graft."""
    _check_interval("alpha", alpha, 0, 1)
    _check_interval("lipschitz", lipschitz, 0, math.inf, low_in=True)
    _check_depth("n_prime", n_prime)
    return (lipschitz * 2.0 ** (-n_prime * (1 - alpha))
            * 3.0 * (2.0 / math.sqrt(3.0)) ** alpha)


# (base1, base2, apex) by the odd corner: the apex, after the other two in order
_LABELS_BY_ODD_CORNER = ((1, 2, 0), (0, 2, 1), (0, 1, 2))


def _repeated_value_labels(values) -> tuple[int, int, int]:
    """Corner roles (base1, base2, apex) for a standard triangle.

    The apex is the odd corner (``levelset.odd_corner``) and the base the
    two corners with the repeated value, in increasing order.  A constant
    triangle keeps the identity labeling (its graft gap is zero anyway).
    """
    odd = odd_corner(values)
    if odd is not None:
        return _LABELS_BY_ODD_CORNER[odd[0]]
    if values[0] == values[1] == values[2]:
        return (0, 1, 2)
    raise NotStandardError(f"no repeated corner value in {values!r}")


@dataclass
class GraftedFn:
    """Witness-grafted function; agrees with the base on level-n' vertices."""

    base: PiecewiseAffineFn
    n_prime: int
    witness: BernoulliWitnessFn
    certificate_constant: float

    def value_in_triangle(self, word: str, point) -> Fraction | float:
        """Evaluate inside the addressed level-n' triangle.

        The height of the rescaled image equals the barycentric weight
        of the apex corner, so no similarity arithmetic is needed.  The
        weights come from the point's lattice coordinates as Fractions
        (``lattice_weights``), so the height is a Fraction, and the
        result is exact whenever the witness parameter is rational (and
        at vertices regardless, where the witness contributes exactly 0
        or 1).  ValueError when the point lies outside the triangle (a
        negative weight) or has an irrational lattice coordinate.
        """
        vals = self.base.corner_values(word)
        labels = _repeated_value_labels(vals)
        ws = lattice_weights(point, *delta_lattice_index(word), len(word))
        if min(ws) < 0:
            raise ValueError(f"point {point} lies outside triangle {word!r}")
        phi = self.witness.value_at_height(ws[labels[2]])
        gap = vals[labels[2]] - vals[labels[0]]
        anchor = vals[labels[0]]
        if isinstance(phi, Fraction) or isinstance(phi, int):
            return anchor + Fraction(phi) * gap
        return float(anchor) + phi * float(gap)

    def eval(self, point) -> Fraction | float:
        word = locate(point, self.n_prime)
        return self.value_in_triangle(word, point)


def graft(base: PiecewiseAffineFn, n_prime: int, witness: BernoulliWitnessFn) -> GraftedFn:
    """Build the grafted function, validating the level choice.

    Rejects a non-standard base and any n' with
    M * 2**(-n'(1-alpha)) >= HOLDER_STEP_THRESHOLD, reporting the
    smallest admissible level.  The closed-form certificate constant
    must stay below GRAFT_BUDGET = 1/8.
    """
    _check_depth("graft level n_prime", n_prime, base.level)
    if not base.is_standard():
        raise NotStandardError("graft requires a standard base")
    alpha = witness.alpha
    lip = base.lipschitz()
    if lip > 0:
        step = lip * 2.0 ** (-n_prime * (1 - alpha))
        if step >= float(HOLDER_STEP_THRESHOLD):
            needed = min_graft_level(lip, alpha)
            raise ValueError(
                f"graft level {n_prime} too small: M * 2**(-n'(1-alpha)) = "
                f"{step:.6g} >= {float(HOLDER_STEP_THRESHOLD):.6g}; smallest admissible "
                f"level is {needed}"
            )
    constant = graft_certificate_constant(lip, alpha, n_prime)
    if constant >= float(GRAFT_BUDGET):
        raise ValueError(
            f"certificate constant {constant:.6g} exceeds the budget "
            f"{float(GRAFT_BUDGET):.6g}"
        )
    return GraftedFn(base=base, n_prime=n_prime, witness=witness,
                     certificate_constant=constant)

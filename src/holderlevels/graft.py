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
from .paf import PiecewiseAffineFn
from .triangles import (
    Similarity,
    barycentric_weights,
    locate,
    rescaling_similarity,
    triangle_vertices,
)

HOLDER_STEP_THRESHOLD = Fraction(1, 100)
GRAFT_BUDGET = Fraction(1, 8)


class NotStandardError(ValueError):
    pass


def min_graft_level(lipschitz: float, alpha: float) -> int:
    """Smallest n' with M * 2**(-n'(1-alpha)) < HOLDER_STEP_THRESHOLD."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if lipschitz <= 0:
        raise ValueError("need a positive Lipschitz constant")
    t = float(HOLDER_STEP_THRESHOLD)
    n = max(0, math.floor(math.log2(lipschitz / t) / (1 - alpha)) + 1)
    while lipschitz * 2.0 ** (-n * (1 - alpha)) >= t:
        n += 1
    while n > 0 and lipschitz * 2.0 ** (-(n - 1) * (1 - alpha)) < t:
        n -= 1
    return n


def graft_certificate_constant(lipschitz: float, alpha: float, n_prime: int) -> float:
    """Closed-form per-triangle Holder constant of the graft."""
    return (lipschitz * 2.0 ** (-n_prime * (1 - alpha))
            * 3.0 * (2.0 / math.sqrt(3.0)) ** alpha)


def _repeated_value_labels(values) -> tuple[int, int, int]:
    """Corner roles (base1, base2, apex) for a standard triangle.

    The two corners with the repeated value become the base; ties pick
    the smaller corner index first.  A constant triangle keeps the
    identity labeling (its graft gap is zero anyway).
    """
    q1, q2, q3 = values
    if q1 == q2 == q3:
        return (0, 1, 2)
    if q1 == q2:
        return (0, 1, 2)
    if q2 == q3:
        return (1, 2, 0)
    if q1 == q3:
        return (0, 2, 1)
    raise NotStandardError(f"no repeated corner value in {values!r}")


@dataclass
class GraftedFn:
    """Witness-grafted function; agrees with the base on level-n' vertices."""

    base: PiecewiseAffineFn
    n_prime: int
    witness: BernoulliWitnessFn
    certificate_constant: float

    def labels_for(self, word: str) -> tuple[int, int, int]:
        return _repeated_value_labels(self.base.corner_values(word))

    def similarity_for(self, word: str) -> Similarity:
        """The per-triangle label-aware map onto the rescaled triangle."""
        return rescaling_similarity(word, self.labels_for(word))

    def value_in_triangle(self, word: str, point) -> Fraction | float:
        """Evaluate inside the addressed level-n' triangle.

        The height of the rescaled image equals the barycentric weight
        of the apex corner, so no similarity arithmetic is needed; the
        result is an exact Fraction whenever that weight is rational and
        the witness parameter is rational (and at vertices regardless,
        where the witness contributes exactly 0 or 1).
        """
        vals = self.base.corner_values(word)
        labels = _repeated_value_labels(vals)
        ws = barycentric_weights(point, triangle_vertices(word))
        height = ws[labels[2]]
        gap = vals[labels[2]] - vals[labels[0]]
        anchor = vals[labels[0]]
        if height.is_rational():
            h = height.as_fraction()
            phi = self.witness.value_at_height(h)
        else:
            phi = self.witness.value_at_height(float(height))
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
    if n_prime < base.level:
        raise ValueError("graft level must be at least the base level")
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

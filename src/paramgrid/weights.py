"""Weight-space geometry for the augmented problem.

The augmented objective scalarizes the component vector F(x) by a nonnegative
weight w.  A weight is *reducible* when some index group I contributes less
than the threshold share c = eps' * LB / (beta * UB) of its smallest outside
component; solving at a lifted weight on the threshold boundary then costs at
most an additive eps' in the approximation factor.  Weights outside every
reducible region form a closed cone; ``lift_to_cone`` moves any nonzero
weight into it in at most K steps and returns a certificate expressing the
original weight as an exact convex combination of the lifted weight and its
group projections.  The lift itself runs on integers
(``lift_integer_weight``), which ``query`` calls without a certificate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError
from .model import (
    ONE,
    Lambda,
    RationalLike,
    Weight,
    ZERO,
    _clear_denominators,
    as_fraction,
    check_weight,
)


def threshold(
    eps_prime: RationalLike,
    beta: RationalLike,
    lower_bound: RationalLike,
    upper_bound: RationalLike,
) -> Fraction:
    """Reducibility threshold c = eps' * LB / (beta * UB), a rational in (0,1)."""
    e = as_fraction(eps_prime)
    b = as_fraction(beta)
    lb = as_fraction(lower_bound)
    ub = as_fraction(upper_bound)
    if not (0 < e < 1):
        raise DomainError(f"eps' must lie in (0,1), got {e}")
    if b < 1:
        raise DomainError(f"beta must be >= 1, got {b}")
    if not (0 < lb <= ub):
        raise DomainError(f"bounds must satisfy 0 < LB <= UB, got {lb}, {ub}")
    return e * lb / (b * ub)


def _first_below(values: Sequence[int], p: int, q: int) -> tuple[int, int] | None:
    """(Last position, sum) of the first prefix below c = p/q times the next value, or None."""
    prefix = 0
    for k in range(len(values) - 1):
        prefix += values[k]
        if prefix * q < p * values[k + 1]:
            return k, prefix
    return None


def lift_integer_weight(
    w: Sequence[int], p: int, q: int
) -> tuple[list[int], list[int], list[tuple[int, int, int, tuple[int, ...]]]]:
    """Cone lift of a nonnegative integer weight for the threshold c = p/q.

    Every step is scale-invariant, so the lift runs on integers: the weight
    is only ever known up to a positive factor.  Works in a fixed ascending
    component order (ties broken by original index), which each step
    preserves, and terminates after at most K steps.  Returns that order, the
    lifted weight in original index order, and per step the prefix position,
    mu as numerator and denominator, and the ascending integers after it.
    """
    n = len(w)
    order = sorted(range(n), key=w.__getitem__)
    cur = [w[i] for i in order]
    steps = []
    while (hit := _first_below(cur, p, q)) is not None:
        top, inside = hit
        # put the prefix on c times its next value: scale it by p * next and
        # everything else by the prefix's own sum times q
        target = p * cur[top + 1]
        if inside:
            head = [v * target for v in cur[: top + 1]]
            rest = inside * q
        else:
            # an all-zero prefix splits its target evenly
            head = [target] * (top + 1)
            rest = q * (top + 1)
        cur = head + [v * rest for v in cur[top + 1 :]]
        g = math.gcd(*cur)
        cur = [v // g for v in cur]
        steps.append((top, inside * q, target, tuple(cur)))
    lifted = [0] * n
    for pos, i in enumerate(order):
        lifted[i] = cur[pos]
    return order, lifted, steps


@dataclass(frozen=True)
class LiftStep:
    """One lifting step: the prefix position, the touched original indices,
    the lifted weight, and the convex coefficient mu with
    w_before = mu * w_after + (1 - mu) * proj(w_after)."""

    prefix_top: int
    indices: tuple[int, ...]
    weight: Weight
    mu: Fraction


@dataclass(frozen=True)
class LiftCertificate:
    """Proof object for a cone lift.

    The start weight is an exact convex combination of the final weight and
    its projections onto each step's zeroed group, with coefficients built
    from the steps' ``mu`` alone; ``tests/conftest.py`` reconstructs it.
    """

    start: Weight
    steps: tuple[LiftStep, ...]
    final: Weight
    order: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.steps)


def lift_to_cone(w: Sequence[RationalLike], c: RationalLike) -> LiftCertificate:
    """Lift a nonzero weight into the irreducible cone, with its certificate.

    Runs ``lift_integer_weight`` on the weight with cleared denominators.  The
    largest component is never in a lifted prefix, so each step's exact
    weight is its integers rescaled to give that component its start value.
    """
    vec = check_weight(w)
    cc = as_fraction(c)
    if all(v == 0 for v in vec):
        raise DomainError("cannot lift the zero weight")
    ints, _ = _clear_denominators(vec)
    order, _, trail = lift_integer_weight(ints, cc.numerator, cc.denominator)
    top_value = vec[order[-1]]

    steps = []
    for top, mu_num, mu_den, cur in trail:
        scale = top_value / cur[-1]
        lifted = [ZERO] * len(vec)
        for pos, i in enumerate(order):
            lifted[i] = cur[pos] * scale
        steps.append(
            LiftStep(
                prefix_top=top,
                indices=tuple(sorted(order[: top + 1])),
                weight=tuple(lifted),
                mu=Fraction(mu_num, mu_den),
            )
        )

    final = steps[-1].weight if steps else vec
    return LiftCertificate(start=vec, steps=tuple(steps), final=final, order=tuple(order))


def weight_from_lambda(lam: Sequence[RationalLike], lambda_min: Sequence[RationalLike]) -> Weight:
    """Weight (1, lambda - lambda_min), unnormalized: every later query step is scale-invariant."""
    lam = tuple(lam)
    lambda_min = tuple(lambda_min)
    if len(lam) != len(lambda_min):
        raise DomainError("lambda and lambda_min lengths differ")
    offsets = [as_fraction(v) - as_fraction(lo) for v, lo in zip(lam, lambda_min)]
    for k, off in enumerate(offsets):
        if off < 0:
            raise DomainError(f"lambda[{k}] below its minimum")
    return (ONE, *offsets)


def lambda_from_weight(w: Sequence[RationalLike], lambda_min: Sequence[RationalLike]) -> Lambda:
    """Parameter vector (w_k / w_0 + lambda_min_k); requires w_0 > 0."""
    vec = check_weight(w)
    if vec[0] == 0:
        raise DomainError("weight has w_0 = 0; no finite parameter image")
    return tuple(
        vec[k + 1] / vec[0] + as_fraction(lm) for k, lm in enumerate(lambda_min)
    )

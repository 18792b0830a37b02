"""Weight-space geometry for the augmented problem.

The augmented objective scalarizes the component vector F(x) by a nonnegative
weight w.  A weight is *reducible* when some index group I contributes less
than the threshold share c = eps' * LB / (beta * UB) of its smallest outside
component; solving at a lifted weight on the threshold boundary then costs at
most an additive eps' in the approximation factor.  Weights outside every
reducible region form a closed cone; ``lift_to_cone`` moves any nonzero
weight into it in at most K steps and returns a certificate expressing the
original weight as an exact convex combination of the lifted weight and its
group projections.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError
from .model import ONE, Lambda, RationalLike, Weight, ZERO, as_fraction, check_weight


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


def _group_share(
    w: Sequence[RationalLike], indices: Iterable[int], c: RationalLike
) -> tuple[Weight, tuple[int, ...], Fraction, Fraction]:
    """Checked weight, its index group, the group's sum and c times the smallest outside component."""
    vec = check_weight(w)
    group = tuple(sorted(set(indices)))
    if not group or len(group) >= len(vec):
        raise DomainError("index group must be a nonempty proper subset")
    if group[0] < 0 or group[-1] >= len(vec):
        raise DomainError(f"index group {group} out of range for {len(vec)} components")
    inside = sum((vec[i] for i in group), ZERO)
    target = as_fraction(c) * min(vec[j] for j in range(len(vec)) if j not in group)
    return vec, group, inside, target


def below_threshold(w: Sequence[RationalLike], indices: Iterable[int], c: RationalLike) -> bool:
    """True iff the group's component sum is strictly below c times every outside component."""
    _, _, inside, target = _group_share(w, indices, c)
    return inside < target


def at_threshold(w: Sequence[RationalLike], indices: Iterable[int], c: RationalLike) -> bool:
    """True iff the group's component sum equals c times the smallest outside component."""
    _, _, inside, target = _group_share(w, indices, c)
    return inside == target


def _first_below(values: Sequence[Fraction], c: Fraction) -> tuple[int, Fraction] | None:
    """(Last position, sum) of the first prefix below c times the next value, or None."""
    prefix = ZERO
    for k in range(len(values) - 1):
        prefix += values[k]
        if prefix < c * values[k + 1]:
            return k, prefix
    return None


def in_cone(w: Sequence[RationalLike], c: RationalLike) -> bool:
    """Membership in the irreducible cone.

    Only the prefix groups of the ascending component order can be below
    threshold (any qualifying group consists of strictly smaller components
    than everything outside it), so K prefix checks decide membership.
    """
    return _first_below(sorted(check_weight(w)), as_fraction(c)) is None


def lift_once(w: Sequence[RationalLike], indices: Iterable[int], c: RationalLike) -> Weight:
    """Scale the group up onto the threshold boundary.

    Requires the group to be at or below threshold; a boundary weight is its
    own lift.  Group components are scaled proportionally (or split uniformly
    if they are all zero); outside components are untouched.  The input is an
    exact convex combination of the result and its group projection.
    """
    vec, group, inside, target = _group_share(w, indices, c)
    if inside > target:
        raise DomainError(f"group {group} is above the threshold share for c={c}")
    out = list(vec)
    if inside > 0:
        for i in group:
            out[i] = vec[i] / inside * target
    elif target > 0:
        share = target / len(group)
        for i in group:
            out[i] = share
    return tuple(out)


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

    ``hull_coefficients`` pairs with ``hull_vectors()``: the projections of
    the final weight onto each step's zeroed group, followed by the final
    weight itself.  The coefficients are in [0,1], sum to 1, and reproduce
    the start weight exactly.
    """

    start: Weight
    steps: tuple[LiftStep, ...]
    final: Weight
    order: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.steps)

    @property
    def hull_coefficients(self) -> tuple[Fraction, ...]:
        """Step l gets (1 - mu_l) times the later mus' product; the final weight all mus'."""
        coeffs = []
        tail = Fraction(1)
        for step in reversed(self.steps):
            coeffs.append((1 - step.mu) * tail)
            tail *= step.mu
        return (*reversed(coeffs), tail)

    def hull_vectors(self) -> list[Weight]:
        vecs = []
        for step in self.steps:
            vecs.append(
                tuple(
                    ZERO if i in step.indices else v for i, v in enumerate(self.final)
                )
            )
        vecs.append(self.final)
        return vecs

    def reconstruct(self) -> Weight:
        total = [ZERO] * len(self.final)
        for coeff, vec in zip(self.hull_coefficients, self.hull_vectors()):
            for i, v in enumerate(vec):
                total[i] += coeff * v
        return tuple(total)


def lift_to_cone(w: Sequence[RationalLike], c: RationalLike) -> LiftCertificate:
    """Iteratively lift the smallest below-threshold prefix until irreducible.

    Works in a fixed ascending component order (ties broken by original
    index), which each step preserves.  Terminates after at most K steps.
    """
    vec = check_weight(w)
    cc = as_fraction(c)
    if all(v == 0 for v in vec):
        raise DomainError("cannot lift the zero weight")
    n = len(vec)
    order = tuple(sorted(range(n), key=lambda i: (vec[i], i)))
    cur = [vec[i] for i in order]

    steps: list[LiftStep] = []
    while (hit := _first_below(cur, cc)) is not None:
        top, inside = hit
        target = cc * cur[top + 1]
        if inside > 0:
            mu = inside / target
            for i in range(top + 1):
                cur[i] = cur[i] / inside * target
        else:
            mu = ZERO
            share = target / (top + 1)
            for i in range(top + 1):
                cur[i] = share
        lifted = [ZERO] * n
        for pos, i in enumerate(order):
            lifted[i] = cur[pos]
        steps.append(
            LiftStep(
                prefix_top=top,
                indices=tuple(sorted(order[: top + 1])),
                weight=tuple(lifted),
                mu=mu,
            )
        )

    final = steps[-1].weight if steps else vec
    return LiftCertificate(start=vec, steps=tuple(steps), final=final, order=order)


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

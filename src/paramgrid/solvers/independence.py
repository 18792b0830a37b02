"""Greedy maximization over independence systems and the exact rank quotient.

An independence system is a downward-closed nonempty family over a finite
ground set.  Greedy (sort by profit, add while independent) approximates the
maximum-profit independent set within the system's rank quotient, the worst
ratio of upper to lower rank over element subsets.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from fractions import Fraction

from ..errors import InvalidInstanceError, TooLargeError
from ..model import (
    ProblemInstance,
    RationalLike,
    Sense,
    SolutionRecord,
    check_lambda,
    record_from_elements,
    scaled_costs,
    structured_instance,
)

#: rank_quotient_exact tabulates all 2^n subsets, about n * 2^n steps.
RANK_ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class IndependenceSystem:
    """Ground set {0..n-1}, membership test, and per-element profit rows.

    ``member`` decides independence of a frozenset and must be downward
    closed with the empty set independent; this is property-tested, not
    enforced.  ``declared_alpha`` is the guarantee claimed for greedy
    (the rank quotient or a known bound for the family).
    """

    n: int
    member: Callable[[frozenset[int]], bool]
    elements: tuple[tuple[int, tuple[int, ...]], ...]
    K: int
    declared_alpha: Fraction

    def __post_init__(self):
        if len(self.elements) != self.n:
            raise InvalidInstanceError("one (a, b) row per ground-set element required")
        for a, b in self.elements:
            if a < 0 or any(v < 0 for v in b):
                raise InvalidInstanceError("profit components must be nonnegative integers")
            if len(b) != self.K:
                raise InvalidInstanceError("b-vector length must equal K")
        if self.declared_alpha < 1:
            raise InvalidInstanceError("declared_alpha must be >= 1")

    def cost_rows(self) -> Iterable[tuple[int, tuple[int, ...]]]:
        return iter(self.elements)

    def independent(self, subset: Iterable[int]) -> bool:
        return bool(self.member(frozenset(subset)))


def from_generators(
    n: int,
    generators: Sequence[Iterable[int]],
    elements: Sequence[tuple[int, Sequence[int]]],
    K: int,
    declared_alpha: RationalLike = 1,
) -> IndependenceSystem:
    """System whose family is the downward closure of the given sets."""
    gens = [frozenset(g) for g in generators]
    for g in gens:
        if any(e < 0 or e >= n for e in g):
            raise InvalidInstanceError("generator element out of range")

    def member(subset: frozenset[int]) -> bool:
        return any(subset <= g for g in gens) or not subset

    return IndependenceSystem(
        n=n,
        member=member,
        elements=tuple((a, tuple(b)) for a, b in elements),
        K=K,
        declared_alpha=Fraction(declared_alpha),
    )


def independence_instance(
    system: IndependenceSystem, *, lambda_min: Sequence[RationalLike] | None = None
) -> ProblemInstance:
    return structured_instance(system, Sense.MAX, lambda_min=lambda_min)


def greedy_solve(instance: ProblemInstance, lam: Sequence[RationalLike]) -> SolutionRecord:
    """Greedy independent set under profits at lambda; ties by element index."""
    vec = check_lambda(instance, lam)
    system: IndependenceSystem = instance.payload
    profits, _ = scaled_costs(system.elements, vec)
    order = sorted(range(system.n), key=lambda e: (-profits[e], e))
    chosen: set[int] = set()
    for e in order:
        if system.independent(chosen | {e}):
            chosen.add(e)
    return record_from_elements(system, instance.lambda_min, "elements", chosen)


def rank_quotient_exact(system: IndependenceSystem) -> Fraction:
    """Worst ratio of upper to lower rank over all element subsets.

    The upper rank of F is the size of its largest independent subset; the
    lower rank is the size of its smallest independent subset that is maximal
    within F.  An independent S is maximal in exactly the F with
    S <= F <= ~ext(S), where ext(S) holds the elements e outside S with S + e
    independent, and the upper rank grows with F; so S's worst ratio is
    upper(~ext(S)) / |S|, and the quotient is the largest of these (at least
    1).  Takes about n * 2^n steps; guarded by ``RANK_ENUMERATION_LIMIT``.
    """
    n = system.n
    if n > RANK_ENUMERATION_LIMIT:
        raise TooLargeError(f"rank quotient enumeration needs n <= {RANK_ENUMERATION_LIMIT}")
    full = (1 << n) - 1
    bits = [1 << i for i in range(n)]
    ind = [system.independent(i for i in range(n) if mask >> i & 1) for mask in range(full + 1)]
    if not ind[0]:
        raise InvalidInstanceError("the empty set must be independent")

    # upper[F] = max over subsets of F, built up one element at a time
    upper = [mask.bit_count() if ind[mask] else 0 for mask in range(full + 1)]
    for bit in bits:
        for mask in range(full + 1):
            if mask & bit and upper[mask ^ bit] > upper[mask]:
                upper[mask] = upper[mask ^ bit]

    worst = Fraction(1)
    for mask in range(1, full + 1):
        if ind[mask]:
            ext = sum(bit for bit in bits if not mask & bit and ind[mask | bit])
            worst = max(worst, Fraction(upper[full ^ ext], mask.bit_count()))
    return worst

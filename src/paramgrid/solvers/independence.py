"""Greedy maximization over independence systems and the exact rank quotient.

An independence system is a downward-closed nonempty family over a finite
ground set.  Greedy (sort by profit, add while independent) approximates the
maximum-profit independent set within the system's rank quotient, the worst
ratio of upper to lower rank over element subsets.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from fractions import Fraction

from ..errors import InvalidInstanceError, TooLargeError
from ..model import (
    ProblemInstance,
    RationalLike,
    Sense,
    SolutionRecord,
    check_lambda,
    costs_at,
    record_from_elements,
    structured_instance,
)

#: rank_quotient_exact enumerates 3^n (subset, subset) pairs.
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
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

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
        key = frozenset(subset)
        hit = self._cache.get(key)
        if hit is None:
            hit = bool(self.member(key))
            self._cache[key] = hit
        return hit


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
    return structured_instance(
        system, Sense.MAX, lambda_min=lambda_min, alpha=system.declared_alpha
    )


def greedy_solve(instance: ProblemInstance, lam: Sequence[RationalLike]) -> SolutionRecord:
    """Greedy independent set under profits at lambda; ties by element index."""
    vec = check_lambda(instance, lam)
    system: IndependenceSystem = instance.payload
    profits = costs_at(system.elements, vec)
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
    within F.  Enumerates all 3^n subset pairs; guarded by
    ``RANK_ENUMERATION_LIMIT``.
    """
    n = system.n
    if n > RANK_ENUMERATION_LIMIT:
        raise TooLargeError(f"rank quotient enumeration needs n <= {RANK_ENUMERATION_LIMIT}")
    ind = [False] * (1 << n)
    for mask in range(1 << n):
        ind[mask] = system.independent(
            i for i in range(n) if mask >> i & 1
        )
    if not ind[0]:
        raise InvalidInstanceError("the empty set must be independent")

    worst = Fraction(1)
    for fmask in range(1, 1 << n):
        upper = 0
        lower = None
        sub = fmask
        while True:
            if ind[sub]:
                size = sub.bit_count()
                upper = max(upper, size)
                rest = fmask & ~sub
                maximal = True
                while rest:
                    bit = rest & -rest
                    if ind[sub | bit]:
                        maximal = False
                        break
                    rest ^= bit
                if maximal and (lower is None or size < lower):
                    lower = size
            if sub == 0:
                break
            sub = (sub - 1) & fmask
        if lower:
            worst = max(worst, Fraction(upper, lower))
    return worst

"""Knapsack solvers: exact weight-indexed DP and a profit-scaling scheme.

Item e yields profit a_e + sum_k lambda_k * b_{k,e}; profits are nonnegative
rationals on the admissible parameter box.  Both solvers work on the profits
times the common denominator of lambda, which are integers.  The exact DP
serves as the default oracle; the scaling solver trades accuracy for speed
and exists to exercise the scheme-composition path.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import InvalidInstanceError
from ..model import (
    ProblemInstance,
    RationalLike,
    Sense,
    SolutionRecord,
    as_fraction,
    check_lambda,
    record_from_elements,
    scaled_costs,
    structured_instance,
)


@dataclass(frozen=True)
class Item:
    a: int
    b: tuple[int, ...]
    weight: int

    def __post_init__(self):
        if self.a < 0 or self.weight < 0 or any(v < 0 for v in self.b):
            raise InvalidInstanceError("item data must be nonnegative integers")


@dataclass(frozen=True)
class KnapsackData:
    items: tuple[Item, ...]
    budget: int
    K: int

    def __post_init__(self):
        if self.budget < 0:
            raise InvalidInstanceError("budget must be nonnegative")
        for item in self.items:
            if len(item.b) != self.K:
                raise InvalidInstanceError(f"item {item} has wrong b-vector length")

    def cost_rows(self) -> Iterable[tuple[int, tuple[int, ...]]]:
        for item in self.items:
            yield item.a, item.b

    @property
    def capacity(self) -> int:
        """The DP's largest weight: the budget, or the fitting items' total if smaller."""
        return min(self.budget, sum(it.weight for it in self.items if it.weight <= self.budget))


def knapsack_data(
    items: Sequence[tuple[int, Sequence[int], int]], budget: int, K: int
) -> KnapsackData:
    return KnapsackData(
        items=tuple(Item(a, tuple(b), w) for a, b, w in items),
        budget=budget,
        K=K,
    )


def knapsack_instance(
    data: KnapsackData, *, lambda_min: Sequence[RationalLike] | None = None
) -> ProblemInstance:
    return structured_instance(data, Sense.MAX, lambda_min=lambda_min)


def _profits(instance: ProblemInstance, lam) -> list[int]:
    """Item profits at lambda, all scaled by one positive integer."""
    return scaled_costs(instance.payload.cost_rows(), check_lambda(instance, lam))[0]


def _subset_record(instance: ProblemInstance, chosen: Iterable[int]) -> SolutionRecord:
    return record_from_elements(instance.payload, instance.lambda_min, "items", chosen)


def knapsack_solve(instance: ProblemInstance, lam: Sequence[RationalLike]) -> SolutionRecord:
    """Maximum-profit feasible subset at a fixed parameter vector; exact.

    Weight-indexed DP with exact integer profit comparisons, over weights up
    to ``data.capacity``: past the fitting items' total weight every subset
    fits, so a larger budget changes no answer.  Ties prefer not taking an
    item, making the result deterministic.
    """
    data: KnapsackData = instance.payload
    profits = _profits(instance, lam)
    n = len(data.items)
    W = data.capacity
    best = [0] * (W + 1)
    take = [[False] * (W + 1) for _ in range(n)]
    for i, item in enumerate(data.items):
        if item.weight > W:
            continue
        row = take[i]
        for w in range(W, item.weight - 1, -1):
            cand = best[w - item.weight] + profits[i]
            if cand > best[w]:
                best[w] = cand
                row[w] = True
    chosen = []
    w = W
    for i in range(n - 1, -1, -1):
        if take[i][w]:
            chosen.append(i)
            w -= data.items[i].weight
    return _subset_record(instance, chosen)


def knapsack_scaling_solve(
    instance: ProblemInstance, lam: Sequence[RationalLike], accuracy: RationalLike
) -> SolutionRecord:
    """Profit-scaling solver: profit at least (1 - accuracy) times optimal.

    Scales profits to integers at granularity accuracy * max_profit / n and
    runs a profit-indexed minimum-weight DP on the scaled values.
    """
    eps = as_fraction(accuracy)
    if not (0 < eps < 1):
        raise InvalidInstanceError(f"accuracy must lie in (0,1), got {eps}")
    data: KnapsackData = instance.payload
    profits = _profits(instance, lam)
    fitting = [i for i, item in enumerate(data.items) if item.weight <= data.budget]
    top = max((profits[i] for i in fitting), default=0)
    if top == 0:
        return _subset_record(instance, [])
    n = len(fitting)
    # floor(profit / unit) with unit = eps * top / n; profits are nonnegative
    scaled = [profits[i] * n * eps.denominator // (eps.numerator * top) for i in fitting]

    total = sum(scaled)
    INF = data.budget + 1
    min_weight = [0] + [INF] * total
    take = [[False] * (total + 1) for _ in range(n)]
    for pos, i in enumerate(fitting):
        q = scaled[pos]
        wt = data.items[i].weight
        if q == 0:
            continue
        row = take[pos]
        for p in range(total, q - 1, -1):
            cand = min_weight[p - q] + wt
            if cand < min_weight[p]:
                min_weight[p] = cand
                row[p] = True
    best_p = max(p for p in range(total + 1) if min_weight[p] <= data.budget)
    chosen = []
    p = best_p
    for pos in range(n - 1, -1, -1):
        if take[pos][p]:
            chosen.append(fitting[pos])
            p -= scaled[pos]
    return _subset_record(instance, chosen)

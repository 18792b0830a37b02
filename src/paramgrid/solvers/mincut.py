"""Exact minimum s-t-cut solver on parameter-dependent arc costs.

Arc r costs a_r + sum_k lambda_k * b_{k,r}; for lambda in the admissible box
all costs are nonnegative, so the cheapest cut equals the maximum s-t flow.
Blocking-flow max-flow on exact rational capacities; the returned cut is the
source side reachable in the final residual network, which is unique and
deterministic.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from ..errors import DomainError, InvalidInstanceError
from ..model import (
    ProblemInstance,
    RationalLike,
    Sense,
    SolutionRecord,
    ZERO,
    check_lambda,
    component_vector,
    costs_at,
    structured_instance,
)


@dataclass(frozen=True)
class Arc:
    tail: int
    head: int
    a: int
    b: tuple[int, ...]

    def __post_init__(self):
        if self.a < 0 or any(v < 0 for v in self.b):
            raise InvalidInstanceError("arc cost components must be nonnegative integers")


@dataclass(frozen=True)
class CutGraph:
    """Directed graph with K-parametric arc costs and fixed terminals."""

    n: int
    arcs: tuple[Arc, ...]
    s: int
    t: int
    K: int

    def __post_init__(self):
        if self.s == self.t:
            raise InvalidInstanceError("source and sink must differ")
        if not (0 <= self.s < self.n and 0 <= self.t < self.n):
            raise InvalidInstanceError("terminal out of range")
        for arc in self.arcs:
            if not (0 <= arc.tail < self.n and 0 <= arc.head < self.n):
                raise InvalidInstanceError(f"arc {arc} out of range")
            if len(arc.b) != self.K:
                raise InvalidInstanceError(f"arc {arc} has wrong b-vector length")

    def cost_rows(self) -> Iterable[tuple[int, tuple[int, ...]]]:
        for arc in self.arcs:
            yield arc.a, arc.b


def cut_graph(
    n: int,
    arcs: Sequence[tuple[int, int, int, Sequence[int]]],
    s: int,
    t: int,
    K: int,
) -> CutGraph:
    return CutGraph(
        n=n,
        arcs=tuple(Arc(tail, head, a, tuple(b)) for tail, head, a, b in arcs),
        s=s,
        t=t,
        K=K,
    )


def mincut_instance(
    graph: CutGraph, *, lambda_min: Sequence[RationalLike] | None = None
) -> ProblemInstance:
    return structured_instance(graph, Sense.MIN, lambda_min=lambda_min, alpha=1)


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[Fraction] = []

    def add(self, u: int, v: int, cap: Fraction):
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(ZERO)

    def _levels(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in self.head[u]:
                v = self.to[e]
                if level[v] < 0 and self.cap[e] > 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def _push(self, u: int, t: int, limit: Fraction | None, level, it) -> Fraction:
        if u == t:
            return limit
        while it[u] < len(self.head[u]):
            e = self.head[u][it[u]]
            v = self.to[e]
            if self.cap[e] > 0 and level[v] == level[u] + 1:
                room = self.cap[e] if limit is None else min(limit, self.cap[e])
                pushed = self._push(v, t, room, level, it)
                if pushed is not None and pushed > 0:
                    self.cap[e] -= pushed
                    self.cap[e ^ 1] += pushed
                    return pushed
            it[u] += 1
        return ZERO

    def max_flow(self, s: int, t: int) -> Fraction:
        flow = ZERO
        while True:
            level = self._levels(s, t)
            if level is None:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._push(s, t, None, level, it)
                if pushed is None or pushed == 0:
                    break
                flow += pushed

    def residual_side(self, s: int) -> frozenset[int]:
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in self.head[u]:
                v = self.to[e]
                if v not in seen and self.cap[e] > 0:
                    seen.add(v)
                    queue.append(v)
        return frozenset(seen)


def cut_record(instance: ProblemInstance, source_side: Iterable[int]) -> SolutionRecord:
    """Component vector of a cut given by its source-side vertex set."""
    graph: CutGraph = instance.payload
    side = frozenset(source_side)
    if instance.sense is not Sense.MIN or not isinstance(graph, CutGraph):
        raise InvalidInstanceError("cut_record needs a min-cut instance")
    if graph.s not in side or graph.t in side:
        raise InvalidInstanceError("source side must contain s and exclude t")
    cut = ((arc.a, arc.b) for arc in graph.arcs if arc.tail in side and arc.head not in side)
    F = component_vector(cut, instance.lambda_min)
    return SolutionRecord(encoding=("cut", tuple(sorted(side))), F=F)


def min_cut_solve(instance: ProblemInstance, lam: Sequence[RationalLike]) -> SolutionRecord:
    """Minimum-cost s-t cut at a fixed parameter vector; exact."""
    vec = check_lambda(instance, lam)
    graph: CutGraph = instance.payload
    net = _Dinic(graph.n)
    for arc, cost in zip(graph.arcs, costs_at(graph.cost_rows(), vec)):
        if cost < 0:
            raise DomainError(f"arc cost {cost} negative at lambda={vec}")
        if cost > 0:
            net.add(arc.tail, arc.head, cost)
    net.max_flow(graph.s, graph.t)
    return cut_record(instance, net.residual_side(graph.s))

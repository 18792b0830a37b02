"""Exact minimum s-t-cut solver on parameter-dependent arc costs.

Arc r costs a_r + sum_k lambda_k * b_{k,r}; for lambda in the admissible box
all costs are nonnegative, so the cheapest cut equals the maximum s-t flow.
Blocking-flow max-flow on integer capacities, the arc costs times the common
denominator of lambda; the returned cut is the source side reachable in the
final residual network, which is unique and deterministic.
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
    check_lambda,
    component_vector,
    scaled_costs,
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
    return structured_instance(graph, Sense.MIN, lambda_min=lambda_min)


def _source_side(n: int, arcs: Iterable[tuple[int, int, int]], s: int, t: int) -> frozenset[int]:
    """Source side of the minimum s-t cut; each arc is (tail, head, positive capacity).

    Blocking-flow phases (Dinitz 1970): a BFS levels the residual graph, then
    paths are pushed depth-first along the ``it`` pointers with an explicit
    edge stack (no recursion), a dead end advancing its parent's pointer.
    The BFS that misses t has levelled the residual reachable set: the cut.
    """
    head: list[list[int]] = [[] for _ in range(n)]
    to: list[int] = []
    cap: list[int] = []
    for u, v, c in arcs:  # arc e and its reverse e ^ 1
        head[u].append(len(to))
        to.append(v)
        cap.append(c)
        head[v].append(len(to))
        to.append(u)
        cap.append(0)
    while True:
        level = [-1] * n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in head[u]:
                v = to[e]
                if level[v] < 0 and cap[e] > 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            return frozenset(v for v in range(n) if level[v] >= 0)
        it = [0] * n
        path: list[int] = []
        u = s
        while True:
            if u == t:
                pushed = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= pushed
                    cap[e ^ 1] += pushed
                path.clear()
                u = s
            edges = head[u]
            while it[u] < len(edges):
                e = edges[it[u]]
                if cap[e] > 0 and level[to[e]] == level[u] + 1:
                    path.append(e)
                    u = to[e]
                    break
                it[u] += 1
            else:
                if not path:
                    break  # the flow is blocking
                u = to[path.pop() ^ 1]
                it[u] += 1


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
    costs, D = scaled_costs(graph.cost_rows(), vec)
    arcs = []
    for arc, cost in zip(graph.arcs, costs):
        if cost < 0:
            raise DomainError(f"arc cost {Fraction(cost, D)} negative at lambda={vec}")
        if cost > 0:
            arcs.append((arc.tail, arc.head, cost))
    return cut_record(instance, _source_side(graph.n, arcs, graph.s, graph.t))

"""Shared generators and independent reference implementations.

The reference helpers here deliberately avoid the library's optimized code
paths: cone membership enumerates every index subset, optima come from full
enumeration with Fraction arithmetic, and expected values in tests are frozen
from these oracles, not from the code under test.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from paramgrid import Sense, augmented_evaluate, evaluate, grid_points
from paramgrid.model import ProblemInstance, SolutionRecord, ZERO
from paramgrid.oracle import enumerate_solutions
from paramgrid.solvers import (
    cut_graph,
    from_generators,
    independence_instance,
    knapsack_data,
    knapsack_instance,
    mincut_instance,
)

F = Fraction


def frac(num, den=1) -> Fraction:
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# independent reference implementations
# ---------------------------------------------------------------------------


def cone_member_exhaustive(w, c) -> bool:
    """All-subsets cone membership: no proper nonempty group below threshold."""
    n = len(w)
    for size in range(1, n):
        for group in combinations(range(n), size):
            inside = sum((w[i] for i in group), ZERO)
            outside = min(w[j] for j in range(n) if j not in group)
            if inside < c * outside:
                return False
    return True


def optimum_by_enumeration(instance: ProblemInstance, lam):
    """Exact optimum by scanning every feasible solution with Fractions."""
    best = None
    for rec in enumerate_solutions(instance):
        val = evaluate(instance, rec, lam)
        if best is None or (
            val < best if instance.sense is Sense.MIN else val > best
        ):
            best = val
    return best


def optimum_by_enumeration_weight(instance: ProblemInstance, w):
    best = None
    for rec in enumerate_solutions(instance):
        val = augmented_evaluate(rec, w)
        if best is None or (
            val < best if instance.sense is Sense.MIN else val > best
        ):
            best = val
    return best


def full_grid_entries(instance: ProblemInstance, spec, oracle) -> dict:
    """Reference fit: the oracle called at every point of the grid."""
    return {idx: oracle(instance, lam) for idx, lam in grid_points(spec)}


def ratio_ok(instance, value, optimum, bound) -> bool:
    """value within factor `bound` of optimum, in the instance's sense."""
    if instance.sense is Sense.MIN:
        return value <= bound * optimum
    return bound * value >= optimum


# ---------------------------------------------------------------------------
# random instance generators
# ---------------------------------------------------------------------------


def random_knapsack(rng: random.Random, n: int, K: int, cmax: int, *, zero_anchor=False):
    """Random knapsack instance; `zero_anchor` plants items forcing lambda_min = 0."""
    while True:
        items = []
        for _ in range(n):
            a = rng.randint(0, cmax)
            b = tuple(rng.randint(0, cmax) for _ in range(K))
            w = rng.randint(0, max(1, cmax // 2))
            items.append((a, b, w))
        if zero_anchor:
            for k in range(K):
                b = tuple(1 if j == k else 0 for j in range(K))
                items[k % n] = (0, b, items[k % n][2])
        budget = rng.randint(1, max(1, sum(it[2] for it in items) * 2 // 3))
        if all(a == 0 and all(v == 0 for v in b) for a, b, _ in items):
            continue
        try:
            return knapsack_instance(knapsack_data(items, budget, K))
        except Exception:
            continue


def random_cut(rng: random.Random, n: int, K: int, cmax: int, *, zero_anchor=False):
    """Random s-t graph with a guaranteed s->t path."""
    while True:
        arcs = []
        for v in range(n - 1):
            arcs.append((v, v + 1, rng.randint(0, cmax), tuple(rng.randint(0, cmax) for _ in range(K))))
        extra = rng.randint(0, 2 * n)
        for _ in range(extra):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            arcs.append((u, v, rng.randint(0, cmax), tuple(rng.randint(0, cmax) for _ in range(K))))
        if zero_anchor:
            for k in range(K):
                b = tuple(1 if j == k else 0 for j in range(K))
                arcs[k % len(arcs)] = (arcs[k % len(arcs)][0], arcs[k % len(arcs)][1], 0, b)
        if all(a == 0 and all(v == 0 for v in b) for _, _, a, b in arcs):
            continue
        try:
            return mincut_instance(cut_graph(n, arcs, 0, n - 1, K))
        except Exception:
            continue


def random_independence(rng: random.Random, n: int, K: int, cmax: int):
    """Random downward-closed family from a generator antichain."""
    while True:
        count = rng.randint(1, max(2, n))
        generators = []
        for _ in range(count):
            size = rng.randint(0, n)
            generators.append(rng.sample(range(n), size))
        elements = [
            (rng.randint(0, cmax), tuple(rng.randint(0, cmax) for _ in range(K)))
            for _ in range(n)
        ]
        if all(a == 0 and all(v == 0 for v in b) for a, b in elements):
            continue
        try:
            system = from_generators(n, generators, elements, K, declared_alpha=1)
            return independence_instance(system)
        except Exception:
            continue


def random_explicit(rng: random.Random, count: int, K: int, vmax: int, *, sense=Sense.MIN):
    """Explicit instance with values drawn from {0} U [1, vmax]."""
    from paramgrid.model import explicit_instance

    while True:
        records = []
        for i in range(count):
            F_vec = tuple(
                Fraction(rng.choice([0] + list(range(1, vmax + 1))))
                for _ in range(K + 1)
            )
            records.append(SolutionRecord(encoding=("explicit", f"s{i}"), F=F_vec))
        if all(all(v == 0 for v in rec.F) for rec in records):
            continue
        try:
            return explicit_instance(records, sense=sense, K=K)
        except Exception:
            continue


def random_lambda(rng: random.Random, instance: ProblemInstance, spread: int = 1000):
    """Random admissible parameter vector with small denominators."""
    return tuple(
        lm + Fraction(rng.randint(0, spread * 16), 16)
        for lm in instance.lambda_min
    )


@pytest.fixture
def rng():
    return random.Random(20240811)

"""Seeded instances and query lambdas for the benchmark workloads.

Workload parameters live in ``workloads.json`` beside this file.  Every input
is drawn from ``random.Random("<workload>/<role>/<seed>")``, so one seed gives
the same instances and probes on every machine.  The generators pin what sets
the amount of work (LB = 1 and UB, hence the grid; arc, item and element
counts; the knapsack DP table), so different seeds change the numbers but not
the size of the job.
"""
from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

if not (SRC / "paramgrid" / "__init__.py").is_file():
    raise ImportError(f"paramgrid sources not found under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from paramgrid import (  # noqa: E402
    Oracle,
    OracleFamily,
    ProblemInstance,
    Sense,
    SolutionRecord,
    default_oracle,
    explicit_instance,
)
from paramgrid.solvers import (  # noqa: E402
    cut_graph,
    from_generators,
    independence_instance,
    knapsack_data,
    knapsack_instance,
    knapsack_scaling_solve,
    mincut_instance,
)

PARAMS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))

#: Per-layer name of each built-in oracle, keyed by ``Oracle.name``.
ORACLE_LAYERS = {
    "exhaustive": "oracle.exhaustive",
    "mincut-blocking-flow": "solvers.mincut",
    "knapsack-dp": "solvers.knapsack",
    "greedy": "solvers.independence",
}
SCALING_LAYER = "solvers.knapsack_scaling"


@dataclass
class Case:
    """One instance of a workload with the oracle the fit uses."""

    name: str
    instance: ProblemInstance
    oracle: Oracle | OracleFamily
    layer: str


def workload_params(name: str) -> dict:
    try:
        return PARAMS["workloads"][name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(PARAMS['workloads'])}"
        ) from None


def rng_for(workload: str, role: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{role}/{seed}")


def composition(rng: random.Random, total: int, parts: int, low: int) -> list[int]:
    """``parts`` integers, each at least ``low``, summing to ``total``."""
    free = total - parts * low
    if free < 0:
        raise ValueError(f"cannot split {total} into {parts} parts of at least {low}")
    slots = free + parts - 1
    bars = sorted(rng.sample(range(slots), parts - 1)) + [slots]
    out, prev = [], -1
    for bar in bars:
        out.append(bar - prev - 1 + low)
        prev = bar
    return out


def _rows(rng: random.Random, count: int, K: int, a_total: int, b_total: int):
    """Integer cost rows (a_e, b_e) with a_e >= 1 and fixed column sums.

    With lambda_min = 0 every cost at lambda_min is a positive integer, so
    LB = 1 and UB = max(a_total, b_total) for every seed.
    """
    a = composition(rng, a_total, count, 1)
    b = [composition(rng, b_total, count, 0) for _ in range(K)]
    return [(a[e], tuple(b[k][e] for k in range(K))) for e in range(count)]


def make_mincut(rng, *, K, paths, a_total, b_total):
    t = paths + 1
    ends = [(0, v) for v in range(1, paths + 1)] + [(v, t) for v in range(1, paths + 1)]
    rows = _rows(rng, len(ends), K, a_total, b_total)
    arcs = [(u, v, a, b) for (u, v), (a, b) in zip(ends, rows)]
    return mincut_instance(cut_graph(paths + 2, arcs, 0, t, K), lambda_min=(0,) * K)


def make_knapsack(rng, *, K, items, budget, weight_total, a_total, b_total):
    while True:
        weights = composition(rng, weight_total, items, 1)
        if max(weights) <= budget:
            break
    rows = _rows(rng, items, K, a_total, b_total)
    data = knapsack_data([(a, b, w) for (a, b), w in zip(rows, weights)], budget, K)
    return knapsack_instance(data, lambda_min=(0,) * K)


def make_independence(rng, *, K, elements, generators, generator_size, a_total, b_total):
    sets = [sorted(rng.sample(range(elements), generator_size)) for _ in range(generators)]
    rows = _rows(rng, elements, K, a_total, b_total)
    # Every independent set has at most generator_size elements and every
    # nonempty one holds a singleton, so the rank quotient is at most that.
    system = from_generators(elements, sets, rows, K, declared_alpha=generator_size)
    return independence_instance(system, lambda_min=(0,) * K)


def make_explicit(rng, *, K, solutions, total):
    """Distinct points of the plane sum(F) = total; none dominates another."""
    points = [(1,) * K + (total - K,)]
    seen = set(points)
    while len(points) < solutions:
        point = tuple(composition(rng, total, K + 1, 1))
        if point not in seen:
            seen.add(point)
            points.append(point)
    rng.shuffle(points)
    records = [
        SolutionRecord(encoding=("explicit", f"x{j}"), F=tuple(Fraction(v) for v in point))
        for j, point in enumerate(points)
    ]
    return explicit_instance(records, sense=Sense.MIN, K=K)


GENERATORS = {
    "mincut": make_mincut,
    "knapsack": make_knapsack,
    "independence": make_independence,
    "explicit": make_explicit,
}
INSTANCE_KEYS = {"name", "kind", "oracle", "note"}


def scaling_family() -> OracleFamily:
    """Accuracy-indexed knapsack scheme: make(delta) is a (1 + delta)-oracle."""

    def make(delta: Fraction) -> Oracle:
        accuracy = delta / (1 + delta)
        return Oracle(
            fn=lambda instance, lam: knapsack_scaling_solve(instance, lam, accuracy),
            alpha=1 + delta,
            name=f"knapsack-scaling@{delta}",
        )

    return OracleFamily(make=make, name="knapsack-scaling")


def build_cases(workload: str, params: dict, seed: int) -> list[Case]:
    """Instances and default oracles (ExhaustiveOracle enumerates here)."""
    cases = []
    for spec in params["instances"]:
        rng = rng_for(workload, spec["name"], seed)
        args = {k: v for k, v in spec.items() if k not in INSTANCE_KEYS}
        instance = GENERATORS[spec["kind"]](rng, **args)
        if spec.get("oracle") == "scaling":
            oracle, layer = scaling_family(), SCALING_LAYER
        else:
            oracle = default_oracle(instance)
            layer = ORACLE_LAYERS[oracle.name]
        cases.append(Case(spec["name"], instance, oracle, layer))
    return cases


def _in_core(rng: random.Random, span: int) -> Fraction:
    return Fraction(rng.randint(17, 32), 32) * Fraction(2) ** rng.randint(-span, span)


def query_lambdas(rng: random.Random, instance: ProblemInstance, c: Fraction, count: int):
    """Seeded parameter vectors: even positions in-core, odd ones far or near.

    In-core offsets lie in [2^-(s+1), 2^s] with 2s + 1 <= log2(1/c), so no
    component ratio drops below c and the weight needs no lift.  Odd
    positions move a random nonempty set of coordinates to 10^3..10^9
    (far field) or 10^-9..10^-3 (near the anchor), which needs 1..K lifts.
    """
    K = instance.K
    span = max(0, (math.floor(math.log2(1 / c)) - 1) // 2)
    out = []
    for j in range(count):
        offsets = [_in_core(rng, span) for _ in range(K)]
        if j % 2:
            for k in rng.sample(range(K), rng.randint(1, K)):
                decade = rng.randint(3, 9)
                scale = Fraction(10) ** (decade if rng.random() < 0.5 else -decade)
                offsets[k] = scale * Fraction(rng.randint(10, 99), 10)
        out.append(tuple(lo + off for lo, off in zip(instance.lambda_min, offsets)))
    return out

"""Golden set files: one small seeded fit per built-in oracle, pinned by sha256.

The solver tests compare optimal values with enumeration, which a change in
tie-breaking or record choice can pass.  These digests pin the exact saved
bytes (every cell, every record, tie choices included), so a scaling or
ordering slip that keeps the values but changes a record fails here.  A
second test checks every entry against enumeration, so a digest is only
ever pinned on answers that are alpha-approximate at their grid points.
"""
from __future__ import annotations

import hashlib
import random
from fractions import Fraction as F

import pytest

from paramgrid import (
    Oracle,
    OracleFamily,
    Sense,
    SolutionRecord,
    approximate,
    evaluate,
    explicit_instance,
)
from paramgrid.serialization import save_approximation_set
from paramgrid.solvers import (
    cut_graph,
    from_generators,
    independence_instance,
    knapsack_data,
    knapsack_instance,
    knapsack_scaling_solve,
    mincut_instance,
)

from conftest import optimum_by_enumeration, ratio_ok


def mincut_k2():
    # three disjoint two-arc s-t paths; each path's cheaper arc moves with lambda
    rng = random.Random(14)
    arcs = []
    for v in (1, 2, 3):
        arcs.append((0, v, rng.randint(0, 3), (rng.randint(0, 2), 0)))
        arcs.append((v, 4, rng.randint(0, 3), (0, rng.randint(0, 2))))
    return mincut_instance(cut_graph(5, arcs, 0, 4, 2), lambda_min=[0, 0]), None, F(9, 10)


def knapsack_fine():
    # lambda_min = -1/3 keeps every profit a_e - b_e / 3 nonnegative and puts
    # a denominator of 3 into every grid coordinate; repeated items make the
    # DP break ties between equal-profit subsets
    rng = random.Random(13)
    items = [(rng.randint(1, 4), (rng.randint(0, 3),), rng.randint(1, 3)) for _ in range(8)]
    data = knapsack_data(items, budget=7, K=1)
    return knapsack_instance(data, lambda_min=[F(-1, 3)]), None, F(1, 8)


def knapsack_scheme():
    rng = random.Random(13)
    items = [(rng.randint(1, 9), (rng.randint(0, 6),), rng.randint(1, 6)) for _ in range(6)]
    data = knapsack_data(items, budget=10, K=1)

    def make(delta):
        accuracy = delta / (1 + delta)
        return Oracle(
            fn=lambda instance, lam: knapsack_scaling_solve(instance, lam, accuracy),
            alpha=1 + delta,
            name=f"knapsack-scaling@{delta}",
        )

    family = OracleFamily(make=make, name="knapsack-scaling")
    return knapsack_instance(data, lambda_min=[0]), family, F(1, 2)


def greedy():
    rng = random.Random(12)
    sets = [sorted(rng.sample(range(8), 3)) for _ in range(5)]
    # repeated rows make greedy break profit ties by element index
    rows = [(rng.randint(1, 4), (rng.randint(0, 3),)) for _ in range(8)]
    system = from_generators(8, sets, rows, 1, declared_alpha=3)
    return independence_instance(system, lambda_min=[0]), None, F(1, 4)


def explicit_k2():
    # points on the plane F_0 + F_1 + F_2 = 12: none dominates another, and
    # all tie at weight (1, 1, 1), where the scan keeps the earliest record
    rng = random.Random(15)
    points = set()
    while len(points) < 10:
        f0, f1 = rng.randint(1, 10), rng.randint(1, 10)
        if f0 + f1 < 12:
            points.add((f0, f1, 12 - f0 - f1))
    records = [
        SolutionRecord(("explicit", f"x{j}"), tuple(map(F, point)))
        for j, point in enumerate(sorted(points))
    ]
    return explicit_instance(records, sense=Sense.MIN, K=2), None, F(1, 2)


GOLDEN = {
    "mincut-k2": (mincut_k2,
        "3c9ed624f1efa8e25c71d361aceeb3ef34409a443a93a9db0a8483fd9de024d3",
    ),
    "knapsack-dp-eps-1/8": (knapsack_fine,
        "6d297ee6b8f74037c96574abb6e2a1186cfc029f2abcc007bf019c1c828fce97",
    ),
    "knapsack-scaling": (knapsack_scheme,
        "0805688857280c252665910df3f681361023b0101dde6da6c84833d23f2aaba2",
    ),
    "greedy": (greedy,
        "68a3094f0365424b0f6895c27ae255046b062ead1728bf24839d3d26d3a4e019",
    ),
    "explicit-k2": (explicit_k2,
        "5fbda2d0b9e45bbc65837fa9a9f08c4245ff032c872708acd49075b9d2d7cc70",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_saved_set_matches_golden_digest(tmp_path, name):
    build, digest = GOLDEN[name]
    instance, oracle, eps = build()
    path = tmp_path / "set.json"
    save_approximation_set(approximate(instance, eps, oracle), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_entry_is_alpha_approximate_at_its_point(name):
    build, _ = GOLDEN[name]
    instance, oracle, eps = build()
    aset = approximate(instance, eps, oracle)
    for idx, rec in aset.entries.items():
        lam = aset.spec.point(idx)
        opt = optimum_by_enumeration(instance, lam)
        assert ratio_ok(instance, evaluate(instance, rec, lam), opt, aset.alpha), idx

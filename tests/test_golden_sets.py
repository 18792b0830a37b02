"""Golden set files: one small seeded fit per built-in oracle, pinned by sha256.

The solver tests compare optimal values with enumeration, which a change in
tie-breaking or record choice can pass.  These digests pin the exact saved
bytes (every cell, every record, tie choices included), so a scaling or
ordering slip that keeps the values but changes a record fails here.  A
second test checks every entry against enumeration, so a digest is only
ever pinned on answers that are alpha-approximate at their grid points.
The JSON of a seeded verify report on each set, and of three fixture
reports, is pinned the same way, in the layout the CLI prints.
"""
from __future__ import annotations

import hashlib
import json
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
    sample_parameters_labeled,
    verify_approximation_set,
)
from paramgrid.fixtures import check_fixture
from paramgrid.serialization import (
    fixture_report_to_dict,
    save_approximation_set,
    verification_report_to_dict,
)
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
        "4f8fd257f089175fbf7c27997d6bc31814f580572a30cdcf9bdccef43419efe2",
    ),
    "knapsack-dp-eps-1/8": (knapsack_fine,
        "22f33c3c644843a8fc3109c035986a8fea8834f0c66ba241b3fd9e59e781c9a6",
    ),
    "knapsack-scaling": (knapsack_scheme,
        "f5c7ab311b6048bdcdc4006b7d8ae9a2572be180f90b8259a56800541d6644f0",
    ),
    "greedy": (greedy,
        "49fba175c488d26e3f7fc8d371d9fd4ea3100e7a95162d038c5f7d04909864a4",
    ),
    "explicit-k2": (explicit_k2,
        "50fa66cb281b7911f37b6f41d0285356652456571a18fbaf7ffc8204b40d51ba",
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


def _digest(doc: dict) -> str:
    # the layout the CLI prints
    return hashlib.sha256(json.dumps(doc, indent=2, sort_keys=True).encode()).hexdigest()


VERIFY_GOLDEN = {
    "mincut-k2": "0cb2aedd0b984c5f2360e942ffee40876e082979d08b154da9c39f5c5f7ad9ff",
    "knapsack-dp-eps-1/8": "c0cadbffe891dd2ffe2aa0242813e8a54e04a0a7b342db0626186f5d07cf8424",
    "knapsack-scaling": "deba677e0cc93e87206b5693381899098514d0bacfd034586c87b3caf29da813",
    "greedy": "7fde75f9eae432f6cf1d635e1fabdd3bf6a8e8c479ca7057e1ccf6df65ae6c7f",
    "explicit-k2": "478cc616c1d05e91837b96cb8efc4371cf5a289ef4e747fc2f7e964b0bb9c710",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_verify_report_matches_golden_digest(name):
    build, _ = GOLDEN[name]
    instance, oracle, eps = build()
    aset = approximate(instance, eps, oracle)
    samples = sample_parameters_labeled(instance, aset.spec, 200, seed=3)
    report = verify_approximation_set(instance, aset, aset.guarantee, samples)
    assert report.passed
    assert _digest(verification_report_to_dict(report)) == VERIFY_GOLDEN[name]


FIXTURE_GOLDEN = {
    "section3": (
        dict(beta=F(3, 2), K=2, samples=300, seed=1),
        "fa692899ae0c44732c591b3ca0ce3b4bc8f80bc8fbfe6860806dbe33c24d4839",
    ),
    "appendix-example": (
        dict(beta=F(2), z0=F(5), samples=300, seed=2),
        "34150dfe787c4d70307b122b1324c16f744d027a92f4bc4172db1045844b2e89",
    ),
    "appendix-proof": (
        dict(beta=F(2), z0=F(5), L=3),
        "e78dac4bc279614aa06333a86a843a9144e9ed078c6412bccf07d45e21fb1e26",
    ),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_GOLDEN))
def test_fixture_report_matches_golden_digest(name):
    kwargs, digest = FIXTURE_GOLDEN[name]
    report = check_fixture(name, **kwargs)
    assert report.passed
    assert _digest(fixture_report_to_dict(report)) == digest

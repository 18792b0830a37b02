"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python -m pytest perfbench``.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
from workloads import PARAMS

HERE = Path(__file__).resolve().parent

#: Small instances of every workload: same kinds and code paths, a coarser
#: grid (eps = 9/10 on the K=2 fits) and short loops.
TINY = {
    "fit-k2-coarse": {
        "eps": "9/10",
        "instances": [
            {"name": "mincut", "kind": "mincut", "K": 2, "paths": 2, "a_total": 4, "b_total": 4},
            {"name": "explicit", "kind": "explicit", "K": 2, "solutions": 8, "total": 8},
        ],
    },
    "fit-k1-fine": {
        "instances": [
            {"name": "knapsack", "kind": "knapsack", "K": 1, "items": 5, "budget": 6,
             "weight_total": 10, "a_total": 8, "b_total": 8},
            {"name": "mincut", "kind": "mincut", "K": 1, "paths": 3, "a_total": 6, "b_total": 6},
            {"name": "independence", "kind": "independence", "K": 1, "elements": 5,
             "generators": 2, "generator_size": 2, "a_total": 6, "b_total": 6},
            {"name": "scheme", "kind": "knapsack", "oracle": "scaling", "K": 1, "items": 4,
             "budget": 5, "weight_total": 8, "a_total": 6, "b_total": 6},
        ],
        "eps": "1/2",
    },
    "read-query": {
        "instances": [
            {"name": "knapsack", "kind": "knapsack", "K": 1, "items": 5, "budget": 6,
             "weight_total": 10, "a_total": 8, "b_total": 8},
            {"name": "mincut", "kind": "mincut", "K": 1, "paths": 2, "a_total": 4, "b_total": 4},
            {"name": "explicit", "kind": "explicit", "K": 2, "solutions": 8, "total": 8},
        ],
        "eps": "9/10",
    },
}
LOOPS = {"setup_repeats": 2, "queries": 60, "load_rounds": 2, "verify_rounds": 2}


@pytest.fixture(autouse=True)
def few_verify_samples(monkeypatch):
    monkeypatch.setattr(bench, "VERIFY_SAMPLES", 20)


def tiny(workload: str) -> dict:
    params = copy.deepcopy(PARAMS["workloads"][workload])
    params.update(copy.deepcopy(TINY[workload]))
    params.update({k: v for k, v in LOOPS.items() if k in params})
    return params


def run(workload, tmp_path, *, seed=3, trace=False):
    params = tiny(workload)
    return bench.run(workload, params, seed, 0, trace, tmp_path)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_every_end_to_end_metric(workload, tmp_path):
    result = run(workload, tmp_path)
    assert result.gate.failed == 0, result.gate.notes
    assert result.gate.attempted > 0
    assert set(result.metrics) == set(bench.END_TO_END)
    assert all(value > 0 for value in result.metrics.values()), result.metrics


@pytest.mark.parametrize("workload", sorted(TINY))
def test_same_seed_repeats_every_count(workload, tmp_path):
    runs = [run(workload, tmp_path, trace=True) for _ in range(2)]
    for result in runs:
        assert result.gate.failed == 0, result.gate.notes
        assert set(result.metrics) == set(bench.PER_LAYER)
    counts = [name for name, unit in bench.PER_LAYER.items() if unit in ("count", "bits")]
    counts.append("serialization.bytes")
    assert {n: runs[0].metrics[n] for n in counts} == {n: runs[1].metrics[n] for n in counts}
    assert runs[0].metrics["grid.points"] > 0 and runs[0].metrics["fractions.ops"] > 0
    plain = [run(workload, tmp_path) for _ in range(2)]
    for name in ("oracle_calls", "set_bytes"):
        assert plain[0].metrics[name] == plain[1].metrics[name]
    assert plain[0].notes["set_solutions"] == plain[1].notes["set_solutions"]


def test_tampered_entry_is_counted(tmp_path, monkeypatch):
    """A set with one wrong entry must show up in fail_ratio, not abort the run."""
    real = bench.approximate

    def tampered(instance, eps, oracle):
        aset = real(instance, eps, oracle)
        if instance.K == 1 and instance.payload.__class__.__name__ == "KnapsackData":
            empty = bench.enumerate_solutions(instance)[0]  # the empty subset, value 0
            aset.solutions += (empty,)
            aset.entries[min(aset.entries)] = empty
        return aset

    monkeypatch.setattr(bench, "approximate", tampered)
    result = run("fit-k1-fine", tmp_path)
    assert result.gate.failed >= 1
    assert result.gate.fail_ratio > 0
    assert any(note.startswith("fit knapsack") for note in result.gate.notes)


def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(PARAMS["workloads"])


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read-query", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

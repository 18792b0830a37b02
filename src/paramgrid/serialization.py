"""JSON formats for instances, approximation sets and run reports.

Rationals travel as exact ``"p/q"`` strings (plain integers are accepted on
input); no floats ever enter the files, so serialize/parse round trips are
lossless and byte-stable.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Any

from .engine import ApproximationSet
from .errors import InvalidInstanceError
from .grid import GridSpec
from .model import ProblemInstance, Sense, SolutionRecord, explicit_instance
from .solvers.independence import from_generators, independence_instance
from .solvers.knapsack import knapsack_data, knapsack_instance
from .solvers.mincut import cut_graph, mincut_instance


def frac_str(value: Fraction) -> str:
    return str(value)


def parse_frac(value: Any) -> Fraction:
    if isinstance(value, bool):
        raise InvalidInstanceError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInstanceError(f"bad rational literal {value!r}") from exc
    raise InvalidInstanceError(f"expected a rational, got {value!r}")


def _require(doc: dict, key: str):
    if key not in doc:
        raise InvalidInstanceError(f"missing required field {key!r}")
    return doc[key]


def _int(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInstanceError(f"{what} must be an integer, got {value!r}")
    return value


def _int_vector(values: Any, length: int, what: str) -> tuple[int, ...]:
    if not isinstance(values, list) or len(values) != length:
        raise InvalidInstanceError(f"{what} must be a list of {length} integers")
    return tuple(_int(v, what) for v in values)


def instance_from_dict(doc: dict) -> ProblemInstance:
    """Parse an instance document; see README for the schema."""
    if not isinstance(doc, dict):
        raise InvalidInstanceError("instance document must be a JSON object")
    problem = _require(doc, "problem")
    K = _int(_require(doc, "K"), "K")
    if K < 1:
        raise InvalidInstanceError("K must be at least 1")
    lambda_min = None
    if "lambda_min" in doc:
        raw = doc["lambda_min"]
        if not isinstance(raw, list) or len(raw) != K:
            raise InvalidInstanceError("lambda_min must be a list of K rationals")
        lambda_min = [parse_frac(v) for v in raw]

    if problem == "explicit":
        sense = Sense.parse(_require(doc, "sense"))
        records = []
        for item in _require(doc, "solutions"):
            name = str(_require(item, "id"))
            F = [parse_frac(v) for v in _require(item, "F")]
            if len(F) != K + 1:
                raise InvalidInstanceError(
                    f"solution {name!r} needs {K + 1} components, got {len(F)}"
                )
            records.append(SolutionRecord(encoding=("explicit", name), F=tuple(F)))
        return explicit_instance(records, sense=sense, K=K, lambda_min=lambda_min)

    if problem == "mincut":
        n = _int(_require(doc, "vertices"), "vertices")
        arcs = []
        for arc in _require(doc, "arcs"):
            arcs.append(
                (
                    _int(_require(arc, "tail"), "tail"),
                    _int(_require(arc, "head"), "head"),
                    _int(_require(arc, "a"), "a"),
                    _int_vector(_require(arc, "b"), K, "b"),
                )
            )
        graph = cut_graph(
            n, arcs, _int(_require(doc, "source"), "source"), _int(_require(doc, "sink"), "sink"), K
        )
        return mincut_instance(graph, lambda_min=lambda_min)

    if problem == "knapsack":
        items = []
        for item in _require(doc, "items"):
            items.append(
                (
                    _int(_require(item, "a"), "a"),
                    _int_vector(_require(item, "b"), K, "b"),
                    _int(_require(item, "weight"), "weight"),
                )
            )
        data = knapsack_data(items, _int(_require(doc, "budget"), "budget"), K)
        return knapsack_instance(data, lambda_min=lambda_min)

    if problem == "independence":
        elements = []
        for el in _require(doc, "elements"):
            elements.append(
                (_int(_require(el, "a"), "a"), _int_vector(_require(el, "b"), K, "b"))
            )
        n = len(elements)
        generators = _require(doc, "independent_sets")
        if not isinstance(generators, list):
            raise InvalidInstanceError("independent_sets must be a list of element lists")
        alpha = parse_frac(doc.get("alpha", 1))
        system = from_generators(n, generators, elements, K, declared_alpha=alpha)
        return independence_instance(system, lambda_min=lambda_min)

    raise InvalidInstanceError(
        f"unknown problem kind {problem!r}; expected explicit/mincut/knapsack/independence"
    )


def load_instance(path: str) -> ProblemInstance:
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InvalidInstanceError(f"invalid JSON in {path}: {exc}") from exc
    return instance_from_dict(doc)


def _encoding_to_json(encoding: tuple) -> dict:
    kind, data = encoding
    if kind == "explicit":
        return {"kind": kind, "id": data}
    return {"kind": kind, "members": list(data)}


def _encoding_from_json(doc: dict) -> tuple:
    kind = _require(doc, "kind")
    if kind == "explicit":
        return (kind, str(_require(doc, "id")))
    return (kind, tuple(_int(v, "member") for v in _require(doc, "members")))


def solution_to_json(rec: SolutionRecord) -> dict:
    return {
        "encoding": _encoding_to_json(rec.encoding),
        "F": [frac_str(v) for v in rec.F],
    }


def solution_from_json(doc: dict) -> SolutionRecord:
    return SolutionRecord(
        encoding=_encoding_from_json(_require(doc, "encoding")),
        F=tuple(parse_frac(v) for v in _require(doc, "F")),
    )


def approximation_set_to_dict(aset: ApproximationSet) -> dict:
    index = {rec.encoding: i for i, rec in enumerate(aset.solutions)}
    return {
        "format": "paramgrid-approximation-set",
        "version": 1,
        "sense": aset.sense.value,
        "requested_epsilon": frac_str(aset.requested_eps),
        "epsilon": frac_str(aset.eps),
        "alpha": frac_str(aset.alpha),
        "guarantee": frac_str(aset.guarantee),
        "c": frac_str(aset.c),
        "base": frac_str(aset.spec.base),
        "lb": aset.spec.lb,
        "ub": aset.spec.ub,
        "K": aset.spec.K,
        "lambda_min": [frac_str(v) for v in aset.spec.lambda_min],
        "oracle": aset.oracle_name,
        "solutions": [solution_to_json(rec) for rec in aset.solutions],
        "entries": {
            ",".join(map(str, idx)): index[rec.encoding]
            for idx, rec in sorted(aset.entries.items())
        },
    }


def approximation_set_from_dict(doc: dict) -> ApproximationSet:
    if doc.get("format") != "paramgrid-approximation-set":
        raise InvalidInstanceError("not an approximation-set document")
    solutions = tuple(solution_from_json(item) for item in _require(doc, "solutions"))
    spec = GridSpec(
        eps=parse_frac(_require(doc, "epsilon")),
        base=parse_frac(_require(doc, "base")),
        lb=_int(_require(doc, "lb"), "lb"),
        ub=_int(_require(doc, "ub"), "ub"),
        lambda_min=tuple(parse_frac(v) for v in _require(doc, "lambda_min")),
        K=_int(_require(doc, "K"), "K"),
        c=parse_frac(_require(doc, "c")),
    )
    if spec.K < 1:
        raise InvalidInstanceError("K must be at least 1")
    for rec in solutions:
        if len(rec.F) != spec.K + 1:
            raise InvalidInstanceError(
                f"solution {rec.label} has {len(rec.F)} components, expected {spec.K + 1}"
            )
    raw = _require(doc, "entries")
    if not isinstance(raw, dict):
        raise InvalidInstanceError("entries must be an object keyed by grid index")
    entries = {}
    for key, ref in raw.items():
        try:
            idx = tuple(map(int, key.split(",")))
        except ValueError:
            idx = ()
        if len(idx) != spec.K:
            raise InvalidInstanceError(f"entry key {key!r} is not {spec.K} integers")
        if type(ref) is not int or not 0 <= ref < len(solutions):
            raise InvalidInstanceError(
                f"entry {key!r} refers to {ref!r}, not one of the {len(solutions)} solutions"
            )
        entries[idx] = solutions[ref]
    # one pass over all coordinates is cheaper than a range check per key
    if entries and not (
        spec.lb <= min(chain.from_iterable(entries))
        and max(chain.from_iterable(entries)) <= spec.ub
    ):
        raise InvalidInstanceError(f"an entry key lies outside [{spec.lb}, {spec.ub}]")
    # distinct in-range keys: the count alone proves every grid point is covered
    if len(entries) != spec.size:
        raise InvalidInstanceError(f"entries cover {len(entries)} of the {spec.size} grid points")
    return ApproximationSet(
        requested_eps=parse_frac(_require(doc, "requested_epsilon")),
        eps=parse_frac(_require(doc, "epsilon")),
        alpha=parse_frac(_require(doc, "alpha")),
        c=parse_frac(_require(doc, "c")),
        spec=spec,
        sense=Sense.parse(_require(doc, "sense")),
        entries=entries,
        solutions=solutions,
        oracle_name=doc.get("oracle", ""),
    )


def save_approximation_set(aset: ApproximationSet, path: str):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(approximation_set_to_dict(aset), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_approximation_set(path: str) -> ApproximationSet:
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InvalidInstanceError(f"invalid JSON in {path}: {exc}") from exc
    return approximation_set_from_dict(doc)


@dataclass
class RunReport:
    """Summary of one grid run, serialized alongside the set."""

    epsilon: Fraction
    alpha: Fraction
    guarantee: Fraction
    c: Fraction
    lb: int
    ub: int
    grid_size: int
    oracle_calls: int
    distinct_solution_count: int
    wall_time_ms: int

    def to_dict(self) -> dict:
        return {
            "epsilon": frac_str(self.epsilon),
            "alpha": frac_str(self.alpha),
            "guarantee": frac_str(self.guarantee),
            "c": frac_str(self.c),
            "lb": self.lb,
            "ub": self.ub,
            "grid_size": self.grid_size,
            "oracle_calls": self.oracle_calls,
            "distinct_solution_count": self.distinct_solution_count,
            "wall_time_ms": self.wall_time_ms,
        }


def run_report(aset: ApproximationSet, wall_time_ms: int) -> RunReport:
    return RunReport(
        epsilon=aset.requested_eps,
        alpha=aset.alpha,
        guarantee=aset.guarantee,
        c=aset.c,
        lb=aset.spec.lb,
        ub=aset.spec.ub,
        grid_size=aset.grid_size,
        oracle_calls=aset.grid_size,
        distinct_solution_count=aset.distinct_solution_count,
        wall_time_ms=wall_time_ms,
    )


def verification_report_to_dict(report) -> dict:
    return {
        "beta": frac_str(report.beta),
        "samples_tested": report.samples_tested,
        "worst_ratio": None if report.worst_ratio is None else frac_str(report.worst_ratio),
        "worst_point": None
        if report.worst_point is None
        else [frac_str(v) for v in report.worst_point],
        "passed": report.passed,
        "hard_failures": report.hard_failures,
        "space": report.space,
        "strategies": {
            name: {
                "samples": stats.samples,
                "worst_ratio": None
                if stats.worst_ratio is None
                else frac_str(stats.worst_ratio),
            }
            for name, stats in sorted(report.strategies.items())
        },
    }


def fixture_report_to_dict(report) -> dict:
    return {
        "fixture": report.fixture,
        "parameters": {k: str(v) for k, v in report.parameters.items()},
        "passed": report.passed,
        "facts": [
            {"name": f.name, "passed": f.passed, "detail": f.detail} for f in report.facts
        ],
    }

"""JSON formats for instances, approximation sets and run reports.

Rationals travel as exact ``"p/q"`` strings (plain integers are accepted on
input); no floats ever enter the files, so serialize/parse round trips are
lossless and byte-stable.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .engine import ApproximationSet
from .errors import DomainError, InvalidInstanceError
from .grid import GridSpec, fewest_points_exceed
from .model import ProblemInstance, Sense, SolutionRecord, as_fraction, explicit_instance
from .oracle import MAX_INDEPENDENCE_ELEMENTS
from .solvers.independence import from_generators, independence_instance, rank_quotient_exact
from .solvers.knapsack import knapsack_data, knapsack_instance
from .solvers.mincut import cut_graph, mincut_instance


def frac_str(value: Fraction) -> str:
    return str(value)


def parse_frac(value: Any) -> Fraction:
    """A JSON rational: an integer or a string that ``as_fraction`` reads."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InvalidInstanceError(f"expected a rational, got {value!r}")
    return as_fraction(value)


def _require(doc: dict, key: str):
    if not isinstance(doc, dict):
        raise InvalidInstanceError(f"expected an object with field {key!r}, got {doc!r}")
    if key not in doc:
        raise InvalidInstanceError(f"missing required field {key!r}")
    return doc[key]


def _list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise InvalidInstanceError(f"{what} must be a list, got {value!r}")
    return value


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
        for item in _list(_require(doc, "solutions"), "solutions"):
            name = str(_require(item, "id"))
            F = [parse_frac(v) for v in _list(_require(item, "F"), "F")]
            if len(F) != K + 1:
                raise InvalidInstanceError(
                    f"solution {name!r} needs {K + 1} components, got {len(F)}"
                )
            records.append(SolutionRecord(encoding=("explicit", name), F=tuple(F)))
        return explicit_instance(records, sense=sense, K=K, lambda_min=lambda_min)

    if problem == "mincut":
        n = _int(_require(doc, "vertices"), "vertices")
        arcs = []
        for arc in _list(_require(doc, "arcs"), "arcs"):
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
        for item in _list(_require(doc, "items"), "items"):
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
        for el in _list(_require(doc, "elements"), "elements"):
            elements.append(
                (_int(_require(el, "a"), "a"), _int_vector(_require(el, "b"), K, "b"))
            )
        n = len(elements)
        generators = [
            [_int(e, "independent set member") for e in _list(g, "an independent set")]
            for g in _list(_require(doc, "independent_sets"), "independent_sets")
        ]
        alpha = parse_frac(doc.get("alpha", 1))
        system = from_generators(n, generators, elements, K, declared_alpha=alpha)
        # greedy is alpha-approximate for every profit vector only if alpha is at
        # least the rank quotient; past the enumeration cap the file is trusted
        if n <= MAX_INDEPENDENCE_ELEMENTS and alpha < (quotient := rank_quotient_exact(system)):
            raise InvalidInstanceError(
                f"alpha {alpha} is below the independence system's rank quotient {quotient}"
            )
        return independence_instance(system, lambda_min=lambda_min)

    raise InvalidInstanceError(
        f"unknown problem kind {problem!r}; expected explicit/mincut/knapsack/independence"
    )


def _read_json(path: str) -> Any:
    """The JSON document at ``path``; a file that is not UTF-8 JSON is invalid.

    So is an integer literal past Python's int-to-string digit limit (a
    ``ValueError``).  ``OSError`` (a missing file, a directory) passes through.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise InvalidInstanceError(f"invalid JSON in {path}: {exc}") from exc


def load_instance(path: str) -> ProblemInstance:
    return instance_from_dict(_read_json(path))


def _encoding_to_json(encoding: tuple) -> dict:
    kind, data = encoding
    if kind == "explicit":
        return {"kind": kind, "id": data}
    return {"kind": kind, "members": list(data)}


def _encoding_from_json(doc: dict) -> tuple:
    kind = _require(doc, "kind")
    if not isinstance(kind, str):  # encodings must stay hashable
        raise InvalidInstanceError(f"encoding kind must be a string, got {kind!r}")
    if kind == "explicit":
        return (kind, str(_require(doc, "id")))
    return (kind, tuple(_int(v, "member") for v in _list(_require(doc, "members"), "members")))


def solution_to_json(rec: SolutionRecord) -> dict:
    return {
        "encoding": _encoding_to_json(rec.encoding),
        "F": [frac_str(v) for v in rec.F],
    }


def solution_from_json(doc: dict) -> SolutionRecord:
    return SolutionRecord(
        encoding=_encoding_from_json(_require(doc, "encoding")),
        F=tuple(parse_frac(v) for v in _list(_require(doc, "F"), "F")),
    )


def approximation_set_to_dict(aset: ApproximationSet) -> dict:
    index = {rec.encoding: i for i, rec in enumerate(aset.solutions)}
    spec = aset.spec
    return {
        "format": "paramgrid-approximation-set",
        "version": 2,
        "sense": aset.sense.value,
        "requested_epsilon": frac_str(aset.requested_eps),
        "epsilon": frac_str(aset.eps),
        "alpha": frac_str(aset.alpha),
        "c": frac_str(aset.c),
        "K": spec.K,
        "lambda_min": [frac_str(v) for v in spec.lambda_min],
        "oracle": aset.oracle_name,
        "solutions": [solution_to_json(rec) for rec in aset.solutions],
        "cells": [index[aset.entries[idx].encoding] for idx in spec.indices()],
    }


def approximation_set_from_dict(doc: dict) -> ApproximationSet:
    if not isinstance(doc, dict) or doc.get("format") != "paramgrid-approximation-set":
        raise InvalidInstanceError("not an approximation-set document")
    if doc.get("version") != 2:
        raise InvalidInstanceError(
            f"set-file version {doc.get('version')!r} is not supported; refit the set"
            " with `paramgrid approximate` to write version 2"
        )
    solutions = tuple(
        solution_from_json(item) for item in _list(_require(doc, "solutions"), "solutions")
    )
    # saving indexes solutions by encoding, so a repeat would capture the references
    if len({rec.encoding for rec in solutions}) != len(solutions):
        raise InvalidInstanceError("solutions repeat an encoding")
    K = _int(_require(doc, "K"), "K")
    if K < 1:
        raise InvalidInstanceError("K must be at least 1")
    for rec in solutions:
        if len(rec.F) != K + 1:
            raise InvalidInstanceError(
                f"solution {rec.label} has {len(rec.F)} components, expected {K + 1}"
            )
    eps = parse_frac(_require(doc, "epsilon"))
    c = parse_frac(_require(doc, "c"))
    lambda_min = [parse_frac(v) for v in _list(_require(doc, "lambda_min"), "lambda_min")]
    cells = _list(_require(doc, "cells"), "cells")
    # GridSpec's cost grows with K, so K is checked against the data first.
    if len(lambda_min) != K:
        raise InvalidInstanceError(f"lambda_min has {len(lambda_min)} entries, expected K = {K}")
    if fewest_points_exceed(K, len(cells)):
        raise InvalidInstanceError(
            f"cells has {len(cells)} entries, fewer than the 3^K points of any grid with K = {K}"
        )
    try:
        spec = GridSpec(c, K, eps, lambda_min)
    except DomainError as exc:  # c or epsilon outside (0, 1): the file is wrong, not the query
        raise InvalidInstanceError(f"bad grid geometry: {exc}") from exc
    if len(cells) != spec.size:
        raise InvalidInstanceError(f"cells cover {len(cells)} of the {spec.size} grid points")
    for ref in cells:
        if type(ref) is not int or not 0 <= ref < len(solutions):
            raise InvalidInstanceError(
                f"a cell refers to {ref!r}, not one of the {len(solutions)} solutions"
            )
    # approximate lists only solutions that some cell refers to: refuse a file it cannot write
    if len(set(cells)) != len(solutions):
        raise InvalidInstanceError(
            f"cells refer to {len(set(cells))} of the {len(solutions)} solutions"
        )
    oracle_name = doc.get("oracle", "")
    if not isinstance(oracle_name, str):
        raise InvalidInstanceError(f"oracle must be a string, got {oracle_name!r}")
    alpha = parse_frac(_require(doc, "alpha"))
    if alpha < 1:  # no solver beats the optimum
        raise InvalidInstanceError(f"alpha must be at least 1, got {alpha}")
    requested_eps = parse_frac(_require(doc, "requested_epsilon"))
    if not 0 < requested_eps < 1:  # approximate refuses any other
        raise InvalidInstanceError(f"requested_epsilon must lie in (0, 1), got {requested_eps}")
    return ApproximationSet(
        requested_eps=requested_eps,
        alpha=alpha,
        spec=spec,
        sense=Sense.parse(_require(doc, "sense")),
        entries=dict(zip(spec.indices(), map(solutions.__getitem__, cells))),
        solutions=solutions,
        oracle_name=oracle_name,
    )


def save_approximation_set(aset: ApproximationSet, path: str):
    # no indent: the C encoder runs, and the cells list stays one line
    text = json.dumps(approximation_set_to_dict(aset), separators=(",", ":"), sort_keys=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def load_approximation_set(path: str) -> ApproximationSet:
    return approximation_set_from_dict(_read_json(path))


def run_report(aset: ApproximationSet, wall_time_ms: int) -> dict:
    """Summary of one grid run, written next to the set by ``paramgrid approximate``."""
    return {
        "epsilon": frac_str(aset.requested_eps),
        "alpha": frac_str(aset.alpha),
        "guarantee": frac_str(aset.guarantee),
        "c": frac_str(aset.c),
        "lb": aset.spec.lb,
        "ub": aset.spec.ub,
        "grid_size": aset.spec.size,
        "oracle_calls": aset.oracle_calls,
        "distinct_solution_count": len(aset.solutions),
        "wall_time_ms": wall_time_ms,
    }


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

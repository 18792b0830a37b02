"""Spans and counters recorded by the benchmark around public library calls.

Nothing here patches the library: layers are timed from outside, by wrapping
the oracle handed to ``approximate``, by replaying the stages of ``query``
through their public functions, and by timing calls into ``grid``,
``serialization`` and ``oracle`` directly.  Spans stay in memory and are
written out once, at the end of a traced run.
"""
from __future__ import annotations

import cProfile
import fractions
import json
import pstats
import tracemalloc
from collections import defaultdict
from time import perf_counter_ns

from paramgrid import (
    Oracle,
    OracleFamily,
    check_lambda,
    lambda_from_weight,
    lift_to_cone,
    snap,
    weight_from_lambda,
)


class Tracer:
    """In-memory spans ``(id, parent id, name, start ns, end ns)``.

    Per-name totals, self times (duration minus the time covered by child
    spans) and call counts are kept as spans close.  ``keep=False`` keeps only
    the aggregates, for repeated passes whose spans would repeat the first.
    """

    def __init__(self, keep: bool = True):
        self.keep = keep
        self.spans: list[tuple] = []
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack = [0]
        self._child_ns = [0]
        self._next_id = 1

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def seconds(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e9

    def self_seconds(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def dump(self, path) -> None:
        names = sorted({s[2] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["id", "parent", "name", "start_ns", "end_ns"],
            "names": names,
            "spans": [[i, p, code[n], a, b] for i, p, n, a, b in self.spans],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


class _Span:
    __slots__ = ("tracer", "name", "id", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.id = t._next_id
        t._next_id += 1
        t._stack.append(self.id)
        t._child_ns.append(0)
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = perf_counter_ns()
        t = self.tracer
        t._stack.pop()
        child = t._child_ns.pop()
        duration = end - self.start
        t._child_ns[-1] += duration
        t.total_ns[self.name] += duration
        t.self_ns[self.name] += duration - child
        t.calls[self.name] += 1
        if t.keep:
            t.spans.append((self.id, t._stack[-1], self.name, self.start, end))
        return False


class CallCounter:
    """Oracle function wrapper: counts calls, and spans them when traced."""

    def __init__(self, fn, layer: str, tracer: Tracer | None):
        self.fn = fn
        self.layer = layer
        self.tracer = tracer
        self.calls = 0

    def __call__(self, instance, lam):
        self.calls += 1
        if self.tracer is None:
            return self.fn(instance, lam)
        with self.tracer.span(self.layer):
            return self.fn(instance, lam)


def counted(oracle: Oracle | OracleFamily, layer: str, tracer: Tracer | None):
    """The same oracle (or family) with every solver call going through a counter."""
    counters: list[CallCounter] = []

    def wrap(inner: Oracle) -> Oracle:
        counter = CallCounter(inner.fn, layer, tracer)
        counters.append(counter)
        return Oracle(fn=counter, alpha=inner.alpha, name=inner.name)

    if isinstance(oracle, OracleFamily):
        wrapped = OracleFamily(make=lambda delta: wrap(oracle.make(delta)), name=oracle.name)
    else:
        wrapped = wrap(oracle)
    return wrapped, counters


def staged_query(aset, instance, lam, tracer: Tracer):
    """``engine.query`` replayed stage by stage; returns (record, lift depth)."""
    with tracer.span("engine.query"):
        with tracer.span("weights.to_weight"):
            vec = check_lambda(instance, lam)
            w = weight_from_lambda(vec, instance.lambda_min)
        with tracer.span("weights.lift"):
            cert = lift_to_cone(w, aset.c)
        with tracer.span("weights.from_weight"):
            compact = lambda_from_weight(cert.final, instance.lambda_min)
        with tracer.span("grid.snap"):
            idx = snap(aset.spec, compact)
        with tracer.span("engine.lookup"):
            rec = aset.entries[idx]
    return rec, cert.depth


def fraction_calls(work) -> tuple[int, int]:
    """Run ``work()`` under cProfile; (Fraction.__new__ calls, other fractions.py calls)."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        work()
    finally:
        profile.disable()
    new = ops = 0
    for (path, _line, func), (_cc, calls, *_rest) in pstats.Stats(profile).stats.items():
        if path == fractions.__file__:
            if func == "__new__":
                new += calls
            else:
                ops += calls
    return new, ops


def peak_bytes(work) -> int:
    """Largest traced allocation above the starting level while ``work()`` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        work()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()

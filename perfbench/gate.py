"""Correctness gate: every fitted set, query answer and verify run is checked.

The reference optimum comes from enumeration where the library allows it
(``ExhaustiveOracle``: min-cut n <= 10, knapsack and independence n <= 15,
explicit lists) and otherwise from the exact solver at that lambda.  Checks
run outside the timed regions.  A failed check is counted, never raised.
"""
from __future__ import annotations

import sys
import traceback
from itertools import product

from paramgrid import ExhaustiveOracle, Sense, TooLargeError, evaluate
from paramgrid.solvers import CutGraph, KnapsackData, knapsack_solve, min_cut_solve


class Reference:
    """Exact optimum value of one instance at any admissible lambda."""

    def __init__(self, instance):
        self.instance = instance
        try:
            self.exhaustive = ExhaustiveOracle(instance)
        except TooLargeError:
            self.exhaustive = None

    @property
    def enumerable(self) -> bool:
        return self.exhaustive is not None

    def optimum(self, lam):
        if self.exhaustive is not None:
            return self.exhaustive.optimum(lam)[1]
        payload = self.instance.payload
        if isinstance(payload, CutGraph):
            rec = min_cut_solve(self.instance, lam)
        elif isinstance(payload, KnapsackData):
            rec = knapsack_solve(self.instance, lam)
        else:
            raise TooLargeError(f"no exact reference for {type(payload).__name__}")
        return evaluate(self.instance, rec, lam)


def within(value, optimum, sense: Sense, factor) -> bool:
    """``value`` is ``factor``-approximate to ``optimum`` (reciprocal for max)."""
    if sense is Sense.MIN:
        return value <= factor * optimum
    return value * factor >= optimum


class Gate:
    """Counts operations attempted and operations whose check failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def error(self, what: str) -> None:
        """Count an operation that raised; the traceback goes to stderr."""
        traceback.print_exc(file=sys.stderr)
        self.record(False, what)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def set_problems(aset, instance, ref: Reference, grid_sample, rng) -> list[str]:
    """Why a fitted set is wrong; empty when it passes.

    The entries must cover the grid exactly, and the entry at each checked
    grid point must be alpha-approximate there.  Every point is checked when
    the reference enumerates; otherwise ``grid_sample`` seeded points are.
    """
    spec = aset.spec
    cells = list(product(range(spec.lb, spec.ub + 1), repeat=spec.K))
    if len(aset.entries) != len(cells) or any(idx not in aset.entries for idx in cells):
        return [f"entries do not cover the {len(cells)}-point grid"]
    if not ref.enumerable and grid_sample < len(cells):
        cells = rng.sample(cells, grid_sample)
    problems = []
    for idx in cells:
        lam = spec.point(idx)
        value = evaluate(instance, aset.entries[idx], lam)
        if not within(value, ref.optimum(lam), instance.sense, aset.alpha):
            problems.append(f"entry {idx} is not {aset.alpha}-approximate")
    return problems


def same_set(a, b) -> bool:
    """Equal geometry, guarantee, distinct solutions and entries."""
    return (
        a.spec == b.spec
        and a.alpha == b.alpha
        and a.eps == b.eps
        and a.solutions == b.solutions
        and a.entries == b.entries
    )


def answer_ok(rec, instance, lam, ref: Reference, guarantee) -> bool:
    return within(evaluate(instance, rec, lam), ref.optimum(lam), instance.sense, guarantee)

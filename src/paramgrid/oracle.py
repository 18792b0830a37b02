"""Ground-truth enumeration, parameter sampling and approximation-set checks.

Everything here is exact: objective comparisons are rational, and the
verification verdicts are universally quantified only over the documented
sample families, never over floating-point surrogates.
"""
from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, islice
from typing import Sequence

from .errors import DomainError, InvalidInstanceError, TooLargeError
from .grid import GridSpec, _float_log, compact_box
from .model import (
    ExplicitList,
    Lambda,
    ProblemInstance,
    RationalLike,
    Sense,
    SolutionRecord,
    Weight,
    ZERO,
    _clear_denominators,
    as_fraction,
    check_lambda,
    check_weight,
    evaluate,
    record_from_elements,
)
from .solvers.independence import IndependenceSystem
from .solvers.knapsack import KnapsackData
from .solvers.mincut import CutGraph, cut_record
from .weights import weight_from_lambda

#: Enumeration guards per family (2^(n-2) cuts, 2^n subsets).
MAX_CUT_VERTICES = 10
MAX_KNAPSACK_ITEMS = 15
MAX_INDEPENDENCE_ELEMENTS = 15

FAR_FIELD_DECADES = (3, 6, 9)


def enumerate_solutions(instance: ProblemInstance) -> tuple[SolutionRecord, ...]:
    """Every feasible solution of an enumerable instance, deterministic order."""
    payload = instance.payload
    if isinstance(payload, ExplicitList):
        return payload.records
    if isinstance(payload, CutGraph):
        if payload.n > MAX_CUT_VERTICES:
            raise TooLargeError(f"cut enumeration needs n <= {MAX_CUT_VERTICES}")
        others = [v for v in range(payload.n) if v not in (payload.s, payload.t)]
        records = []
        for mask in range(1 << len(others)):
            side = {payload.s} | {others[i] for i in range(len(others)) if mask >> i & 1}
            records.append(cut_record(instance, side))
        return tuple(records)
    if isinstance(payload, KnapsackData):
        n, cap, kind, what = len(payload.items), MAX_KNAPSACK_ITEMS, "items", "subset"
        feasible = lambda chosen: sum(payload.items[i].weight for i in chosen) <= payload.budget
    elif isinstance(payload, IndependenceSystem):
        n, cap, kind, what = payload.n, MAX_INDEPENDENCE_ELEMENTS, "elements", "independent-set"
        feasible = payload.independent
    else:
        raise TooLargeError(f"cannot enumerate payload type {type(payload).__name__}")
    if n > cap:
        raise TooLargeError(f"{what} enumeration needs n <= {cap}")
    records = []
    for mask in range(1 << n):
        chosen = [i for i in range(n) if mask >> i & 1]
        if feasible(chosen):
            records.append(record_from_elements(payload, instance.lambda_min, kind, chosen))
    return tuple(records)


class _ScanState:
    """Integerized objective scan over a record list.

    ``best`` takes a weight vector of length K+1; parameter-space callers
    pass ``(1, lambda - lambda_min)``.  Ties go to the earliest record.
    """

    def __init__(self, records: Sequence[SolutionRecord], sense: Sense):
        if not records:
            raise DomainError("empty solution pool")
        self.records = tuple(records)
        self.pick = min if sense is Sense.MIN else max
        flat, self.scale = _clear_denominators([v for rec in self.records for v in rec.F])
        rest = iter(flat)
        self.F_int = [tuple(islice(rest, len(rec.F))) for rec in self.records]

    def prune(self) -> None:
        """Drop every record whose row some kept row matches or beats in each component.

        Rows are visited sorted by their sign-adjusted value (negated for
        maximization), so of equal rows the earliest stays.  Safe for
        optimum queries: a nonnegative weighting attains its optimum on the
        kept rows.
        """
        sign = 1 if self.pick is min else -1
        kept: list[tuple[tuple[int, ...], int]] = []
        for row, i in sorted((tuple(sign * v for v in row), i) for i, row in enumerate(self.F_int)):
            if not any(all(map(operator.le, other, row)) for other, _ in kept):
                kept.append((row, i))
        self.records = tuple(self.records[i] for _, i in kept)
        self.F_int = [self.F_int[i] for _, i in kept]

    def best(self, weights: Sequence[Fraction]) -> tuple[SolutionRecord, Fraction]:
        mult, q = _clear_denominators(weights)
        values = [sum(map(operator.mul, mult, row)) for row in self.F_int]
        val = self.pick(values)
        return self.records[values.index(val)], Fraction(val, q * self.scale)


def _checked_weight(instance: ProblemInstance, w: Sequence[RationalLike]) -> Weight:
    vec = check_weight(w)
    if len(vec) != instance.K + 1:
        raise DomainError(f"weight length {len(vec)} does not match {instance.K + 1} components")
    return vec


@dataclass
class ExhaustiveOracle:
    """Exact solver, and the library's one exact optimum: a scan over the pruned enumeration."""

    instance: ProblemInstance
    _scan: _ScanState = field(init=False, repr=False)

    def __post_init__(self):
        self._scan = _ScanState(enumerate_solutions(self.instance), self.instance.sense)
        self._scan.prune()

    def __call__(self, instance: ProblemInstance, lam: Sequence[RationalLike]) -> SolutionRecord:
        return self.optimum(lam)[0]

    def optimum(self, lam: Sequence[RationalLike]) -> tuple[SolutionRecord, Fraction]:
        """Exact optimizer and optimal value at ``lam``."""
        vec = check_lambda(self.instance, lam)
        return self._scan.best(weight_from_lambda(vec, self.instance.lambda_min))


def _fraction_in(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    t = Fraction(rng.randrange(65), 64)
    return lo + (hi - lo) * t


def sample_parameters_labeled(
    instance: ProblemInstance, spec: GridSpec, n: int, seed: int = 0
) -> list[tuple[str, Lambda]]:
    """Deterministic mix of probe strategies, labeled for reporting.

    Order: the anchor lambda_min, far-field spikes along each axis, grid
    points (all of them when they fit the budget, else a seeded sample),
    then random cell interiors and log-uniform box points until n samples.
    """
    if n < 1:
        raise DomainError("need at least one sample")
    rng = random.Random(seed)
    lm = instance.lambda_min
    out: list[tuple[str, Lambda]] = [("lambda-min", lm)]

    for k in range(instance.K):
        for decade in FAR_FIELD_DECADES:
            if len(out) >= n:
                return out[:n]
            lam = tuple(
                lm[i] + (Fraction(10) ** decade if i == k else ZERO)
                for i in range(instance.K)
            )
            out.append(("far-field", lam))

    budget = n - len(out)
    if budget > 0:
        if spec.size <= budget // 2:
            picks = list(spec.indices())
        else:
            count = max(budget // 3, 1)
            picks = [
                tuple(rng.randrange(spec.lb, spec.ub + 1) for _ in range(spec.K))
                for _ in range(count)
            ]
        for idx in picks:
            if len(out) >= n:
                return out[:n]
            out.append(("grid-point", spec.point(idx)))

    box_lo, box_hi = compact_box(spec.c, spec.K)
    lo_log, hi_log = _float_log(box_lo), _float_log(box_hi)
    while len(out) < n:
        if rng.random() < 0.5:
            idx = tuple(rng.randint(spec.lb, spec.ub - 1) for _ in range(spec.K))
            lam = tuple(
                lm[k] + spec.powers[idx[k] - spec.lb] * (1 + _fraction_in(rng, ZERO, spec.base - 1))
                for k in range(spec.K)
            )
            out.append(("cell-interior", lam))
        else:
            lam = []
            for k in range(spec.K):
                # log-uniform float draw, then an exact dyadic rational
                # clamped into the box
                level = lo_log + rng.random() * (hi_log - lo_log)
                offset = Fraction(math.exp(max(-700.0, min(700.0, level))))
                offset = min(max(offset, box_lo), box_hi)
                lam.append(lm[k] + offset)
            out.append(("box-log-uniform", tuple(lam)))
    return out[:n]


@dataclass
class StrategyStats:
    samples: int = 0
    worst_ratio: Fraction | None = None


@dataclass
class VerificationReport:
    """Outcome of checking the set property over a sample of points.

    ``worst_ratio`` is None only when no finite ratio was observed;
    ``hard_failures`` counts points where the optimum is zero but the set's
    best value is not (no factor can repair those).
    """

    beta: Fraction
    samples_tested: int
    worst_ratio: Fraction | None
    worst_point: tuple | None
    passed: bool
    hard_failures: int
    strategies: dict[str, StrategyStats]
    space: str = "parameter"


def _ratio(best: Fraction, opt: Fraction, sense: Sense) -> Fraction | None:
    """Approximation factor of ``best`` against optimum ``opt``; None if infinite."""
    if sense is Sense.MIN:
        if opt == 0:
            return Fraction(1) if best == 0 else None
        return best / opt
    if best == 0:
        return Fraction(1) if opt == 0 else None
    return opt / best


def _solution_pool(solutions) -> list[SolutionRecord]:
    if hasattr(solutions, "solutions"):
        return list(solutions.solutions)
    return list(solutions)


def _verify(
    instance: ProblemInstance,
    solutions,
    beta: RationalLike,
    probes: Sequence[tuple[str, tuple, Weight]],
    space: str,
) -> VerificationReport:
    """Check the pool against the exact optimum at each (label, point, weight) probe."""
    b = as_fraction(beta)
    scan = _ScanState(_solution_pool(solutions), instance.sense)
    reference = ExhaustiveOracle(instance)._scan

    worst: Fraction | None = None
    worst_point = None
    hard = 0
    strategies: dict[str, StrategyStats] = {}
    for label, point, weight in probes:
        _, best_val = scan.best(weight)
        _, opt_val = reference.best(weight)
        ratio = _ratio(best_val, opt_val, instance.sense)
        stats = strategies.setdefault(label, StrategyStats())
        stats.samples += 1
        if ratio is None:
            hard += 1
            worst_point = point
        else:
            if worst is None or ratio > worst:
                worst = ratio
                worst_point = point
            if stats.worst_ratio is None or ratio > stats.worst_ratio:
                stats.worst_ratio = ratio
    passed = hard == 0 and worst is not None and worst <= b
    return VerificationReport(
        beta=b,
        samples_tested=len(probes),
        worst_ratio=worst,
        worst_point=worst_point,
        passed=passed,
        hard_failures=hard,
        strategies=strategies,
        space=space,
    )


def verify_approximation_set(
    instance: ProblemInstance,
    solutions,
    beta: RationalLike,
    samples: Sequence[tuple[str, Lambda]],
) -> VerificationReport:
    """Check that some pooled solution is beta-approximate at every (label, lambda) sample."""
    probes = []
    for sample in samples:
        label, lam = sample if isinstance(sample, tuple) and len(sample) == 2 else (None, None)
        if not isinstance(label, str) or not isinstance(lam, (tuple, list)):
            raise InvalidInstanceError(
                f"a verify sample must be a (label, lambda vector) pair, got {sample!r}"
            )
        vec = check_lambda(instance, lam)
        probes.append((label, vec, weight_from_lambda(vec, instance.lambda_min)))
    return _verify(instance, solutions, beta, probes, "parameter")


def verify_on_weights(
    instance: ProblemInstance,
    solutions,
    beta: RationalLike,
    weights: Sequence[Weight],
) -> VerificationReport:
    """Weight-space variant of the set check (covers the w_0 = 0 boundary)."""
    checked = [_checked_weight(instance, w) for w in weights]
    return _verify(instance, solutions, beta, [("weights", w, w) for w in checked], "weight")


MAX_COVER_SOLUTIONS = 12


def minimum_cover_size(
    instance: ProblemInstance,
    beta: RationalLike,
    samples: Sequence[Lambda],
) -> int:
    """Smallest subset of X that is beta-approximate at every sample.

    Exhaustive search in increasing cardinality; a lower bound on the true
    minimum cover of the full parameter set.
    """
    b = as_fraction(beta)
    records = enumerate_solutions(instance)
    if len(records) > MAX_COVER_SOLUTIONS:
        raise TooLargeError(f"cover search needs at most {MAX_COVER_SOLUTIONS} solutions")
    lams = [check_lambda(instance, lam) for lam in samples]
    exact = ExhaustiveOracle(instance)
    optima = [exact.optimum(lam)[1] for lam in lams]

    covers = []
    for rec in records:
        mask = 0
        for j, lam in enumerate(lams):
            val = evaluate(instance, rec, lam)
            ratio = _ratio(val, optima[j], instance.sense)
            if ratio is not None and ratio <= b:
                mask |= 1 << j
        covers.append(mask)
    full = (1 << len(lams)) - 1
    for size in range(1, len(records) + 1):
        for combo in combinations(range(len(records)), size):
            merged = 0
            for i in combo:
                merged |= covers[i]
            if merged == full:
                return size
    raise DomainError("no subset covers the samples; even the full set fails")

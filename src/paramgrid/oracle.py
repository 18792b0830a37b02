"""Ground-truth enumeration, parameter sampling and approximation-set checks.

Everything here is exact: objective comparisons are rational, and the
verification verdicts are universally quantified only over the documented
sample families, never over floating-point surrogates.
"""
from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .engine import ApproximationSet, locate
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
    _integer_weight,
    as_fraction,
    check_lambda,
    check_weight,
    record_from_elements,
)
from .solvers.independence import IndependenceSystem
from .solvers.knapsack import KnapsackData
from .solvers.mincut import CutGraph, cut_record

#: Enumeration guards per family (2^(n-2) cuts, 2^n subsets).
MAX_CUT_VERTICES = 10
MAX_KNAPSACK_ITEMS = 15
MAX_INDEPENDENCE_ELEMENTS = 15

FAR_FIELD_DECADES = (3, 6, 9)


def _subset_family(payload: KnapsackData | IndependenceSystem) -> tuple:
    """Ground-set size, enumeration cap, encoding kind, name and feasibility test."""
    if isinstance(payload, KnapsackData):
        feasible = lambda chosen: sum(payload.items[i].weight for i in chosen) <= payload.budget
        return len(payload.items), MAX_KNAPSACK_ITEMS, "items", "subset", feasible
    return payload.n, MAX_INDEPENDENCE_ELEMENTS, "elements", "independent-set", payload.independent


def instance_solution(instance: ProblemInstance, rec: SolutionRecord) -> SolutionRecord:
    """The instance's own solution with ``rec``'s encoding, its F rebuilt from the instance.

    An explicit id is looked up; members or a cut's source side are checked
    against the ground set and for feasibility, then rebuilt with
    ``record_from_elements`` or ``cut_record``.  A solution the instance
    lacks, or one whose F differs from ``rec``'s, is refused.
    """
    payload = instance.payload
    kind, data = rec.encoding
    own = None
    if isinstance(payload, ExplicitList):
        own = next((r for r in payload.records if r.encoding == rec.encoding), None)
    elif isinstance(payload, CutGraph) and kind == "cut":
        side = set(data)
        if side <= set(range(payload.n)) and payload.s in side and payload.t not in side:
            own = cut_record(instance, side)
    elif isinstance(payload, (KnapsackData, IndependenceSystem)):
        n, _, family_kind, _, feasible = _subset_family(payload)
        if kind == family_kind and set(data) <= set(range(n)) and feasible(data):
            own = record_from_elements(payload, instance.lambda_min, kind, data)
    if own != rec:
        F = ", ".join(map(str, rec.F))
        raise InvalidInstanceError(
            f"solution {rec.label} with F = ({F}) is not a solution of the instance"
        )
    return own


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
    if not isinstance(payload, (KnapsackData, IndependenceSystem)):
        raise TooLargeError(f"cannot enumerate payload type {type(payload).__name__}")
    n, cap, kind, what, feasible = _subset_family(payload)
    if n > cap:
        raise TooLargeError(f"{what} enumeration needs n <= {cap}")
    records = []
    for mask in range(1 << n):
        chosen = [i for i in range(n) if mask >> i & 1]
        if feasible(chosen):
            records.append(record_from_elements(payload, instance.lambda_min, kind, chosen))
    return tuple(records)


@dataclass
class ExhaustiveOracle:
    """Exact solver, and the library's one exact layer: integer rows of the enumeration.

    Every solution's F is cleared with one shared scale.  Optima scan the
    Pareto-pruned rows, sorted by sign-adjusted row (negated for
    maximization) with the earliest of equal rows kept; ties go to the first.
    """

    instance: ProblemInstance

    def __post_init__(self):
        records = enumerate_solutions(self.instance)
        flat, self._scale = _clear_denominators([v for rec in records for v in rec.F])
        rows = list(zip(*[iter(flat)] * (self.instance.K + 1)))  # K + 1 entries per row
        self._rows = {rec.encoding: row for rec, row in zip(records, rows)}
        self._pick = min if self.instance.sense is Sense.MIN else max
        sign = 1 if self._pick is min else -1
        kept: list[tuple[tuple[int, ...], int]] = []
        for key, i in sorted((tuple(sign * v for v in row), i) for i, row in enumerate(rows)):
            # a nonnegative weighting attains its optimum on the rows no kept row dominates
            if not any(all(map(operator.le, other, key)) for other, _ in kept):
                kept.append((key, i))
        self._kept = [records[i] for _, i in kept]
        self._kept_rows = [rows[i] for _, i in kept]

    def __call__(self, instance: ProblemInstance, lam: Sequence[RationalLike]) -> SolutionRecord:
        w = _integer_weight(check_lambda(self.instance, lam), self.instance.lambda_min)
        return self._argbest(w)[0]

    def optimum(self, lam: Sequence[RationalLike]) -> tuple[SolutionRecord, Fraction]:
        """Exact optimizer and optimal value at ``lam``."""
        w = _integer_weight(check_lambda(self.instance, lam), self.instance.lambda_min)
        rec, value = self._argbest(w)
        return rec, Fraction(value, w[0] * self._scale)

    def _argbest(self, w: Sequence[int]) -> tuple[SolutionRecord, int]:
        values = [sum(map(operator.mul, w, row)) for row in self._kept_rows]
        value = self._pick(values)
        return self._kept[values.index(value)], value

    def _best(self, w: Sequence[int]) -> int:
        """The optimal value at an integer weight, in the scale of ``_row``."""
        return self._pick([sum(map(operator.mul, w, row)) for row in self._kept_rows])

    def _row(self, rec: SolutionRecord) -> tuple[int, ...]:
        """The row of the instance's solution with ``rec``'s encoding and F; others are refused."""
        row = self._rows.get(rec.encoding)
        if row is None or tuple(v * self._scale for v in rec.F) != row:
            F = ", ".join(map(str, rec.F))
            raise InvalidInstanceError(
                f"solution {rec.label} with F = ({F}) is not a solution of the instance"
            )
        return row


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
    ``hard_failures`` counts points where the optimum is zero but the checked
    value (the set's answer, or the pool's best on weights) is not.
    """

    beta: Fraction
    samples_tested: int
    worst_ratio: Fraction | None
    worst_point: tuple | None
    passed: bool
    hard_failures: int
    strategies: dict[str, StrategyStats]
    space: str = "parameter"


def _ratio(value, opt, sense: Sense) -> Fraction | None:
    """Factor of ``value`` against optimum ``opt``, both scaled alike; None if infinite."""
    if sense is Sense.MIN:
        if opt == 0:
            return Fraction(1) if value == 0 else None
        return Fraction(value, opt)
    if value == 0:
        return Fraction(1) if opt == 0 else None
    return Fraction(opt, value)


def _report(beta: RationalLike, probes: Sequence[tuple], space: str) -> VerificationReport:
    """Fold (label, point, ratio) probes into a report; a None ratio is a hard failure."""
    b = as_fraction(beta)
    worst: Fraction | None = None
    worst_point = None
    hard = 0
    strategies: dict[str, StrategyStats] = {}
    for label, point, ratio in probes:
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
    aset: ApproximationSet,
    beta: RationalLike,
    samples: Sequence[tuple[str, Lambda]],
) -> VerificationReport:
    """Check that ``query``'s answer is beta-approximate at every (label, lambda) sample.

    The answer, the record in ``engine.locate``'s cell, is valued from the instance's
    own row on the exact optimum's integer weight; a solution it lacks is refused.
    """
    exact = ExhaustiveOracle(instance)
    rows = {rec.encoding: exact._row(rec) for rec in aset.solutions}
    probes = []
    for sample in samples:
        label, lam = sample if isinstance(sample, tuple) and len(sample) == 2 else (None, None)
        if not isinstance(label, str) or not isinstance(lam, (tuple, list)):
            raise InvalidInstanceError(
                f"a verify sample must be a (label, lambda vector) pair, got {sample!r}"
            )
        vec = check_lambda(instance, lam)
        w, _, _, _, cell = locate(aset.spec, instance, vec)
        value = sum(map(operator.mul, w, rows[aset.entries[cell].encoding]))
        probes.append((label, vec, _ratio(value, exact._best(w), instance.sense)))
    return _report(beta, probes, "parameter")


def verify_on_weights(
    instance: ProblemInstance,
    solutions: Sequence[SolutionRecord],
    beta: RationalLike,
    weights: Sequence[Weight],
) -> VerificationReport:
    """Check that some pooled solution is beta-approximate at every weight (w_0 = 0 too).

    Members are valued from the instance's own rows; one it lacks is refused.
    """
    if not solutions:
        raise DomainError("empty solution pool")
    exact = ExhaustiveOracle(instance)
    pool = [exact._row(rec) for rec in solutions]
    probes = []
    for w in map(check_weight, weights):
        if len(w) != instance.K + 1:
            raise DomainError(f"weight length {len(w)} does not match {instance.K + 1} components")
        ints = _clear_denominators(w)[0]
        value = exact._pick(sum(map(operator.mul, ints, row)) for row in pool)
        probes.append(("weights", w, _ratio(value, exact._best(ints), instance.sense)))
    return _report(beta, probes, "weight")


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
    exact = ExhaustiveOracle(instance)
    rows = list(exact._rows.values())
    if len(rows) > MAX_COVER_SOLUTIONS:
        raise TooLargeError(f"cover search needs at most {MAX_COVER_SOLUTIONS} solutions")
    weights = [_integer_weight(check_lambda(instance, lam), instance.lambda_min) for lam in samples]
    optima = [exact._best(w) for w in weights]

    covers = []
    for row in rows:
        mask = 0
        for j, w in enumerate(weights):
            ratio = _ratio(sum(map(operator.mul, w, row)), optima[j], instance.sense)
            if ratio is not None and ratio <= b:
                mask |= 1 << j
        covers.append(mask)
    full = (1 << len(weights)) - 1
    for size in range(1, len(rows) + 1):
        for combo in combinations(range(len(rows)), size):
            merged = 0
            for i in combo:
                merged |= covers[i]
            if merged == full:
                return size
    raise DomainError("no subset covers the samples; even the full set fails")

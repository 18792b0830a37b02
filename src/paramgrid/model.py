"""Problem model: parameter-dependent objectives over finite solution sets.

A K-parametric instance assigns each feasible solution x an affine objective
a(x) + sum_k lambda_k * b_k(x) over the parameter box
Lambda = X_k [lambda_min_k, inf).  Internally every solution is stored through
its component vector F(x) = (F_0, ..., F_K) with F_0 = f(x, lambda_min) and
F_k = b_k(x), so that

    f(x, lambda) = F_0(x) + sum_k (lambda_k - lambda_min_k) * F_k(x).

All values are exact rationals.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Protocol, Sequence, Union, runtime_checkable

from .errors import DegenerateInstanceError, DomainError, InvalidInstanceError

RationalLike = Union[int, str, Fraction]
Lambda = tuple[Fraction, ...]
Weight = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, float):
        raise InvalidInstanceError(
            f"refusing float {value!r}; pass an int, Fraction or 'p/q' string"
        )
    raise InvalidInstanceError(f"cannot interpret {value!r} as a rational")


def as_vector(values: Sequence[RationalLike], length: int | None = None) -> tuple[Fraction, ...]:
    vec = tuple(as_fraction(v) for v in values)
    if length is not None and len(vec) != length:
        raise InvalidInstanceError(f"expected a vector of length {length}, got {len(vec)}")
    return vec


class Sense(Enum):
    MIN = "minimize"
    MAX = "maximize"

    @classmethod
    def parse(cls, text: str) -> "Sense":
        if not isinstance(text, str):
            raise InvalidInstanceError(f"sense must be a string, got {text!r}")
        key = text.strip().lower()
        if key in ("min", "minimize", "minimise"):
            return cls.MIN
        if key in ("max", "maximize", "maximise"):
            return cls.MAX
        raise InvalidInstanceError(f"unknown sense {text!r}")


@dataclass(frozen=True)
class SolutionRecord:
    """A feasible solution with its cached component vector.

    ``encoding`` is a canonical, hashable description such as
    ``("items", (0, 2))``, ``("cut", (0, 1))``, ``("elements", (1,))`` or
    ``("explicit", "x0")``; two records are the same solution iff their
    encodings are equal.
    """

    encoding: tuple
    F: tuple[Fraction, ...]

    def __post_init__(self):
        if any(v < 0 for v in self.F):
            raise InvalidInstanceError(f"negative component value in {self.F}")

    @property
    def label(self) -> str:
        kind, data = self.encoding[0], self.encoding[1]
        return f"{kind}:{data}"


@runtime_checkable
class CostRows(Protocol):
    """Structured payloads expose per-element affine cost rows (a_e, b_e)."""

    K: int

    def cost_rows(self) -> Iterable[tuple[int, tuple[int, ...]]]: ...


@dataclass(frozen=True)
class ExplicitList:
    """An enumerated solution set given directly by its component vectors."""

    records: tuple[SolutionRecord, ...]
    K: int

    def __post_init__(self):
        if not self.records:
            raise InvalidInstanceError("explicit instance needs at least one solution")
        for rec in self.records:
            if len(rec.F) != self.K + 1:
                raise InvalidInstanceError(
                    f"solution {rec.encoding} has {len(rec.F)} components, expected {self.K + 1}"
                )
        seen = set()
        for rec in self.records:
            if rec.encoding in seen:
                raise InvalidInstanceError(f"duplicate solution encoding {rec.encoding}")
            seen.add(rec.encoding)


@dataclass(frozen=True)
class ProblemInstance:
    """A linear K-parametric problem together with its certified bounds.

    ``LB``/``UB`` satisfy the containment F_i(x) in {0} or [LB, UB] for every
    feasible x; ``alpha`` is the guarantee of the instance's default solver.
    """

    sense: Sense
    K: int
    lambda_min: Lambda
    LB: Fraction
    UB: Fraction
    alpha: Fraction
    payload: object

    def __post_init__(self):
        if self.K < 1:
            raise InvalidInstanceError("K must be a positive integer")
        if len(self.lambda_min) != self.K:
            raise InvalidInstanceError("lambda_min length must equal K")
        if not (0 < self.LB <= self.UB):
            raise InvalidInstanceError("bounds must satisfy 0 < LB <= UB")
        if self.alpha < 1:
            raise InvalidInstanceError("alpha must be >= 1")


def check_lambda(instance: ProblemInstance, lam: Sequence[RationalLike]) -> Lambda:
    """Validate a parameter vector against the instance's domain."""
    vec = as_vector(lam, instance.K)
    for k, (v, lo) in enumerate(zip(vec, instance.lambda_min)):
        if v < lo:
            raise DomainError(f"lambda[{k}] = {v} is below the minimum {lo}")
    return vec


def check_weight(w: Sequence[RationalLike]) -> Weight:
    vec = tuple(as_fraction(v) for v in w)
    for i, v in enumerate(vec):
        if v < 0:
            raise DomainError(f"weight[{i}] = {v} is negative")
    return vec


def evaluate(instance: ProblemInstance, x: SolutionRecord, lam: Sequence[RationalLike]) -> Fraction:
    """Objective value f(x, lambda), exact."""
    vec = check_lambda(instance, lam)
    value = x.F[0]
    for k in range(instance.K):
        value += (vec[k] - instance.lambda_min[k]) * x.F[k + 1]
    return value


def augmented_evaluate(x: SolutionRecord, w: Sequence[RationalLike]) -> Fraction:
    """Weighted component sum sum_i w_i * F_i(x), exact."""
    vec = check_weight(w)
    if len(vec) != len(x.F):
        raise DomainError(f"weight length {len(vec)} does not match {len(x.F)} components")
    return sum((wi * fi for wi, fi in zip(vec, x.F)), ZERO)


def _clear_denominators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers v * D for the common denominator D of ``values``, and D."""
    D = math.lcm(*(v.denominator for v in values))
    # D // denominator avoids a Fraction multiply per value
    return [v.numerator * (D // v.denominator) for v in values], D


def scaled_costs(
    rows: Iterable[tuple[int, Sequence[int]]], lam: Sequence[Fraction]
) -> tuple[list[int], int]:
    """Cost a_e + sum_k lam_k * b_{k,e} of each (a_e, b_e) row, times D.

    D is the common denominator of ``lam``, so every cost is the integer
    returned over D.  Scaling by one positive D keeps every comparison, so
    solvers can run on the integers and give the same answer.
    """
    mult, D = _clear_denominators(lam)
    return [a * D + sum(map(operator.mul, mult, b)) for a, b in rows], D


def element_costs(payload: CostRows, lambda_min: Lambda) -> list[Fraction]:
    """Per-element cost at lambda_min; rejects negatives."""
    scaled, D = scaled_costs(payload.cost_rows(), lambda_min)
    costs = [Fraction(c, D) for c in scaled]
    for cost in costs:
        if cost < 0:
            raise InvalidInstanceError(
                f"element cost {cost} at lambda_min is negative; lambda_min too small"
            )
    return costs


def component_vector(
    rows: Iterable[tuple[int, Sequence[int]]], lambda_min: Lambda
) -> tuple[Fraction, ...]:
    """F of an element subset given its (a_e, b_e) rows.

    The cost is affine in its row, so F_0 is the cost of the summed row at
    lambda_min: integer sums, then one rational division.
    """
    a_sum = 0
    b_sum = [0] * len(lambda_min)
    for a, b in rows:
        a_sum += a
        for k, be in enumerate(b):
            b_sum[k] += be
    (f0,), D = scaled_costs([(a_sum, b_sum)], lambda_min)
    return (Fraction(f0, D), *map(Fraction, b_sum))


def compute_lambda_min(payload: CostRows) -> Lambda:
    """Componentwise max of -a_e / (K * b_{k,e}) over elements with b_{k,e} != 0.

    Coordinates with no nonzero b-entry get 0.  The resulting vector makes
    every per-element cost (hence every objective value on Lambda) nonnegative.
    """
    rows = list(payload.cost_rows())
    out = []
    for k in range(payload.K):
        candidates = [
            Fraction(-a, payload.K * b[k]) for a, b in rows if b[k] != 0
        ]
        out.append(max(candidates) if candidates else ZERO)
    return tuple(out)


def _structured_bounds(payload: CostRows, lambda_min: Lambda) -> tuple[Fraction, Fraction]:
    rows = list(payload.cost_rows())
    costs = element_costs(payload, lambda_min)
    sums = [sum(costs, ZERO)]
    for k in range(payload.K):
        sums.append(Fraction(sum(b[k] for _, b in rows)))
    ub = max(sums)
    if ub == 0:
        raise DegenerateInstanceError("all cost components are zero")
    # Nonzero F_0 is a sum of nonnegative element costs, hence at least the
    # smallest nonzero cost; nonzero F_k sums of nonnegative integers are >= 1.
    nonzero_costs = [c for c in costs if c > 0]
    lb = min([ONE] + nonzero_costs)
    return lb, ub


def _explicit_bounds(payload: ExplicitList) -> tuple[Fraction, Fraction]:
    nonzero = [v for rec in payload.records for v in rec.F if v != 0]
    if not nonzero:
        raise DegenerateInstanceError("all component values are zero")
    return min(nonzero), max(nonzero)


def explicit_instance(
    records: Iterable[SolutionRecord],
    *,
    sense: Sense = Sense.MIN,
    K: int | None = None,
    lambda_min: Sequence[RationalLike] | None = None,
    alpha: RationalLike = 1,
) -> ProblemInstance:
    """Build an instance from enumerated component vectors.

    K defaults to one less than the component count; lambda_min defaults to
    the zero vector (the F-vectors are values relative to that anchor).
    """
    recs = tuple(records)
    if not recs:
        raise InvalidInstanceError("no solutions given")
    if K is None:
        K = len(recs[0].F) - 1
    payload = ExplicitList(records=recs, K=K)
    lm = as_vector(lambda_min, K) if lambda_min is not None else (ZERO,) * K
    lb, ub = _explicit_bounds(payload)
    return ProblemInstance(
        sense=sense,
        K=K,
        lambda_min=lm,
        LB=lb,
        UB=ub,
        alpha=as_fraction(alpha),
        payload=payload,
    )


def structured_instance(
    payload: CostRows,
    sense: Sense,
    *,
    lambda_min: Sequence[RationalLike] | None = None,
    alpha: RationalLike = 1,
) -> ProblemInstance:
    lm = (
        as_vector(lambda_min, payload.K)
        if lambda_min is not None
        else compute_lambda_min(payload)
    )
    lb, ub = _structured_bounds(payload, lm)
    return ProblemInstance(
        sense=sense,
        K=payload.K,
        lambda_min=lm,
        LB=lb,
        UB=ub,
        alpha=as_fraction(alpha),
        payload=payload,
    )


def record_from_elements(
    payload: CostRows, lambda_min: Lambda, kind: str, members: Iterable[int]
) -> SolutionRecord:
    """Component vector of an element subset under a structured payload."""
    rows = list(payload.cost_rows())
    chosen = tuple(sorted(set(members)))
    F = component_vector((rows[e] for e in chosen), lambda_min)
    return SolutionRecord(encoding=(kind, chosen), F=F)

"""Grid algorithm and query path.

``approximate`` calls a non-parametric solver once per point of a logarithmic
parameter grid and collects the answers keyed by grid index; the result
covers every admissible parameter vector within factor (1 + eps) times the
solver's own guarantee.  ``query`` maps an arbitrary parameter vector to its
responsible grid entry: convert to a simplex weight, lift into the
irreducible cone, map back to a compact-box parameter vector and snap to its
grid cell.

``GridApproximator`` wraps the same machinery in a fit/query/predict
estimator so runs can be configured, cloned and reused like any other
estimator.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable, Iterable, Sequence

from .errors import EpsilonRangeError, InvalidInstanceError, OracleError
from .grid import DEFAULT_GRID_CAP, GridIndex, GridSpec, grid_points, make_spec, snap
from .model import (
    ExplicitList,
    Lambda,
    ProblemInstance,
    RationalLike,
    Sense,
    SolutionRecord,
    as_fraction,
    check_lambda,
)
from .weights import lambda_from_weight, lift_to_cone, threshold, weight_from_lambda

OracleFn = Callable[[ProblemInstance, Lambda], SolutionRecord]


@dataclass(frozen=True)
class Oracle:
    """Non-parametric solver with its guarantee.

    ``alpha`` bounds the solver's approximation factor at every fixed
    parameter vector (reciprocal convention for maximization).
    """

    fn: OracleFn
    alpha: Fraction
    name: str = ""

    def __call__(self, instance: ProblemInstance, lam: Lambda) -> SolutionRecord:
        return self.fn(instance, lam)


@dataclass(frozen=True)
class OracleFamily:
    """Accuracy-indexed family: ``make(delta)`` yields a (1+delta)-oracle."""

    make: Callable[[Fraction], Oracle]
    name: str = ""


def default_oracle(instance: ProblemInstance) -> Oracle:
    """Exact or declared-guarantee solver for the instance's payload family."""
    from .oracle import ExhaustiveOracle
    from .solvers.independence import IndependenceSystem, greedy_solve
    from .solvers.knapsack import KnapsackData, knapsack_solve
    from .solvers.mincut import CutGraph, min_cut_solve

    payload = instance.payload
    if isinstance(payload, ExplicitList):
        return Oracle(fn=ExhaustiveOracle(instance), alpha=Fraction(1), name="exhaustive")
    if isinstance(payload, CutGraph):
        return Oracle(fn=min_cut_solve, alpha=Fraction(1), name="mincut-blocking-flow")
    if isinstance(payload, KnapsackData):
        return Oracle(fn=knapsack_solve, alpha=Fraction(1), name="knapsack-dp")
    if isinstance(payload, IndependenceSystem):
        return Oracle(fn=greedy_solve, alpha=instance.alpha, name="greedy")
    raise InvalidInstanceError(f"no default oracle for {type(payload).__name__}")


def rational_sqrt_down(x: RationalLike, precision: int = 10**12) -> Fraction:
    """Largest convenient rational r with r*r <= x; exact on rational squares."""
    v = as_fraction(x)
    if v < 0:
        raise InvalidInstanceError("square root of a negative rational")
    scaled = isqrt(v.numerator * v.denominator * precision * precision)
    return Fraction(scaled, v.denominator * precision)


@dataclass
class ApproximationSet:
    """Output of a grid run: per-cell solutions plus the run's geometry."""

    requested_eps: Fraction
    eps: Fraction
    alpha: Fraction
    c: Fraction
    spec: GridSpec
    sense: Sense
    entries: dict[GridIndex, SolutionRecord]
    solutions: tuple[SolutionRecord, ...]
    oracle_name: str = ""

    @property
    def guarantee(self) -> Fraction:
        return (1 + self.eps) * self.alpha

    @property
    def grid_size(self) -> int:
        return self.spec.size

    @property
    def distinct_solution_count(self) -> int:
        return len(self.solutions)


def guarantee(aset: ApproximationSet) -> Fraction:
    """Approximation factor certified for every admissible parameter vector."""
    return aset.guarantee


def approximate(
    instance: ProblemInstance,
    eps: RationalLike,
    oracle: Oracle | OracleFamily | None = None,
    *,
    grid_cap: int = DEFAULT_GRID_CAP,
) -> ApproximationSet:
    """Run the grid algorithm and return the populated approximation set.

    With a fixed oracle the guarantee is (1 + eps) * alpha.  With an
    accuracy-indexed family the run is split at delta = sqrt(1 + eps) - 1:
    the family is instantiated at guarantee 1 + delta and the grid is built
    for delta, giving (1 + delta)^2 <= 1 + eps overall.
    """
    requested = as_fraction(eps)
    if not (0 < requested < 1):
        raise EpsilonRangeError(f"eps must lie in (0,1), got {requested}")
    if oracle is None:
        oracle = default_oracle(instance)
    if isinstance(oracle, OracleFamily):
        # strictly positive for every requested eps > 0: the floored root of
        # p/q > 1 at precision M exceeds 1 whenever p - q >= 1 > 2/M
        delta = rational_sqrt_down(1 + requested) - 1
        oracle = oracle.make(delta)
        run_eps = delta
    else:
        run_eps = requested
    alpha = oracle.alpha

    eps_prime = run_eps / 2
    beta = (1 + eps_prime) * alpha
    c = threshold(eps_prime, beta, instance.LB, instance.UB)
    spec = make_spec(c, instance.K, run_eps, instance.lambda_min)

    entries: dict[GridIndex, SolutionRecord] = {}
    # Grid points stream in lexicographic index order, so the interning dict
    # keeps the distinct solutions in first-appearance order.
    interned: dict[tuple, SolutionRecord] = {}
    for idx, lam in grid_points(spec, cap=grid_cap):
        try:
            rec = oracle(instance, lam)
        except Exception as exc:  # noqa: BLE001 - contract: abort with offending lambda
            raise OracleError(lam, exc) from exc
        if len(rec.F) != instance.K + 1:
            raise OracleError(lam, f"oracle returned {len(rec.F)} components")
        entries[idx] = interned.setdefault(rec.encoding, rec)

    return ApproximationSet(
        requested_eps=requested,
        eps=run_eps,
        alpha=alpha,
        c=c,
        spec=spec,
        sense=instance.sense,
        entries=entries,
        solutions=tuple(interned.values()),
        oracle_name=oracle.name,
    )


def query(
    aset: ApproximationSet, instance: ProblemInstance, lam: Sequence[RationalLike]
) -> SolutionRecord:
    """Solution responsible for a parameter vector.

    The returned record is (1 + eps) * alpha approximate at ``lam``
    (reciprocal form for maximization): weight conversion, cone lifting and
    snapping compose the run's per-step losses into exactly that factor.
    """
    vec = check_lambda(instance, lam)
    w = weight_from_lambda(vec, instance.lambda_min)
    cert = lift_to_cone(w, aset.c)
    compact = lambda_from_weight(cert.final, instance.lambda_min)
    idx = snap(aset.spec, compact)
    return aset.entries[idx]


class GridApproximator:
    """Estimator-style front end: configure, ``fit`` an instance, query it.

    Parameters are plain keyword settings in sklearn convention;
    ``get_params``/``set_params`` make the object cloneable.  Fitted state
    lives in trailing-underscore attributes.
    """

    def __init__(
        self,
        epsilon: RationalLike = Fraction(1, 2),
        oracle: Oracle | OracleFamily | None = None,
        grid_cap: int = DEFAULT_GRID_CAP,
    ):
        self.epsilon = epsilon
        self.oracle = oracle
        self.grid_cap = grid_cap

    def get_params(self, deep: bool = True) -> dict:
        return {
            "epsilon": self.epsilon,
            "oracle": self.oracle,
            "grid_cap": self.grid_cap,
        }

    def set_params(self, **params) -> "GridApproximator":
        for key, value in params.items():
            if key not in self.get_params():
                raise ValueError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    def fit(self, instance: ProblemInstance, y=None) -> "GridApproximator":
        self.instance_ = instance
        self.approximation_set_ = approximate(
            instance, self.epsilon, self.oracle, grid_cap=self.grid_cap
        )
        self.guarantee_ = self.approximation_set_.guarantee
        return self

    def _require_fit(self):
        if not hasattr(self, "approximation_set_"):
            raise RuntimeError("this GridApproximator is not fitted; call fit first")

    def query(self, lam: Sequence[RationalLike]) -> SolutionRecord:
        self._require_fit()
        return query(self.approximation_set_, self.instance_, lam)

    def predict(self, lams: Iterable[Sequence[RationalLike]]) -> list[SolutionRecord]:
        self._require_fit()
        return [self.query(lam) for lam in lams]

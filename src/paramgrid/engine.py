"""Grid algorithm and query path.

``approximate`` gives every point of a logarithmic parameter grid a solution
that the non-parametric solver certifies there, keyed by grid index: it
solves the corners of index boxes and fills a box whose corners agree, so
it calls the solver at most once per point and usually far less often.  The
result covers every admissible parameter vector within factor (1 + eps)
times the solver's own guarantee.  ``query`` maps an arbitrary parameter
vector to its responsible grid entry: convert to the weight
(1, lambda - lambda_min), lift it into the irreducible cone, map back to a
compact-box parameter vector and snap to its grid cell.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import isqrt
from typing import Callable, Sequence

from .errors import EpsilonRangeError, GridCapError, InvalidInstanceError, OracleError
from .grid import DEFAULT_GRID_CAP, GridIndex, GridSpec, make_spec, snap
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


#: Denominator scale of ``rational_sqrt_down``: the root is floored to a multiple of 1/(q * M).
SQRT_PRECISION = 10**12


def rational_sqrt_down(x: RationalLike) -> Fraction:
    """Largest convenient rational r with r*r <= x; exact on rational squares."""
    v = as_fraction(x)
    if v < 0:
        raise InvalidInstanceError("square root of a negative rational")
    scaled = isqrt(v.numerator * v.denominator * SQRT_PRECISION**2)
    return Fraction(scaled, v.denominator * SQRT_PRECISION)


@dataclass
class ApproximationSet:
    """Output of a grid run: per-cell solutions plus the run's geometry.

    ``oracle_calls`` counts the calls the run made; it is not part of the
    set itself, so it is left out of set files and of equality, and a loaded
    set reports 0.
    """

    requested_eps: Fraction
    eps: Fraction
    alpha: Fraction
    c: Fraction
    spec: GridSpec
    sense: Sense
    entries: dict[GridIndex, SolutionRecord]
    solutions: tuple[SolutionRecord, ...]
    oracle_name: str = ""
    oracle_calls: int = field(default=0, compare=False)

    @property
    def guarantee(self) -> Fraction:
        """Approximation factor certified for every admissible parameter vector."""
        return (1 + self.eps) * self.alpha


def approximate(
    instance: ProblemInstance,
    eps: RationalLike,
    oracle: Oracle | OracleFamily | None = None,
    *,
    grid_cap: int = DEFAULT_GRID_CAP,
) -> ApproximationSet:
    """Run the grid algorithm and return the populated approximation set.

    Every grid point gets a solution that is alpha-approximate there.  The
    oracle runs at the corners of index boxes, starting from the whole
    grid, and never twice at one point; a box whose corners all got the same
    solution is filled with it, any other box is halved along its longest
    side.  When every point has its own answer this makes exactly one call
    per point, as a full-grid loop would.

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
        # p/q > 1 at precision M = SQRT_PRECISION exceeds 1 whenever p - q >= 1 > 2/M
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

    if spec.size > grid_cap:
        raise GridCapError(spec.size, grid_cap)
    # one record object per distinct solution, so corners compare by identity
    interned: dict[tuple, SolutionRecord] = {}
    solved: dict[GridIndex, SolutionRecord] = {}

    def solve(idx: GridIndex) -> SolutionRecord:
        lam = spec.point(idx)
        try:
            rec = oracle(instance, lam)
        except Exception as exc:  # noqa: BLE001 - contract: abort with offending lambda
            raise OracleError(lam, exc) from exc
        if len(rec.F) != instance.K + 1:
            raise OracleError(lam, f"oracle returned {len(rec.F)} components")
        rec = solved[idx] = interned.setdefault(rec.encoding, rec)
        return rec

    # Box subdivision over grid indices.  A box whose corners all got the
    # same solution is filled with it: f(x, .) is affine and f_opt concave
    # (min) or convex (max), so x stays alpha-approximate inside the box.
    # Otherwise the longest side is halved; the halves share the middle line.
    filled: dict[GridIndex, SolutionRecord] = {}
    stack = [((spec.lb,) * instance.K, (spec.ub,) * instance.K)]
    while stack:
        lo, hi = stack.pop()
        corners = [solved.get(idx) or solve(idx) for idx in product(*zip(lo, hi))]
        sides = [h - l for l, h in zip(lo, hi)]
        longest = max(sides)
        if longest <= 1:
            continue  # every point of the box is a corner, so it is solved
        if all(rec is corners[0] for rec in corners):
            box = product(*(range(l, h + 1) for l, h in zip(lo, hi)))
            filled.update(dict.fromkeys(box, corners[0]))
            continue
        k = sides.index(longest)
        mid = (lo[k] + hi[k]) // 2
        stack.append((lo, hi[:k] + (mid,) + hi[k + 1 :]))
        stack.append((lo[:k] + (mid,) + lo[k + 1 :], hi))

    filled.update(solved)  # a solved point keeps the oracle's own answer
    entries = {idx: filled[idx] for idx in spec.indices()}
    # distinct solutions in order of first appearance in lexicographic index order
    solutions = tuple({id(rec): rec for rec in entries.values()}.values())

    return ApproximationSet(
        requested_eps=requested,
        eps=run_eps,
        alpha=alpha,
        c=c,
        spec=spec,
        sense=instance.sense,
        entries=entries,
        solutions=solutions,
        oracle_name=oracle.name,
        oracle_calls=len(solved),
    )


def query(
    aset: ApproximationSet, instance: ProblemInstance, lam: Sequence[RationalLike]
) -> SolutionRecord:
    """Solution responsible for a parameter vector.

    The returned record is (1 + eps) * alpha approximate at ``lam``
    (reciprocal form for maximization): conversion to the weight
    (1, lambda - lambda_min), cone lifting and snapping compose the run's
    per-step losses into exactly that factor.
    """
    vec = check_lambda(instance, lam)
    w = weight_from_lambda(vec, instance.lambda_min)
    cert = lift_to_cone(w, aset.c)
    compact = lambda_from_weight(cert.final, instance.lambda_min)
    idx = snap(aset.spec, compact)
    return aset.entries[idx]

"""Grid algorithm and query path.

``approximate`` gives every point of a logarithmic parameter grid a solution
that the non-parametric solver certifies there, keyed by grid index: it
solves the corners of index boxes and fills a box whose corners agree, so
it calls the solver at most once per point and usually far less often.  The
result covers every admissible parameter vector within factor (1 + eps)
times the solver's own guarantee.  ``query`` maps an arbitrary parameter
vector to its responsible grid entry: convert to the weight
(1, lambda - lambda_min), lift it into the irreducible cone, and snap the
compact-box parameter vector it stands for to its grid cell.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Sequence

from .errors import (
    EpsilonRangeError,
    GridCapError,
    InvalidInstanceError,
    OracleError,
    TooLargeError,
    size_text,
)
from .grid import GridIndex, GridSpec, fewest_points_exceed
from .model import (
    ExplicitList,
    Lambda,
    ProblemInstance,
    RationalLike,
    Sense,
    SolutionRecord,
    _integer_weight,
    as_fraction,
    check_lambda,
)
from .weights import lift_integer_weight, threshold

OracleFn = Callable[[ProblemInstance, Lambda], SolutionRecord]

#: Default refusal threshold of ``approximate`` for the grid size.
DEFAULT_GRID_CAP = 10**8


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
    from .solvers.knapsack import MAX_KNAPSACK_CELLS, KnapsackData, knapsack_solve
    from .solvers.mincut import CutGraph, min_cut_solve

    payload = instance.payload
    if isinstance(payload, ExplicitList):
        return Oracle(fn=ExhaustiveOracle(instance), alpha=Fraction(1), name="exhaustive")
    if isinstance(payload, CutGraph):
        return Oracle(fn=min_cut_solve, alpha=Fraction(1), name="mincut-blocking-flow")
    if isinstance(payload, KnapsackData):
        cells = len(payload.items) * (payload.capacity + 1)
        if cells > MAX_KNAPSACK_CELLS:
            raise TooLargeError(
                f"knapsack DP table has {size_text(cells)} cells, "
                f"exceeding the cap of {MAX_KNAPSACK_CELLS}"
            )
        return Oracle(fn=knapsack_solve, alpha=Fraction(1), name="knapsack-dp")
    if isinstance(payload, IndependenceSystem):
        return Oracle(fn=greedy_solve, alpha=payload.declared_alpha, name="greedy")
    raise InvalidInstanceError(f"no default oracle for {type(payload).__name__}")


@dataclass
class ApproximationSet:
    """Output of a grid run: per-cell solutions plus the run's geometry.

    ``spec`` owns the geometry; ``eps`` and ``c`` read it.  ``oracle_calls``
    counts the calls the run made; it is not part of the set itself, so it is
    left out of set files and of equality, and a loaded set reports 0.
    """

    requested_eps: Fraction
    alpha: Fraction
    spec: GridSpec
    sense: Sense
    entries: dict[GridIndex, SolutionRecord]
    solutions: tuple[SolutionRecord, ...]
    oracle_name: str = ""
    oracle_calls: int = field(default=0, compare=False)

    @property
    def eps(self) -> Fraction:
        """The grid's accuracy: the requested one, or the delta split for families."""
        return self.spec.eps

    @property
    def c(self) -> Fraction:
        """Negligibility threshold of the cone lift."""
        return self.spec.c

    @property
    def guarantee(self) -> Fraction:
        """Approximation factor certified for every admissible parameter vector."""
        return (1 + self.eps) * self.alpha


def grid_spec(instance: ProblemInstance, eps: Fraction, alpha: Fraction) -> GridSpec:
    """The grid of accuracy ``eps`` for an alpha-oracle on ``instance``.

    With eps' = eps/2 and beta = (1 + eps') * alpha, the threshold is
    c = threshold(eps', beta, LB, UB).
    """
    eps_prime = eps / 2
    c = threshold(eps_prime, (1 + eps_prime) * alpha, instance.LB, instance.UB)
    return GridSpec(c, instance.K, eps, instance.lambda_min)


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
    accuracy-indexed family the run is split at delta = 2 * eps / (4 + eps),
    just below sqrt(1 + eps) - 1: the family is instantiated at guarantee
    1 + delta and the grid is built for delta, giving (1 + delta)^2 <= 1 + eps
    overall.
    """
    requested = as_fraction(eps)
    if not (0 < requested < 1):
        raise EpsilonRangeError(f"eps must lie in (0,1), got {requested}")
    if fewest_points_exceed(instance.K, grid_cap):  # before any exact power of the grid
        raise GridCapError(3**instance.K, grid_cap, least=True)
    if oracle is None:
        oracle = default_oracle(instance)
    if isinstance(oracle, OracleFamily):
        # (1 + delta)^2 = 1 + eps - eps^3 / (4 + eps)^2 <= 1 + eps
        delta = 2 * requested / (4 + requested)
        oracle = oracle.make(delta)
        run_eps = delta
    else:
        run_eps = requested
    alpha = oracle.alpha
    spec = grid_spec(instance, run_eps, alpha)
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
    # The walk writes into the table laid out in set-file (lexicographic) order.
    entries: dict[GridIndex, SolutionRecord] = dict.fromkeys(spec.indices())
    stack = [((spec.lb,) * instance.K, (spec.ub,) * instance.K)]
    while stack:
        lo, hi = stack.pop()
        corners = [solved.get(idx) or solve(idx) for idx in product(*zip(lo, hi))]
        sides = [h - l for l, h in zip(lo, hi)]
        longest = max(sides)
        if longest <= 1:
            continue  # every point of the box is a corner, so it is solved
        if all(rec is corners[0] for rec in corners):
            for idx in product(*(range(l, h + 1) for l, h in zip(lo, hi))):
                entries[idx] = corners[0]
            continue
        k = sides.index(longest)
        mid = (lo[k] + hi[k]) // 2
        stack.append((lo, hi[:k] + (mid,) + hi[k + 1 :]))
        stack.append((lo[:k] + (mid,) + lo[k + 1 :], hi))

    entries.update(solved)  # a solved point keeps the oracle's own answer
    # distinct solutions in order of first appearance in lexicographic index order
    solutions = tuple({id(rec): rec for rec in entries.values()}.values())

    return ApproximationSet(
        requested_eps=requested,
        alpha=alpha,
        spec=spec,
        sense=instance.sense,
        entries=entries,
        solutions=solutions,
        oracle_name=oracle.name,
        oracle_calls=len(solved),
    )


def locate(spec: GridSpec, instance: ProblemInstance, lam: Lambda) -> tuple:
    """The integer pass from a ``check_lambda``-checked vector to its grid cell.

    Returns w = D * (1, lambda - lambda_min) for the common denominator D of
    both vectors, the ``order``, ``lifted`` weight and ``steps`` of
    ``lift_integer_weight(w, ...)``, and the snapped cell.  Every step after
    the weight is scale-invariant, so all of them run on w.
    """
    w = _integer_weight(lam, instance.lambda_min)
    order, lifted, steps = lift_integer_weight(w, spec.c.numerator, spec.c.denominator)
    cell = tuple(spec.floor_exponent(k, lifted[k + 1], lifted[0]) for k in range(instance.K))
    return w, order, lifted, steps, cell


def query(
    aset: ApproximationSet, instance: ProblemInstance, lam: Sequence[RationalLike]
) -> SolutionRecord:
    """Solution responsible for a parameter vector: the entry of ``locate``'s cell.

    The returned record is (1 + eps) * alpha approximate at ``lam``
    (reciprocal form for maximization): conversion to the weight
    (1, lambda - lambda_min), cone lifting and snapping compose the run's
    per-step losses into exactly that factor.
    """
    return aset.entries[locate(aset.spec, instance, check_lambda(instance, lam))[-1]]

"""Shared generators and independent reference implementations.

The reference helpers here deliberately avoid the library's optimized code
paths: cone membership enumerates every index subset, optima come from full
enumeration with Fraction arithmetic, and expected values in tests are frozen
from these oracles, not from the code under test.  The paper's cone-boundary
tests, prefix-rule cone membership, its single lifting step and the
convex-combination reconstruction of a lift certificate live here too: the
library's lift never calls them, and the tests check it against them.
``fraction_lift`` runs the same lift step by step on Fractions, the reference
for the library's integer lift.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

import pytest
from hypothesis import settings

from paramgrid import DomainError, Sense, augmented_evaluate, evaluate, grid_points
from paramgrid.model import ProblemInstance, SolutionRecord, ZERO, as_fraction, check_weight
from paramgrid.weights import LiftCertificate, LiftStep
from paramgrid.oracle import enumerate_solutions
from paramgrid.solvers import (
    cut_graph,
    from_generators,
    independence_instance,
    knapsack_data,
    knapsack_instance,
    mincut_instance,
)

F = Fraction

# every property test draws the same examples on every run
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def frac(num, den=1) -> Fraction:
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# independent reference implementations
# ---------------------------------------------------------------------------


def cone_member_exhaustive(w, c) -> bool:
    """All-subsets cone membership: no proper nonempty group below threshold."""
    n = len(w)
    for size in range(1, n):
        for group in combinations(range(n), size):
            inside = sum((w[i] for i in group), ZERO)
            outside = min(w[j] for j in range(n) if j not in group)
            if inside < c * outside:
                return False
    return True


def _group_share(w: Sequence, indices: Iterable[int], c):
    """Checked weight, its index group, the group's sum and c times the smallest outside component."""
    vec = check_weight(w)
    group = tuple(sorted(set(indices)))
    if not group or len(group) >= len(vec):
        raise DomainError("index group must be a nonempty proper subset")
    if group[0] < 0 or group[-1] >= len(vec):
        raise DomainError(f"index group {group} out of range for {len(vec)} components")
    inside = sum((vec[i] for i in group), ZERO)
    target = as_fraction(c) * min(vec[j] for j in range(len(vec)) if j not in group)
    return vec, group, inside, target


def below_threshold(w, indices, c) -> bool:
    """True iff the group's component sum is strictly below c times every outside component."""
    _, _, inside, target = _group_share(w, indices, c)
    return inside < target


def at_threshold(w, indices, c) -> bool:
    """True iff the group's component sum equals c times the smallest outside component."""
    _, _, inside, target = _group_share(w, indices, c)
    return inside == target


def lift_once(w, indices, c):
    """Scale the group up onto the threshold boundary.

    Requires the group to be at or below threshold; a boundary weight is its
    own lift.  Group components are scaled proportionally (or split uniformly
    if they are all zero); outside components are untouched.  The input is an
    exact convex combination of the result and its group projection.
    """
    vec, group, inside, target = _group_share(w, indices, c)
    if inside > target:
        raise DomainError(f"group {group} is above the threshold share for c={c}")
    out = list(vec)
    if inside > 0:
        for i in group:
            out[i] = vec[i] / inside * target
    elif target > 0:
        share = target / len(group)
        for i in group:
            out[i] = share
    return tuple(out)


def _fraction_first_below(values: Sequence[Fraction], c: Fraction):
    """(Last position, sum) of the first prefix below c times the next value, or None."""
    prefix = ZERO
    for k in range(len(values) - 1):
        prefix += values[k]
        if prefix < c * values[k + 1]:
            return k, prefix
    return None


def in_cone(w, c) -> bool:
    """Membership in the irreducible cone.

    Only the prefix groups of the ascending component order can be below
    threshold (any qualifying group consists of strictly smaller components
    than everything outside it), so K prefix checks decide membership.
    """
    return _fraction_first_below(sorted(check_weight(w)), as_fraction(c)) is None


def fraction_lift(w, c) -> LiftCertificate:
    """The cone lift on Fractions, step by step, as the paper states it.

    Each step scales the first below-threshold prefix of the ascending order
    onto c times its next value (or splits that target evenly over an
    all-zero prefix) and leaves every other component as it is.
    """
    vec = check_weight(w)
    cc = as_fraction(c)
    if all(v == 0 for v in vec):
        raise DomainError("cannot lift the zero weight")
    n = len(vec)
    order = tuple(sorted(range(n), key=lambda i: (vec[i], i)))
    cur = [vec[i] for i in order]

    steps = []
    while (hit := _fraction_first_below(cur, cc)) is not None:
        top, inside = hit
        target = cc * cur[top + 1]
        if inside > 0:
            mu = inside / target
            for i in range(top + 1):
                cur[i] = cur[i] / inside * target
        else:
            mu = ZERO
            share = target / (top + 1)
            for i in range(top + 1):
                cur[i] = share
        lifted = [ZERO] * n
        for pos, i in enumerate(order):
            lifted[i] = cur[pos]
        steps.append(
            LiftStep(
                prefix_top=top,
                indices=tuple(sorted(order[: top + 1])),
                weight=tuple(lifted),
                mu=mu,
            )
        )

    final = steps[-1].weight if steps else vec
    return LiftCertificate(start=vec, steps=tuple(steps), final=final, order=order)


def hull_coefficients(cert: LiftCertificate) -> tuple:
    """Step l gets (1 - mu_l) times the later mus' product; the final weight all mus'."""
    coeffs = []
    tail = Fraction(1)
    for step in reversed(cert.steps):
        coeffs.append((1 - step.mu) * tail)
        tail *= step.mu
    return (*reversed(coeffs), tail)


def hull_vectors(cert: LiftCertificate) -> list:
    """The final weight's projections onto each step's zeroed group, then the final weight."""
    vecs = []
    for step in cert.steps:
        vecs.append(
            tuple(
                ZERO if i in step.indices else v for i, v in enumerate(cert.final)
            )
        )
    vecs.append(cert.final)
    return vecs


def reconstruct(cert: LiftCertificate):
    """The convex combination of ``hull_vectors`` by ``hull_coefficients``: the start weight."""
    total = [ZERO] * len(cert.final)
    for coeff, vec in zip(hull_coefficients(cert), hull_vectors(cert)):
        for i, v in enumerate(vec):
            total[i] += coeff * v
    return tuple(total)


def optimum_by_enumeration(instance: ProblemInstance, lam):
    """Exact optimum by scanning every feasible solution with Fractions."""
    best = None
    for rec in enumerate_solutions(instance):
        val = evaluate(instance, rec, lam)
        if best is None or (
            val < best if instance.sense is Sense.MIN else val > best
        ):
            best = val
    return best


def optimum_by_enumeration_weight(instance: ProblemInstance, w):
    best = None
    for rec in enumerate_solutions(instance):
        val = augmented_evaluate(rec, w)
        if best is None or (
            val < best if instance.sense is Sense.MIN else val > best
        ):
            best = val
    return best


def rank_quotient_by_pairs(system) -> Fraction:
    """Rank quotient by walking every (F, independent subset of F) pair: 3^n steps.

    For each nonempty F, the upper rank is its largest independent subset and
    the lower rank its smallest independent subset with no independent
    one-element extension inside F.
    """
    n = system.n
    ind = [system.independent(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)]
    worst = Fraction(1)
    for fmask in range(1, 1 << n):
        upper = 0
        lower = None
        sub = fmask
        while True:
            if ind[sub]:
                size = sub.bit_count()
                upper = max(upper, size)
                rest = fmask & ~sub
                maximal = True
                while rest:
                    bit = rest & -rest
                    if ind[sub | bit]:
                        maximal = False
                        break
                    rest ^= bit
                if maximal and (lower is None or size < lower):
                    lower = size
            if sub == 0:
                break
            sub = (sub - 1) & fmask
        if lower:
            worst = max(worst, Fraction(upper, lower))
    return worst


def full_grid_entries(instance: ProblemInstance, spec, oracle) -> dict:
    """Reference fit: the oracle called at every point of the grid."""
    return {idx: oracle(instance, lam) for idx, lam in grid_points(spec)}


def ratio_ok(instance, value, optimum, bound) -> bool:
    """value within factor `bound` of optimum, in the instance's sense."""
    if instance.sense is Sense.MIN:
        return value <= bound * optimum
    return bound * value >= optimum


# ---------------------------------------------------------------------------
# random instance generators
# ---------------------------------------------------------------------------


def random_knapsack(rng: random.Random, n: int, K: int, cmax: int, *, zero_anchor=False):
    """Random knapsack instance; `zero_anchor` plants items forcing lambda_min = 0."""
    while True:
        items = []
        for _ in range(n):
            a = rng.randint(0, cmax)
            b = tuple(rng.randint(0, cmax) for _ in range(K))
            w = rng.randint(0, max(1, cmax // 2))
            items.append((a, b, w))
        if zero_anchor:
            for k in range(K):
                b = tuple(1 if j == k else 0 for j in range(K))
                items[k % n] = (0, b, items[k % n][2])
        budget = rng.randint(1, max(1, sum(it[2] for it in items) * 2 // 3))
        if all(a == 0 and all(v == 0 for v in b) for a, b, _ in items):
            continue
        try:
            return knapsack_instance(knapsack_data(items, budget, K))
        except Exception:
            continue


def random_cut(rng: random.Random, n: int, K: int, cmax: int, *, zero_anchor=False):
    """Random s-t graph with a guaranteed s->t path."""
    while True:
        arcs = []
        for v in range(n - 1):
            arcs.append((v, v + 1, rng.randint(0, cmax), tuple(rng.randint(0, cmax) for _ in range(K))))
        extra = rng.randint(0, 2 * n)
        for _ in range(extra):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            arcs.append((u, v, rng.randint(0, cmax), tuple(rng.randint(0, cmax) for _ in range(K))))
        if zero_anchor:
            for k in range(K):
                b = tuple(1 if j == k else 0 for j in range(K))
                arcs[k % len(arcs)] = (arcs[k % len(arcs)][0], arcs[k % len(arcs)][1], 0, b)
        if all(a == 0 and all(v == 0 for v in b) for _, _, a, b in arcs):
            continue
        try:
            return mincut_instance(cut_graph(n, arcs, 0, n - 1, K))
        except Exception:
            continue


def random_independence(rng: random.Random, n: int, K: int, cmax: int):
    """Random downward-closed family from a generator antichain."""
    while True:
        count = rng.randint(1, max(2, n))
        generators = []
        for _ in range(count):
            size = rng.randint(0, n)
            generators.append(rng.sample(range(n), size))
        elements = [
            (rng.randint(0, cmax), tuple(rng.randint(0, cmax) for _ in range(K)))
            for _ in range(n)
        ]
        if all(a == 0 and all(v == 0 for v in b) for a, b in elements):
            continue
        try:
            system = from_generators(n, generators, elements, K, declared_alpha=1)
            return independence_instance(system)
        except Exception:
            continue


def random_explicit(rng: random.Random, count: int, K: int, vmax: int, *, sense=Sense.MIN):
    """Explicit instance with values drawn from {0} U [1, vmax]."""
    from paramgrid.model import explicit_instance

    while True:
        records = []
        for i in range(count):
            F_vec = tuple(
                Fraction(rng.choice([0] + list(range(1, vmax + 1))))
                for _ in range(K + 1)
            )
            records.append(SolutionRecord(encoding=("explicit", f"s{i}"), F=F_vec))
        if all(all(v == 0 for v in rec.F) for rec in records):
            continue
        try:
            return explicit_instance(records, sense=sense, K=K)
        except Exception:
            continue


def random_lambda(rng: random.Random, instance: ProblemInstance, spread: int = 1000):
    """Random admissible parameter vector with small denominators."""
    return tuple(
        lm + Fraction(rng.randint(0, spread * 16), 16)
        for lm in instance.lambda_min
    )


@pytest.fixture
def rng():
    return random.Random(20240811)

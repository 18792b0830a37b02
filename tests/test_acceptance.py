"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every comparison is exact rational arithmetic; tolerances are the criteria's
own factors, nothing is loosened for floating point.  Run with ``pytest
tests/test_acceptance.py -s`` to see the per-criterion lines.
"""
import math
import random
from fractions import Fraction as F
from math import factorial

from paramgrid import (
    Oracle,
    OracleFamily,
    approximate,
    evaluate,
    lift_to_cone,
    query,
    threshold,
)
from paramgrid.model import ZERO
from paramgrid.oracle import ExhaustiveOracle
from paramgrid.fixtures import (
    check_appendix_example,
    check_appendix_proof,
    forced_cover_gadget,
)
from paramgrid.solvers import (
    greedy_solve,
    knapsack_scaling_solve,
    knapsack_solve,
    min_cut_solve,
    rank_quotient_exact,
)

from conftest import (
    augmented_evaluate,
    cone_member_exhaustive,
    in_cone,
    optimum_by_enumeration,
    random_cut,
    random_explicit,
    random_independence,
    random_knapsack,
    ratio_ok,
    reconstruct,
)


def report(criterion: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: end-to-end guarantee
# ---------------------------------------------------------------------------


def _probe_parameters(rng, inst, aset, count):
    """Anchor + far field + grid corners, cell interiors and random rays."""
    spec = aset.spec
    lams = [inst.lambda_min]
    for k in range(inst.K):
        lams.append(
            tuple(lm + (10**6 if i == k else 0) for i, lm in enumerate(inst.lambda_min))
        )
    while len(lams) < count:
        roll = rng.random()
        if roll < 0.15:
            lam = tuple(
                lm + spec.base ** rng.randint(spec.lb, spec.ub)
                for lm in inst.lambda_min
            )
        elif roll < 0.45:
            lam = tuple(
                lm
                + spec.base ** rng.randint(spec.lb, spec.ub - 1)
                * (1 + F(rng.randint(0, 16), 16) * (spec.base - 1))
                for lm in inst.lambda_min
            )
        elif roll < 0.9:
            lam = tuple(
                lm + F(rng.randint(0, 16_000_000), 16) for lm in inst.lambda_min
            )
        else:
            lam = tuple(
                lm + F(10) ** rng.randint(-6, 6) * F(rng.randint(1, 16), 8)
                for lm in inst.lambda_min
            )
        lams.append(lam)
    return lams


def _check_instance_guarantee(rng, inst, eps, oracle, samples):
    aset = approximate(inst, eps, oracle)
    bound = (1 + eps) * oracle.alpha
    assert aset.guarantee == bound
    reference = ExhaustiveOracle(inst)
    failures = 0
    lams = _probe_parameters(rng, inst, aset, samples)
    for lam in lams:
        rec = query(aset, inst, lam)
        value = evaluate(inst, rec, lam)
        _, opt = reference.optimum(lam)
        if not ratio_ok(inst, value, opt, bound):
            failures += 1
    # independent spot check of the fast optimum against plain enumeration
    for lam in lams[:6]:
        _, opt = reference.optimum(lam)
        assert opt == optimum_by_enumeration(inst, lam)
    return failures, len(lams), aset


def test_criterion_1_end_to_end_guarantee():
    rng = random.Random(101)
    failures = 0
    samples_total = 0
    runs = []

    # 50 knapsack instances (maximization), both K and both eps represented.
    for i in range(50):
        K = 1 if i % 5 < 3 else 2
        eps = F(1, 2) if i % 2 == 0 else F(1, 4)
        if K == 1:
            inst = random_knapsack(rng, n=4 + i % 9, K=1, cmax=20, zero_anchor=i % 4 == 0)
        elif eps == F(1, 2):
            inst = random_knapsack(rng, n=4 + i % 7, K=2, cmax=8, zero_anchor=i % 4 == 0)
        else:
            inst = random_knapsack(rng, n=4 + i % 3, K=2, cmax=4, zero_anchor=True)
        if i < 4 and K == 1 and eps == F(1, 2):
            oracle = Oracle(fn=knapsack_solve, alpha=F(1), name="knapsack-dp")
        else:
            oracle = Oracle(fn=ExhaustiveOracle(inst), alpha=F(1), name="scan")
        runs.append((inst, eps, oracle))

    # 30 minimum-cut instances (minimization).
    for i in range(30):
        K = 1 if i % 5 < 3 else 2
        eps = F(1, 2) if i % 2 == 0 else F(1, 4)
        if K == 1:
            inst = random_cut(rng, n=4 + i % 5, K=1, cmax=20, zero_anchor=i % 4 == 0)
        elif eps == F(1, 2):
            inst = random_cut(rng, n=4 + i % 4, K=2, cmax=6, zero_anchor=i % 4 == 0)
        else:
            inst = random_cut(rng, n=4, K=2, cmax=3, zero_anchor=True)
        if i < 4 and K == 1 and eps == F(1, 2):
            oracle = Oracle(fn=min_cut_solve, alpha=F(1), name="mincut-blocking-flow")
        else:
            oracle = Oracle(fn=ExhaustiveOracle(inst), alpha=F(1), name="scan")
        runs.append((inst, eps, oracle))

    eps_seen = set()
    k_seen = set()
    for inst, eps, oracle in runs:
        bad, n, _ = _check_instance_guarantee(rng, inst, eps, oracle, samples=1000)
        failures += bad
        samples_total += n
        eps_seen.add(eps)
        k_seen.add(inst.K)

    assert eps_seen == {F(1, 2), F(1, 4)} and k_seen == {1, 2}
    report(
        "1 end-to-end guarantee",
        failures == 0,
        f"{len(runs)} instances, {samples_total} sampled parameter vectors, "
        f"{failures} violations of the (1+eps) bound",
    )


# ---------------------------------------------------------------------------
# criterion 2: grid cardinality
# ---------------------------------------------------------------------------


def _cardinality_model(eps, lb_ub_ratio):
    e = float(eps)
    return (1 / e) * math.log(1 / e) + (1 / e) * math.log(lb_ub_ratio)


def test_criterion_2_grid_cardinality():
    rng = random.Random(202)
    ok = True
    details = []
    for K in (1, 2):
        inst = random_explicit(rng, count=8, K=K, vmax=10)
        ratio = float(inst.UB / inst.LB)
        spans = {}
        for eps in (F(1, 2), F(1, 4), F(1, 8)):
            aset = approximate(inst, eps)
            size = aset.spec.size
            span = aset.spec.span
            ok &= size == span**K and len(aset.entries) == size
            spans[eps] = span
        fit = spans[F(1, 2)] / _cardinality_model(F(1, 2), ratio)
        for eps, span in spans.items():
            predicted = fit * _cardinality_model(eps, ratio)
            ok &= predicted / 2 <= span <= predicted * 2
        details.append(f"K={K}: spans {[spans[e] for e in sorted(spans)]}")
    report("2 grid cardinality", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 3: lifting certificate
# ---------------------------------------------------------------------------


def _random_weight(rng, dim):
    out = []
    for _ in range(dim):
        roll = rng.random()
        if roll < 0.25:
            out.append(ZERO)
        elif roll < 0.6:
            out.append(F(rng.randint(1, 64), 64))
        else:
            out.append(F(rng.randint(1, 10**6), rng.randint(1, 100)))
    if all(v == 0 for v in out):
        out[rng.randrange(dim)] = F(1)
    return tuple(out)


def test_criterion_3_lifting_certificate():
    rng = random.Random(303)
    failures = 0
    for trial in range(10_000):
        K = rng.randint(1, 5)
        c = F(rng.randint(1, 199), 200)
        w = _random_weight(rng, K + 1)
        cert = lift_to_cone(w, c)
        good = cert.depth <= K
        good &= in_cone(cert.final, c)
        if K <= 4:
            good &= cone_member_exhaustive(cert.final, c)
        good &= reconstruct(cert) == w
        floor = c**K / factorial(K + 1)
        total = sum(cert.final)
        good &= all(v / total >= floor for v in cert.final)
        if not good:
            failures += 1
    report(
        "3 lifting certificate",
        failures == 0,
        f"10000 random weights (K<=5), {failures} certificate violations",
    )


# ---------------------------------------------------------------------------
# criterion 4: projection guarantee at boundary weights
# ---------------------------------------------------------------------------


def test_criterion_4_projection_guarantee():
    rng = random.Random(404)
    failures = 0
    for trial in range(1000):
        K = rng.randint(1, 3)
        inst = random_explicit(rng, count=rng.randint(2, 8), K=K, vmax=9)
        eps_prime = F(rng.randint(1, 15), 16)
        c = threshold(eps_prime, 1, inst.LB, inst.UB)
        dim = K + 1
        size = rng.randint(1, dim - 1)
        group = tuple(sorted(rng.sample(range(dim), size)))
        outside = [F(rng.randint(1, 64), 8) for _ in range(dim - size)]
        target = c * min(outside)
        split = [F(rng.randint(0, 16)) for _ in range(size)]
        total = sum(split)
        inside = (
            [target / size] * size
            if total == 0
            else [s / total * target for s in split]
        )
        w = [None] * dim
        for i, v in zip(group, inside):
            w[i] = v
        rest = iter(outside)
        for i in range(dim):
            if w[i] is None:
                w[i] = next(rest)
        w = tuple(w)

        recs = inst.payload.records
        best = min(recs, key=lambda r: (augmented_evaluate(r, w), r.encoding))
        proj = tuple(ZERO if i in group else v for i, v in enumerate(w))
        opt = min(augmented_evaluate(r, proj) for r in recs)
        val = augmented_evaluate(best, proj)
        if opt == 0:
            if val != 0:
                failures += 1
        elif val > (1 + eps_prime) * opt:
            failures += 1
    report(
        "4 projection guarantee",
        failures == 0,
        f"1000 explicit instances at boundary weights, {failures} violations",
    )


# ---------------------------------------------------------------------------
# criterion 5: forced-cover gadget facts
# ---------------------------------------------------------------------------


def test_criterion_5_forced_cover_gadget():
    ok = True
    details = []
    for beta in (F(3, 2), F(2), F(5)):
        for K in (1, 2, 3):
            gadget = forced_cover_gadget(beta, K)
            allround = gadget.record("x")
            spikes = [gadget.record(f"x{i}") for i in range(K + 1)]
            scale = beta.denominator
            f_all = [int(v * scale) for v in allround.F]
            f_spikes = [[int(v * scale) for v in s.F] for s in spikes]

            rng = random.Random(505)
            never_optimal = True
            within_beta = True
            for _ in range(10_000):
                w = [rng.randint(0, 720) for _ in range(K + 1)]
                if not any(w):
                    w[rng.randrange(K + 1)] = 1
                val_all = sum(wi * fi for wi, fi in zip(w, f_all))
                val_best = min(
                    sum(wi * fi for wi, fi in zip(w, fs)) for fs in f_spikes
                )
                never_optimal &= val_best < val_all
                within_beta &= (
                    beta.denominator * val_all <= beta.numerator * val_best
                )
            ok &= never_optimal and within_beta

            # at each spike's witness, only its own spike is within beta of
            # the spikes' minimum, so every cover of the witnesses needs all K + 1
            needed = 0
            for i, w in enumerate(gadget.witnesses["spike"]):
                d = math.lcm(*(v.denominator for v in w))
                w_int = [int(v * d) for v in w]
                values = [sum(wi * fi for wi, fi in zip(w_int, fs)) for fs in f_spikes]
                best = min(values)
                within = [
                    j for j, v in enumerate(values)
                    if beta.denominator * v <= beta.numerator * best
                ]
                needed += within == [i]
            ok &= needed == K + 1
            details.append(f"beta={beta},K={K}:needed={needed}")
    report(
        "5 forced-cover gadget",
        ok,
        "10000 weights per combination; " + " ".join(details),
    )


# ---------------------------------------------------------------------------
# criterion 6: published-example and corrected-chain fixtures
# ---------------------------------------------------------------------------


def test_criterion_6_appendix_fixtures():
    example = check_appendix_example(F(2), F(5), samples=10_000, seed=606)
    chain = check_appendix_proof(F(2), F(5), 4)
    ok = example.passed and chain.passed
    detail = (
        "example facts: "
        + ", ".join(f"{f.name}={'ok' if f.passed else 'FAIL'}" for f in example.facts)
        + "; chain facts: "
        + ", ".join(f"{f.name}={'ok' if f.passed else 'FAIL'}" for f in chain.facts)
    )
    report("6 appendix fixtures", ok, detail)


# ---------------------------------------------------------------------------
# criterion 7: solver exactness
# ---------------------------------------------------------------------------


def test_criterion_7_solver_exactness():
    rng = random.Random(707)
    failures = 0

    cut_checks = 0
    for _ in range(30):
        inst = random_cut(rng, n=rng.randint(4, 8), K=rng.choice([1, 2]), cmax=12)
        for _ in range(100):
            lam = tuple(
                lm + F(rng.randint(0, 400), 8) for lm in inst.lambda_min
            )
            got = evaluate(inst, min_cut_solve(inst, lam), lam)
            if got != optimum_by_enumeration(inst, lam):
                failures += 1
            cut_checks += 1

    knap_checks = 0
    for n in (15, 12, 9, 6):
        inst = random_knapsack(rng, n=n, K=rng.choice([1, 2]), cmax=12)
        for _ in range(5 if n == 15 else 12):
            lam = tuple(lm + F(rng.randint(0, 200), 8) for lm in inst.lambda_min)
            got = evaluate(inst, knapsack_solve(inst, lam), lam)
            if got != optimum_by_enumeration(inst, lam):
                failures += 1
            knap_checks += 1

    greedy_checks = 0
    for i in range(50):
        inst = random_independence(rng, n=4 + i % 7, K=rng.choice([1, 2]), cmax=9)
        q = rank_quotient_exact(inst.payload)
        for _ in range(5):
            lam = tuple(lm + F(rng.randint(0, 100), 8) for lm in inst.lambda_min)
            got = evaluate(inst, greedy_solve(inst, lam), lam)
            opt = optimum_by_enumeration(inst, lam)
            if q * got < opt:
                failures += 1
            greedy_checks += 1

    report(
        "7 solver exactness",
        failures == 0,
        f"cut {cut_checks}, knapsack {knap_checks}, greedy {greedy_checks} checks; "
        f"{failures} mismatches",
    )


# ---------------------------------------------------------------------------
# criterion 8: scheme composition via the accuracy split
# ---------------------------------------------------------------------------


def test_criterion_8_scheme_composition():
    rng = random.Random(808)
    eps = F(21, 100)

    def make(delta):
        accuracy = delta / (1 + delta)
        return Oracle(
            fn=lambda instance, lam: knapsack_scaling_solve(instance, lam, accuracy),
            alpha=1 + delta,
            name=f"knapsack-scaling@{delta}",
        )

    family = OracleFamily(make=make, name="knapsack-scaling")
    failures = 0
    checks = 0
    for _ in range(3):
        inst = random_knapsack(rng, n=rng.randint(4, 8), K=1, cmax=10)
        aset = approximate(inst, eps, family)
        assert aset.eps == F(42, 421) and aset.alpha == F(463, 421)
        assert aset.guarantee == F(463, 421) ** 2 <= F(121, 100)
        for lam in _probe_parameters(rng, inst, aset, 400):
            rec = query(aset, inst, lam)
            value = evaluate(inst, rec, lam)
            opt = optimum_by_enumeration(inst, lam)
            if not ratio_ok(inst, value, opt, aset.guarantee):
                failures += 1
            checks += 1
    report(
        "8 scheme composition",
        failures == 0,
        f"accuracy-split runs at eps=21/100 (delta=42/421), {checks} queries, "
        f"{failures} ratios above (463/421)^2",
    )

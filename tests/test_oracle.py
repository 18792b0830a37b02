import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F

import pytest

import paramgrid
from paramgrid import (
    GridSpec,
    approximate,
    SolutionRecord,
    Sense,
    enumerate_solutions,
    evaluate,
    explicit_instance,
    query,
    sample_parameters_labeled,
    verify_approximation_set,
    verify_on_weights,
    weight_from_lambda,
)
from paramgrid.errors import InvalidInstanceError, TooLargeError
from paramgrid.model import ProblemInstance, _clear_denominators
from paramgrid.oracle import ExhaustiveOracle, instance_solution
from paramgrid.solvers import (
    cut_graph,
    from_generators,
    independence_instance,
    knapsack_data,
    knapsack_instance,
    knapsack_solve,
    min_cut_solve,
    mincut_instance,
)

from conftest import (
    augmented_evaluate,
    cut_walk_reference,
    optimum_by_enumeration,
    optimum_by_enumeration_weight,
    random_cut,
    random_explicit,
    random_independence,
    random_knapsack,
    random_lambda,
    subset_walk_reference,
)


def toy_knapsack():
    return knapsack_instance(
        knapsack_data([(3, (1,), 2), (2, (4,), 2)], budget=2, K=1), lambda_min=[0]
    )


def rec(name, *values):
    return SolutionRecord(encoding=("explicit", name), F=tuple(F(v) for v in values))


class TestBruteForce:
    def test_toy_knapsack(self):
        x, val = ExhaustiveOracle(toy_knapsack()).optimum([F(1)])
        assert x.encoding == ("items", (1,))
        assert val == 6

    def test_single_solution(self):
        inst = explicit_instance([rec("only", 2, 1)], K=1)
        x, val = ExhaustiveOracle(inst).optimum([F(0)])
        assert x.encoding == ("explicit", "only")
        assert val == 2

    def test_path_cut(self):
        inst = mincut_instance(cut_graph(3, [(0, 1, 3, (0,)), (1, 2, 1, (1,))], 0, 2, 1))
        x, val = ExhaustiveOracle(inst).optimum([F(1)])
        assert x.encoding == ("cut", (0, 1))
        assert val == 2

    def test_too_large_guard(self, rng):
        inst = random_cut(rng, n=5, K=1, cmax=3)
        object.__setattr__(inst.payload, "n", 11)  # force past the guard
        with pytest.raises(TooLargeError):
            enumerate_solutions(inst)


def path_cut(n):
    return mincut_instance(cut_graph(n, [(v, v + 1, 1, (1,)) for v in range(n - 1)], 0, n - 1, 1))


def unit_knapsack(n, budget=1):
    return knapsack_instance(knapsack_data([(1, (1,), 1)] * n, budget=budget, K=1))


def pair_system(n, generators=((0, 1),)):
    return independence_instance(from_generators(n, generators, [(1, (1,))] * n, 1))


class TestEnumeration:
    @pytest.mark.parametrize(
        "make, cap, count, message",
        [
            (path_cut, 10, 2**8, "cut enumeration needs n <= 10"),
            (unit_knapsack, 15, 16, "subset enumeration needs n <= 15"),
            (pair_system, 15, 4, "independent-set enumeration needs n <= 15"),
        ],
        ids=["mincut", "knapsack", "independence"],
    )
    def test_cap(self, make, cap, count, message):
        assert len(enumerate_solutions(make(cap))) == count
        with pytest.raises(TooLargeError) as info:
            enumerate_solutions(make(cap + 1))
        assert str(info.value) == message

    def test_mask_order(self):
        # bit i of the mask is element i; masks count up from the empty set
        knapsack = enumerate_solutions(unit_knapsack(3, budget=2))
        assert [r.encoding[1] for r in knapsack] == [(), (0,), (1,), (0, 1), (2,), (0, 2), (1, 2)]
        assert knapsack[0].encoding == ("items", ())
        system = enumerate_solutions(pair_system(3, [(0, 1), (2,)]))
        assert [r.encoding for r in system] == [
            ("elements", ()), ("elements", (0,)), ("elements", (1,)),
            ("elements", (0, 1)), ("elements", (2,)),
        ]

    def test_cut_walk_matches_the_reference(self):
        # s and t anywhere: their mask bits are fixed, so the other vertices' masks set the order
        rng = random.Random(28)
        for n in range(3, 9):
            for _ in range(4):
                s, t = rng.sample(range(n), 2)
                order = rng.sample(range(n), n)
                arcs = [(u, v, rng.randint(1, 5), (rng.randint(0, 3),))
                        for u, v in zip(order, order[1:])]
                arcs += [(u, v, rng.randint(0, 5), (rng.randint(0, 3),))
                         for u, v in (rng.sample(range(n), 2) for _ in range(n))]
                inst = mincut_instance(cut_graph(n, arcs, s, t, 1))
                assert enumerate_solutions(inst) == cut_walk_reference(inst)
                assert len(enumerate_solutions(inst)) == 2 ** (n - 2)

    def test_subset_walk_matches_the_reference(self):
        rng = random.Random(28)
        for _ in range(6):
            for inst in (random_knapsack(rng, n=8, K=2, cmax=6),
                         random_independence(rng, n=7, K=1, cmax=6)):
                assert enumerate_solutions(inst) == subset_walk_reference(inst)

    def test_unknown_payload(self):
        # no enumeration, and no solution of it can be rebuilt: a schema error, not exit 7
        inst = ProblemInstance(Sense.MIN, 1, (F(0),), F(1), F(1), payload=object())
        with pytest.raises(TooLargeError, match="cannot enumerate payload type object"):
            enumerate_solutions(inst)
        with pytest.raises(InvalidInstanceError, match="is not a solution of the instance"):
            instance_solution(inst, SolutionRecord(("items", (0,)), (F(1), F(1))))

    def test_members_checked_one_by_one(self):
        # a cut's ground set is its declared vertex count: a set of all 10^9 of
        # them would need about 70 GB, so the rebuild must not build one
        script = textwrap.dedent("""
            import resource
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))
            from paramgrid.oracle import instance_solution
            from paramgrid.solvers import cut_graph, cut_record, mincut_instance
            arcs = [(0, 1, 1, (1,)), (1, 2, 2, (0,)), (0, 2, 3, (1,))]
            inst = mincut_instance(cut_graph(10**9, arcs, 0, 2, 1))
            rec = cut_record(inst, {0, 1})
            assert instance_solution(inst, rec) == rec
            print(rec.encoding)
        """)
        src = os.path.dirname(os.path.dirname(paramgrid.__file__))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=20, env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stdout) == (0, "('cut', (0, 1))\n"), proc.stderr


class TestOneScan:
    """Every exact optimum search runs the same integer scan over
    ``ExhaustiveOracle``'s rows; it must agree with plain Fraction enumeration."""

    def instances(self, rng):
        for _ in range(4):
            yield random_cut(rng, n=5, K=rng.choice([1, 2]), cmax=6)
            yield random_knapsack(rng, n=6, K=rng.choice([1, 2]), cmax=6)
            yield random_independence(rng, n=5, K=rng.choice([1, 2]), cmax=6)
            for sense in (Sense.MIN, Sense.MAX):
                yield random_explicit(rng, count=10, K=rng.choice([1, 2]), vmax=4, sense=sense)

    def test_agrees_with_enumeration(self, rng):
        senses = set()
        for inst in self.instances(rng):
            senses.add(inst.sense)
            records = enumerate_solutions(inst)
            exhaustive = ExhaustiveOracle(inst)
            for _ in range(6):
                lam = random_lambda(rng, inst, spread=20)
                opt = optimum_by_enumeration(inst, lam)
                x, val = exhaustive.optimum(lam)
                assert val == opt == evaluate(inst, x, lam)

                w = tuple(F(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(inst.K + 1))
                if rng.random() < 0.5:
                    w = (F(0), *w[1:])
                wopt = optimum_by_enumeration_weight(inst, w)
                ints, q = _clear_denominators(w)
                assert F(exhaustive._argbest(ints)[1], q * exhaustive._scale) == wopt

                probe = rng.choice(records)
                value = augmented_evaluate(probe, w)
                report = verify_on_weights(inst, [probe], F(1), [w])
                assert report.passed == (value == wopt)
                if value != 0 and wopt != 0:
                    ratio = value / wopt if inst.sense is Sense.MIN else wopt / value
                    assert report.worst_ratio == ratio
        assert senses == {Sense.MIN, Sense.MAX}

    def test_exhaustive_oracle_tie_pick(self):
        # The pruned scan keeps rows sorted for the sense (negated for MAX),
        # so at the four-way tie lambda = 1 it answers the row sorting first.
        records = [rec("late", 3, 1), rec("tie-a", 2, 2), rec("tie-b", 2, 2), rec("low", 1, 3)]
        for sense, name in ((Sense.MIN, "low"), (Sense.MAX, "late")):
            inst = explicit_instance(records, K=1, sense=sense)
            x, val = ExhaustiveOracle(inst).optimum([F(1)])
            assert (x.encoding, val) == (("explicit", name), F(4))


class TestParetoPrune:
    def test_optimum_preserved(self, rng):
        for sense in (Sense.MIN, Sense.MAX):
            for _ in range(25):
                inst = random_explicit(rng, count=12, K=2, vmax=8, sense=sense)
                scan = ExhaustiveOracle(inst)
                pruned = scan._kept
                for _ in range(10):
                    lam = random_lambda(rng, inst, spread=40)
                    _, fast = scan.optimum(lam)
                    assert fast == optimum_by_enumeration(inst, lam)
                    from paramgrid import evaluate

                    vals = [evaluate(inst, r, lam) for r in pruned]
                    best = min(vals) if sense is Sense.MIN else max(vals)
                    assert best == fast


class TestSampling:
    def test_first_sample_is_anchor(self):
        inst = toy_knapsack()
        spec = GridSpec(F(1, 10), 1, F(1, 2), inst.lambda_min)
        assert sample_parameters_labeled(inst, spec, 1, seed=3) == [("lambda-min", inst.lambda_min)]

    def test_every_grid_point_when_half_the_budget_holds_them(self):
        inst = toy_knapsack()
        spec = GridSpec(F(9, 10), 1, F(1, 2), inst.lambda_min)
        # the anchor and three far-field spikes come first
        n = 4 + 2 * spec.size
        probed = [lam for label, lam in sample_parameters_labeled(inst, spec, n, seed=0)
                  if label == "grid-point"]
        assert probed == [spec.point(idx) for idx in spec.indices()]

    def test_deterministic_under_seed(self):
        inst = toy_knapsack()
        spec = GridSpec(F(1, 10), 1, F(1, 2), inst.lambda_min)
        a = sample_parameters_labeled(inst, spec, 100, seed=9)
        b = sample_parameters_labeled(inst, spec, 100, seed=9)
        assert a == b
        c = sample_parameters_labeled(inst, spec, 100, seed=10)
        assert a != c

    def test_far_field_present(self):
        inst = toy_knapsack()
        spec = GridSpec(F(1, 10), 1, F(1, 2), inst.lambda_min)
        labels = {label for label, _ in sample_parameters_labeled(inst, spec, 50, seed=0)}
        assert {"lambda-min", "far-field", "grid-point"} <= labels

    def test_samples_stay_in_domain(self, rng):
        inst = random_knapsack(rng, n=5, K=2, cmax=9)
        spec = GridSpec(F(1, 20), 2, F(1, 2), inst.lambda_min)
        for _, lam in sample_parameters_labeled(inst, spec, 200, seed=1):
            assert all(v >= lo for v, lo in zip(lam, inst.lambda_min))


class TestVerify:
    def test_full_set_passes_at_any_beta(self, rng):
        inst = random_knapsack(rng, n=5, K=1, cmax=9)
        spec = GridSpec(F(1, 10), 1, F(1, 2), inst.lambda_min)
        samples = sample_parameters_labeled(inst, spec, 60, seed=2)
        weights = [weight_from_lambda(lam, inst.lambda_min) for _, lam in samples]
        report = verify_on_weights(inst, enumerate_solutions(inst), F(1), weights)
        assert report.passed
        assert report.worst_ratio == 1
        assert report.strategies["weights"].samples == 60

    def test_truncated_set_fails(self):
        inst = toy_knapsack()
        spec = GridSpec(F(1, 10), 1, F(1, 2), inst.lambda_min)
        samples = sample_parameters_labeled(inst, spec, 60, seed=2)
        weights = [weight_from_lambda(lam, inst.lambda_min) for _, lam in samples]
        # keep only the low-parameter solution; far field then degrades
        only_first = [r for r in enumerate_solutions(inst) if r.encoding == ("items", (0,))]
        report = verify_on_weights(inst, only_first, F(3, 2), weights)
        assert not report.passed
        assert report.worst_ratio > F(3, 2)

    @pytest.mark.parametrize(
        "K, sample",
        [(1, (F(1, 2),)), (2, ("1/2", "3")), (2, (F(1, 2), F(3)))],
        ids=["bare-k1-vector", "k2-string-vector", "k2-fraction-vector"],
    )
    def test_sample_must_be_labeled(self, K, sample):
        inst = explicit_instance([rec("only", *range(1, K + 2))], K=K)
        aset = approximate(inst, F(1, 2))
        with pytest.raises(InvalidInstanceError, match=r"\(label, lambda vector\) pair"):
            verify_approximation_set(inst, aset, F(1), [sample])

    def test_swapped_cells_fail(self):
        # The pool still holds each optimum, but every cell names the other
        # solution; verify checks what query answers, so the set fails.
        inst = knapsack_instance(knapsack_data([(9, (1,), 2), (1, (9,), 2)], budget=2, K=1))
        aset = approximate(inst, F(1, 2))
        samples = sample_parameters_labeled(inst, aset.spec, 50)
        assert verify_approximation_set(inst, aset, aset.guarantee, samples).passed
        x, y = aset.solutions
        other = {x: y, y: x}
        aset.entries = {idx: other[r] for idx, r in aset.entries.items()}
        report = verify_approximation_set(inst, aset, F(1), samples)
        assert not report.passed
        assert report.worst_ratio > 60

    def test_foreign_answers_refused(self):
        # Every solution keeps its encoding but claims F = (10^6, 10^6); the
        # answers are valued from the instance's own rows, so the set is refused.
        inst = knapsack_instance(knapsack_data([(9, (1,), 2), (1, (9,), 2)], budget=2, K=1))
        aset = approximate(inst, F(1, 2))
        samples = sample_parameters_labeled(inst, aset.spec, 50)
        tampered = {r.encoding: SolutionRecord(r.encoding, (F(10**6), F(10**6)))
                    for r in aset.solutions}
        aset.solutions = tuple(tampered.values())
        aset.entries = {idx: tampered[r.encoding] for idx, r in aset.entries.items()}
        with pytest.raises(InvalidInstanceError, match=r"F = \(1000000, 1000000\) is not a solution"):
            verify_approximation_set(inst, aset, F(1), samples)

    @pytest.mark.parametrize(
        "stranger",
        [rec("x", 1, 2), rec("z", 1, 3), SolutionRecord(("items", (7,)), (F(1), F(1)))],
        ids=["other-F", "unknown-id", "other-encoding"],
    )
    def test_foreign_pool_member_refused(self, stranger):
        inst = explicit_instance([rec("x", 1, 3), rec("y", 2, 1)], K=1)
        assert verify_on_weights(inst, [rec("x", 1, 3)], F(3), [(F(1), F(1))]).passed
        with pytest.raises(InvalidInstanceError, match="is not a solution of the instance"):
            verify_on_weights(inst, [rec("x", 1, 3), stranger], F(3), [(F(1), F(1))])

    @pytest.mark.parametrize("sense", [Sense.MIN, Sense.MAX], ids=["min", "max"])
    @pytest.mark.parametrize("K", [1, 2])
    @pytest.mark.parametrize("scrambled", [False, True], ids=["fitted", "scrambled"])
    def test_matches_fraction_reference(self, sense, K, scrambled):
        # Rational components give the answer rows and the reference rows
        # different cleared scales.  The optimum is 0 at lambda_min: MIN
        # gets a record with a zero objective there, and every MAX record
        # starts at 0.  The scrambled set answers each cell with a seeded
        # random record, so ratios above 1 and hard failures show up too.
        rng = random.Random(40 + K)
        records = [
            rec(f"s{i}", *(F(rng.randint(0, 30), rng.randint(1, 7)) for _ in range(K + 1)))
            for i in range(8)
        ]
        if sense is Sense.MIN:
            records.append(rec("zero", 0, *([9] * K)))
        else:
            records = [SolutionRecord(r.encoding, (F(0), *r.F[1:])) for r in records]
        inst = explicit_instance(records, sense=sense, K=K)
        aset = approximate(inst, F(1, 2))
        if scrambled:
            aset.solutions = tuple(records)
            aset.entries = {idx: rng.choice(records) for idx in aset.entries}
        samples = sample_parameters_labeled(inst, aset.spec, 150, seed=K)
        samples.append(("optimum-zero", inst.lambda_min))
        assert optimum_by_enumeration(inst, inst.lambda_min) == 0
        report = verify_approximation_set(inst, aset, aset.guarantee, samples)

        worst, worst_point, hard, per_label = None, None, 0, {}
        for label, lam in samples:
            value = evaluate(inst, query(aset, inst, lam), lam)
            opt = optimum_by_enumeration(inst, lam)
            if sense is Sense.MAX:
                value, opt = opt, value  # the ratio is opt / value
            per_label.setdefault(label, None)
            if opt == 0 and value != 0:
                hard += 1
                worst_point = lam
                continue
            ratio = F(1) if opt == 0 else value / opt
            if worst is None or ratio > worst:
                worst, worst_point = ratio, lam
            if per_label[label] is None or ratio > per_label[label]:
                per_label[label] = ratio
        assert report.worst_ratio == worst
        assert report.worst_point == worst_point
        assert report.hard_failures == hard
        assert {label: s.worst_ratio for label, s in report.strategies.items()} == per_label
        assert report.passed == (hard == 0 and worst <= aset.guarantee)

    def test_lone_spike_fails_at_opposite_axis(self):
        # Keeping only one spike of the forced-cover gadget fails at the
        # other axis' unit weight.
        from paramgrid.fixtures import forced_cover_gadget

        gadget = forced_cover_gadget(F(2), 1)
        report = verify_on_weights(
            gadget.instance, [gadget.record("x0")], F(2), [(F(0), F(1))]
        )
        assert not report.passed
        assert report.worst_ratio == F(5, 2)

    def test_zero_ratio_conventions(self):
        # optimum 0 with set-best 0 counts as ratio one; optimum 0 with a
        # positive set-best is a hard failure.
        zero = rec("zero", 0, 0)
        one = rec("one", 2, 2)
        inst = explicit_instance([zero, one], K=1)
        ok = verify_on_weights(inst, [zero], F(1), [(F(1), F(1)), (F(1), F(0))])
        assert ok.passed and ok.worst_ratio == 1
        bad = verify_on_weights(inst, [one], F(100), [(F(1), F(1))])
        assert not bad.passed and bad.hard_failures == 1


class TestOracleAgreement:
    def test_structured_solvers_match_enumeration(self, rng):
        for make, solver in ((random_cut, min_cut_solve), (random_knapsack, knapsack_solve)):
            for _ in range(10):
                inst = make(rng, 5, rng.choice([1, 2]), 8)
                for _ in range(8):
                    lam = random_lambda(rng, inst, spread=25)
                    from paramgrid import evaluate

                    assert evaluate(inst, solver(inst, lam), lam) == optimum_by_enumeration(inst, lam)

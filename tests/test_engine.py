import cProfile
import fractions
import pstats
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from paramgrid import (
    DomainError,
    EpsilonRangeError,
    GridCapError,
    Oracle,
    OracleFamily,
    Sense,
    SolutionRecord,
    approximate,
    default_oracle,
    evaluate,
    explicit_instance,
    lift_to_cone,
    query,
    weight_from_lambda,
)
from paramgrid.errors import OracleError, size_text
from paramgrid.fixtures import forced_cover_gadget
from paramgrid.oracle import ExhaustiveOracle, enumerate_solutions
from paramgrid.solvers import (
    greedy_solve,
    knapsack_data,
    knapsack_instance,
    knapsack_scaling_solve,
    rank_quotient_exact,
)

from conftest import (
    full_grid_entries,
    optimum_by_enumeration,
    random_cut,
    random_explicit,
    random_independence,
    random_knapsack,
    random_lambda,
    ratio_ok,
)


def single_solution_instance():
    rec = SolutionRecord(encoding=("explicit", "only"), F=(F(2), F(1)))
    return explicit_instance([rec], K=1)


def toy_knapsack():
    return knapsack_instance(
        knapsack_data([(3, (1,), 2), (2, (4,), 2)], budget=2, K=1), lambda_min=[0]
    )


class TestApproximate:
    def test_single_solution_everywhere(self):
        inst = single_solution_instance()
        aset = approximate(inst, F(1, 2))
        assert len(aset.solutions) == 1
        assert all(rec.encoding == ("explicit", "only") for rec in aset.entries.values())
        assert len(aset.entries) == aset.spec.size == aset.spec.span

    def test_toy_knapsack_sweep(self, rng):
        inst = toy_knapsack()
        aset = approximate(inst, F(1, 2))
        assert aset.guarantee == F(3, 2)
        for _ in range(60):
            lam = random_lambda(rng, inst, spread=500)
            best = max(evaluate(inst, rec, lam) for rec in aset.solutions)
            opt = optimum_by_enumeration(inst, lam)
            assert ratio_ok(inst, best, opt, aset.guarantee)

    def test_gadget_never_collects_allround(self):
        gadget = forced_cover_gadget(F(2), 1)
        aset = approximate(gadget.instance, F(1, 2))
        assert ("explicit", "x") not in {rec.encoding for rec in aset.solutions}

    def test_rejects_eps_out_of_range(self):
        inst = single_solution_instance()
        with pytest.raises(EpsilonRangeError):
            approximate(inst, F(3, 2))
        with pytest.raises(EpsilonRangeError):
            approximate(inst, F(0))

    def test_grid_cap(self):
        inst = single_solution_instance()
        with pytest.raises(GridCapError):
            approximate(inst, F(1, 100), grid_cap=10)

    def test_size_text(self):
        # decimal up to 64 bits; past that by bit length, since str() fails past 4,300 digits
        assert size_text(7) == "7"
        assert size_text(2**64 - 1) == "18446744073709551615"
        assert size_text(2**64) == "at least 2^64"
        assert size_text(10**5000) == f"at least 2^{(10**5000).bit_length() - 1}"

    def test_oracle_failure_carries_lambda(self):
        inst = single_solution_instance()

        def broken(instance, lam):
            raise ValueError("boom")

        with pytest.raises(OracleError) as err:
            approximate(inst, F(1, 2), Oracle(fn=broken, alpha=F(1)))
        assert err.value.lam is not None

    def test_oracle_failure_message(self):
        # lambda reads as rationals; a cause with an empty message is named by its type
        def broken(instance, lam):
            raise ValueError()

        with pytest.raises(OracleError) as err:
            approximate(single_solution_instance(), F(1, 2), Oracle(fn=broken, alpha=F(1)))
        (lam,) = err.value.lam
        shown = f"{lam.numerator}/{lam.denominator}"
        assert str(err.value) == f"oracle failed at lambda=({shown}): ValueError"

    def test_oracle_call_count_is_measured(self):
        inst = toy_knapsack()
        calls = 0
        inner = ExhaustiveOracle(inst)

        def counting(instance, lam):
            nonlocal calls
            calls += 1
            return inner(instance, lam)

        aset = approximate(inst, F(1, 2), Oracle(fn=counting, alpha=F(1)))
        assert calls == aset.oracle_calls
        assert calls < aset.spec.size  # 7 of 37 points: boxes with agreeing corners are filled

    def test_determinism(self):
        inst = toy_knapsack()
        a = approximate(inst, F(1, 2))
        b = approximate(inst, F(1, 2))
        assert a.entries == b.entries
        assert a.solutions == b.solutions
        assert a.c == b.c and a.spec == b.spec

    def test_output_size_bound(self):
        inst = toy_knapsack()
        aset = approximate(inst, F(1, 2))
        assert len(aset.solutions) <= aset.spec.size


class TestBoxFilling:
    """Box filling against the full-grid reference: every entry certified at
    its point, the reference's answer wherever the optimum is unique, and no
    point solved twice."""

    def cases(self, rng):
        for K, eps in ((1, F(1, 8)), (2, F(9, 10))):
            for _ in range(2):
                yield random_cut(rng, n=5, K=K, cmax=4), None, eps
                yield random_knapsack(rng, n=5, K=K, cmax=4), None, eps
                for sense in (Sense.MIN, Sense.MAX):
                    yield random_explicit(rng, count=8, K=K, vmax=4, sense=sense), None, eps
                # greedy is only rank-quotient approximate on these systems
                inst = random_independence(rng, n=5, K=K, cmax=4)
                alpha = rank_quotient_exact(inst.payload)
                yield inst, Oracle(fn=greedy_solve, alpha=alpha, name="greedy"), eps

    def test_matches_full_grid_reference(self, rng):
        senses, calls, points = set(), 0, 0
        for inst, oracle, eps in self.cases(rng):
            oracle = oracle or default_oracle(inst)
            aset = approximate(inst, eps, oracle)
            reference = full_grid_entries(inst, aset.spec, oracle)
            assert aset.entries.keys() == reference.keys()
            # set files store the cells in this order
            assert list(aset.entries) == list(aset.spec.indices())
            records = enumerate_solutions(inst)
            pick = min if inst.sense is Sense.MIN else max
            for idx, rec in aset.entries.items():
                lam = aset.spec.point(idx)
                values = [evaluate(inst, r, lam) for r in records]
                opt = pick(values)
                assert ratio_ok(inst, evaluate(inst, rec, lam), opt, aset.alpha)
                if oracle.alpha == 1 and values.count(opt) == 1:
                    assert rec.encoding == reference[idx].encoding
            senses.add(inst.sense)
            calls += aset.oracle_calls
            points += aset.spec.size
        assert senses == {Sense.MIN, Sense.MAX}
        assert calls < points

    def test_distinct_answers_solve_every_point_once(self):
        inst = explicit_instance(
            [SolutionRecord(encoding=("explicit", "only"), F=(F(2), F(1), F(3)))], K=2
        )
        seen = []

        def distinct(instance, lam):
            seen.append(lam)
            return SolutionRecord(encoding=("explicit", str(lam)), F=(F(1),) * 3)

        aset = approximate(inst, F(1, 2), Oracle(fn=distinct, alpha=F(1)))
        assert len(seen) == len(set(seen)) == aset.spec.size == aset.oracle_calls
        assert len(aset.solutions) == aset.spec.size
        for idx, rec in aset.entries.items():
            assert rec.encoding == ("explicit", str(aset.spec.point(idx)))

    def test_grid_cap_checked_before_any_oracle_call(self):
        seen = []

        def counting(instance, lam):
            seen.append(lam)
            return SolutionRecord(encoding=("explicit", "only"), F=(F(2), F(1)))

        with pytest.raises(GridCapError):
            approximate(
                single_solution_instance(), F(1, 100), Oracle(fn=counting, alpha=F(1)), grid_cap=10
            )
        assert seen == []

    def test_peak_memory_is_about_one_table(self):
        # one solution fills the whole grid from its corners, so the table
        # is nearly all the fit allocates; both sizes come from one process
        rec = SolutionRecord(encoding=("explicit", "only"), F=(F(2), F(1), F(3)))
        inst = explicit_instance([rec], K=2)
        spec = approximate(inst, F(1, 4)).spec
        assert spec.size == 21_025
        tracemalloc.start()
        try:
            table = dict.fromkeys(spec.indices())
            table_bytes = tracemalloc.get_traced_memory()[0]
            del table
            tracemalloc.stop()
            tracemalloc.start()
            approximate(inst, F(1, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * table_bytes


class TestQuery:
    def test_single_solution(self):
        inst = single_solution_instance()
        aset = approximate(inst, F(1, 2))
        assert query(aset, inst, (F(0),)).encoding == ("explicit", "only")

    def test_anchor_and_far_field(self, rng):
        for _ in range(8):
            inst = random_knapsack(rng, n=6, K=rng.choice([1, 2]), cmax=8)
            aset = approximate(inst, F(1, 2))
            probes = [inst.lambda_min, tuple(lm + 10**6 for lm in inst.lambda_min)]
            for k in range(inst.K):
                probes.append(
                    tuple(
                        lm + (10**6 if i == k else 0)
                        for i, lm in enumerate(inst.lambda_min)
                    )
                )
            for _ in range(10):
                probes.append(random_lambda(rng, inst, spread=200))
            for lam in probes:
                rec = query(aset, inst, lam)
                opt = optimum_by_enumeration(inst, lam)
                assert ratio_ok(inst, evaluate(inst, rec, lam), opt, aset.guarantee)

    def test_rejects_lambda_below_domain(self):
        inst = single_solution_instance()
        aset = approximate(inst, F(1, 2))
        with pytest.raises(DomainError):
            query(aset, inst, (F(-1),))

    def test_runs_on_integers(self):
        # The lift and the snap run on integers: at most K Fraction
        # constructions per query, in-core or lifted, for Fraction input.
        rng = random.Random(12)
        inst = random_explicit(rng, count=8, K=2, vmax=9)
        aset = approximate(inst, F(1, 2))
        in_core = [
            tuple(lm + F(rng.randint(4, 16), 8) for lm in inst.lambda_min) for _ in range(200)
        ]
        lifted = [
            tuple(lm + F(rng.randint(10, 99), 10) * F(10) ** rng.choice([-6, 6])
                  for lm in inst.lambda_min)
            for _ in range(200)
        ]
        probes = in_core + lifted
        depths = [
            lift_to_cone(weight_from_lambda(lam, inst.lambda_min), aset.c).depth for lam in probes
        ]
        assert not any(depths[:200]) and all(depths[200:])
        profile = cProfile.Profile()
        profile.enable()
        for lam in probes:
            query(aset, inst, lam)
        profile.disable()
        new = sum(
            calls
            for (path, _line, func), (_cc, calls, *_rest) in pstats.Stats(profile).stats.items()
            if path == fractions.__file__ and func == "__new__"
        )
        assert new <= inst.K * len(probes)


class TestGuarantee:
    def test_fixed_oracle(self):
        inst = single_solution_instance()
        assert approximate(inst, F(1, 2)).guarantee == F(3, 2)
        two = approximate(inst, F(1, 2), Oracle(fn=ExhaustiveOracle(inst), alpha=F(2)))
        assert two.guarantee == F(3)

    @settings(max_examples=50, deadline=None)
    @given(
        eps=st.fractions(min_value=0, max_value=1, max_denominator=64).filter(
            lambda e: 0 < e < 1
        )
    )
    @example(eps=F(1, 8))
    @example(eps=F(21, 100))
    def test_family_split(self, eps):
        received = []

        def make(delta):
            received.append(delta)
            accuracy = delta / (1 + delta)
            return Oracle(
                fn=lambda instance, lam: knapsack_scaling_solve(instance, lam, accuracy),
                alpha=1 + delta,
                name=f"scaling@{delta}",
            )

        aset = approximate(toy_knapsack(), eps, OracleFamily(make=make))
        delta = 2 * eps / (4 + eps)
        assert received == [delta] and 0 < delta
        assert (1 + delta) ** 2 == 1 + eps - eps**3 / (4 + eps) ** 2
        assert aset.eps == delta and aset.alpha == 1 + delta
        assert aset.guarantee <= 1 + eps


import random
from fractions import Fraction as F

import pytest

from paramgrid import (
    DomainError,
    EpsilonRangeError,
    GridCapError,
    GridApproximator,
    Oracle,
    OracleFamily,
    SolutionRecord,
    approximate,
    evaluate,
    explicit_instance,
    guarantee,
    query,
)
from paramgrid.engine import rational_sqrt_down
from paramgrid.errors import OracleError
from paramgrid.fixtures import forced_cover_gadget
from paramgrid.oracle import ExhaustiveOracle
from paramgrid.solvers import knapsack_data, knapsack_instance, knapsack_scaling_solve

from conftest import optimum_by_enumeration, random_knapsack, random_lambda, ratio_ok


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
        assert aset.distinct_solution_count == 1
        assert all(rec.encoding == ("explicit", "only") for rec in aset.entries.values())
        assert len(aset.entries) == aset.grid_size == aset.spec.span

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

    def test_oracle_failure_carries_lambda(self):
        inst = single_solution_instance()

        def broken(instance, lam):
            raise ValueError("boom")

        with pytest.raises(OracleError) as err:
            approximate(inst, F(1, 2), Oracle(fn=broken, alpha=F(1)))
        assert err.value.lam is not None

    def test_oracle_call_count_is_grid_size(self):
        inst = toy_knapsack()
        calls = 0
        inner = ExhaustiveOracle(inst)

        def counting(instance, lam):
            nonlocal calls
            calls += 1
            return inner(instance, lam)

        aset = approximate(inst, F(1, 2), Oracle(fn=counting, alpha=F(1)))
        assert calls == aset.grid_size

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
        assert aset.distinct_solution_count <= aset.grid_size


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


class TestGuarantee:
    def test_fixed_oracle(self):
        inst = single_solution_instance()
        assert approximate(inst, F(1, 2)).guarantee == F(3, 2)
        two = approximate(inst, F(1, 2), Oracle(fn=ExhaustiveOracle(inst), alpha=F(2)))
        assert guarantee(two) == F(3)

    def test_family_split(self):
        # eps = 21/100 has the exact square root 11/10, so delta = 1/10.
        assert rational_sqrt_down(F(121, 100)) == F(11, 10)
        inst = toy_knapsack()

        def make(delta):
            accuracy = delta / (1 + delta)
            return Oracle(
                fn=lambda instance, lam: knapsack_scaling_solve(instance, lam, accuracy),
                alpha=1 + delta,
                name=f"scaling@{delta}",
            )

        aset = approximate(inst, F(21, 100), OracleFamily(make=make))
        assert aset.eps == F(1, 10)
        assert aset.alpha == F(11, 10)
        assert aset.guarantee == F(121, 100)

    def test_sqrt_down_never_overshoots(self):
        rng = random.Random(5)
        for _ in range(200):
            x = F(rng.randint(1, 10**6), rng.randint(1, 10**4))
            r = rational_sqrt_down(x)
            assert r * r <= x
            assert (r + F(1, 10**6)) ** 2 > x


class TestEstimator:
    def test_fit_query_predict(self):
        inst = toy_knapsack()
        est = GridApproximator(epsilon=F(1, 2)).fit(inst)
        assert est.guarantee_ == F(3, 2)
        rec = est.query((F(1),))
        assert evaluate(inst, rec, (F(1),)) * est.guarantee_ >= 6
        assert est.predict([(F(0),), (F(1),)]) == [est.query((F(0),)), est.query((F(1),))]

    def test_params_round_trip(self):
        est = GridApproximator(epsilon=F(1, 4), grid_cap=1000)
        params = est.get_params()
        clone = GridApproximator(**params)
        assert clone.get_params() == params
        clone.set_params(epsilon=F(1, 8))
        assert clone.epsilon == F(1, 8)
        with pytest.raises(ValueError):
            clone.set_params(nonsense=1)

    def test_unfitted_query_raises(self):
        with pytest.raises(RuntimeError):
            GridApproximator().query((F(0),))

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from paramgrid import ProblemInstance, Sense, evaluate
from paramgrid.errors import DomainError, TooLargeError
from paramgrid.oracle import enumerate_solutions
from paramgrid.solvers import (
    cut_graph,
    from_generators,
    greedy_solve,
    independence_instance,
    knapsack_data,
    knapsack_instance,
    knapsack_scaling_solve,
    knapsack_solve,
    min_cut_solve,
    mincut_instance,
    rank_quotient_exact,
)

from conftest import (
    optimum_by_enumeration,
    random_cut,
    random_independence,
    random_knapsack,
    random_lambda,
    rank_quotient_by_pairs,
)


def path_cut_instance():
    return mincut_instance(cut_graph(3, [(0, 1, 3, (0,)), (1, 2, 1, (1,))], 0, 2, 1))


class TestMinCut:
    def test_path_graph_cheap_arc(self):
        inst = path_cut_instance()
        rec = min_cut_solve(inst, [F(1)])
        assert rec.encoding == ("cut", (0, 1))
        assert evaluate(inst, rec, [F(1)]) == 2

    def test_path_graph_price_flip(self):
        inst = path_cut_instance()
        rec = min_cut_solve(inst, [F(3)])
        assert rec.encoding == ("cut", (0,))
        assert evaluate(inst, rec, [F(3)]) == 3

    def test_path_graph_at_anchor(self):
        inst = path_cut_instance()
        assert inst.lambda_min == (F(-1),)
        rec = min_cut_solve(inst, [F(-1)])
        assert evaluate(inst, rec, [F(-1)]) == 0

    def test_deep_path_needs_no_recursion(self):
        # 2999 levels in the level graph: deeper than Python's recursion limit
        arcs = [(i, i + 1, 1 + i % 3, (1,)) for i in range(2999)]
        inst = mincut_instance(cut_graph(3000, arcs, 0, 2999, 1))
        rec = min_cut_solve(inst, [F(0)])
        # every cost-1 arc saturates, so the residual graph cuts s off at arc 0 -> 1
        assert rec.encoding == ("cut", (0,))
        assert evaluate(inst, rec, [F(0)]) == 1

    def test_cut_reaches_through_reverse_residual_arcs(self):
        # the first path 0-1-2-4 saturates 2 -> 4; vertex 1 stays on the source
        # side only through the reverse residual arc 2 -> 1, and the cut costs 1
        arcs = [(0, 1, 1, (0,)), (1, 2, 1, (0,)), (2, 4, 1, (0,)), (0, 3, 1, (0,)),
                (3, 2, 1, (0,))]
        inst = mincut_instance(cut_graph(5, arcs, 0, 4, 1), lambda_min=[0])
        rec = min_cut_solve(inst, [F(0)])
        assert rec.encoding == ("cut", (0, 1, 2, 3))
        assert evaluate(inst, rec, [F(0)]) == 1

    def test_negative_cost_reported_as_rational(self):
        # built directly: the factories refuse a lambda_min this small
        graph = cut_graph(2, [(0, 1, 0, (2,))], 0, 1, 1)
        inst = ProblemInstance(Sense.MIN, 1, (F(-1, 3),), F(1), F(1), graph)
        with pytest.raises(DomainError, match="arc cost -2/3 negative"):
            min_cut_solve(inst, [F(-1, 3)])

    def test_matches_enumeration(self, rng):
        for _ in range(20):
            inst = random_cut(rng, n=rng.randint(3, 7), K=rng.choice([1, 2]), cmax=9)
            for _ in range(15):
                lam = random_lambda(rng, inst, spread=30)
                rec = min_cut_solve(inst, lam)
                assert evaluate(inst, rec, lam) == optimum_by_enumeration(inst, lam)


class TestKnapsack:
    def toy(self):
        return knapsack_instance(
            knapsack_data([(3, (1,), 2), (2, (4,), 2)], budget=2, K=1), lambda_min=[0]
        )

    def test_low_parameter_prefers_constant_profit(self):
        inst = self.toy()
        rec = knapsack_solve(inst, [F(0)])
        assert rec.encoding == ("items", (0,))
        assert evaluate(inst, rec, [F(0)]) == 3

    def test_high_parameter_flips(self):
        inst = self.toy()
        rec = knapsack_solve(inst, [F(1)])
        assert rec.encoding == ("items", (1,))
        assert evaluate(inst, rec, [F(1)]) == 6

    def test_zero_budget(self):
        inst = knapsack_instance(knapsack_data([(3, (1,), 2)], budget=0, K=1), lambda_min=[0])
        rec = knapsack_solve(inst, [F(1)])
        assert rec.encoding == ("items", ())

    def test_matches_enumeration(self, rng):
        for _ in range(20):
            inst = random_knapsack(rng, n=rng.randint(3, 9), K=rng.choice([1, 2]), cmax=9)
            for _ in range(10):
                lam = random_lambda(rng, inst, spread=20)
                rec = knapsack_solve(inst, lam)
                assert evaluate(inst, rec, lam) == optimum_by_enumeration(inst, lam)

    def test_budget_past_the_items_total_changes_no_answer(self, rng):
        # the DP spans the fitting items' total weight, not a 10^12 budget
        for _ in range(20):
            inst = random_knapsack(rng, n=rng.randint(1, 8), K=rng.choice([1, 2]), cmax=9)
            data = inst.payload
            total = sum(item.weight for item in data.items)
            rows = [(item.a, item.b, item.weight) for item in data.items]
            huge = knapsack_instance(knapsack_data(rows, 10**12, data.K))
            tight = knapsack_instance(knapsack_data(rows, total, data.K))
            for _ in range(5):
                lam = random_lambda(rng, inst, spread=20)
                assert knapsack_solve(huge, lam) == knapsack_solve(tight, lam)

    def test_matches_enumeration_n15(self, rng):
        inst = random_knapsack(rng, n=15, K=1, cmax=12)
        for _ in range(4):
            lam = random_lambda(rng, inst, spread=20)
            rec = knapsack_solve(inst, lam)
            assert evaluate(inst, rec, lam) == optimum_by_enumeration(inst, lam)


class TestKnapsackScaling:
    def test_guarantee_holds(self, rng):
        for _ in range(15):
            inst = random_knapsack(rng, n=rng.randint(3, 8), K=1, cmax=10)
            for acc_den in (2, 3, 5):
                accuracy = F(1, acc_den)
                lam = random_lambda(rng, inst, spread=10)
                rec = knapsack_scaling_solve(inst, lam, accuracy)
                opt = optimum_by_enumeration(inst, lam)
                assert evaluate(inst, rec, lam) >= (1 - accuracy) * opt

    def test_feasible(self, rng):
        inst = random_knapsack(rng, n=6, K=1, cmax=10)
        data = inst.payload
        rec = knapsack_scaling_solve(inst, random_lambda(rng, inst), F(1, 3))
        members = rec.encoding[1]
        assert sum(data.items[i].weight for i in members) <= data.budget


def path_matching_system():
    # Matchings of the path a-b-c-d: edges 0=ab, 1=bc, 2=cd, profits 2,3,2.
    edges = [(0, 1), (1, 2), (2, 3)]

    def member(subset):
        used = set()
        for e in subset:
            u, v = edges[e]
            if u in used or v in used:
                return False
            used.update((u, v))
        return True

    from paramgrid.solvers import IndependenceSystem

    return IndependenceSystem(
        n=3,
        member=member,
        elements=((2, (0,)), (3, (0,)), (2, (0,))),
        K=1,
        declared_alpha=F(2),
    )


class TestGreedy:
    def test_rank_one_matroid_exact(self):
        system = from_generators(
            2, [[0], [1]], [(5, (0,)), (3, (0,))], K=1, declared_alpha=1
        )
        inst = independence_instance(system)
        rec = greedy_solve(inst, [F(0)])
        assert rec.encoding == ("elements", (0,))

    def test_path_matching_ratio(self):
        system = path_matching_system()
        inst = independence_instance(system)
        rec = greedy_solve(inst, [F(0)])
        assert rec.encoding == ("elements", (1,))
        assert evaluate(inst, rec, [F(0)]) == 3
        assert optimum_by_enumeration(inst, [F(0)]) == 4

    def test_empty_ground_set_noop(self):
        system = from_generators(1, [[]], [(1, (0,))], K=1)
        inst = independence_instance(system)
        rec = greedy_solve(inst, [F(0)])
        assert rec.encoding == ("elements", ())

    def test_guarantee_against_exact_quotient(self, rng):
        for _ in range(25):
            inst = random_independence(rng, n=rng.randint(2, 7), K=1, cmax=9)
            q = rank_quotient_exact(inst.payload)
            for _ in range(6):
                lam = random_lambda(rng, inst, spread=10)
                got = evaluate(inst, greedy_solve(inst, lam), lam)
                opt = optimum_by_enumeration(inst, lam)
                assert q * got >= opt


class TestRankQuotient:
    def test_matroid_is_one(self):
        system = from_generators(
            3,
            [[0, 1], [0, 2], [1, 2]],
            [(1, (0,)), (1, (0,)), (1, (0,))],
            K=1,
        )
        assert rank_quotient_exact(system) == 1

    def test_path_matching_is_two(self):
        assert rank_quotient_exact(path_matching_system()) == 2

    def test_single_element(self):
        system = from_generators(1, [[0]], [(1, (0,))], K=1)
        assert rank_quotient_exact(system) == 1

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_the_pair_walk(self, data):
        n = data.draw(st.integers(0, 10))
        member = st.integers(0, max(n - 1, 0))
        generators = data.draw(st.lists(st.sets(member, max_size=n), min_size=1, max_size=n + 1))
        system = from_generators(n, generators, [(1, (0,))] * n, K=1)
        assert rank_quotient_exact(system) == rank_quotient_by_pairs(system)

    def test_size_guard(self):
        n = 21
        system = from_generators(n, [list(range(n))], [(1, (0,))] * n, K=1)
        with pytest.raises(TooLargeError):
            rank_quotient_exact(system)

    def test_downward_closure_of_generators(self, rng):
        for _ in range(20):
            inst = random_independence(rng, n=5, K=1, cmax=5)
            system = inst.payload
            for _ in range(30):
                size = rng.randint(0, 5)
                sub = frozenset(rng.sample(range(5), size))
                if system.independent(sub):
                    for e in sub:
                        assert system.independent(sub - {e})


class TestSolverAnchors:
    def test_values_nonnegative_at_anchor(self, rng):
        for make in (random_cut, random_knapsack, random_independence):
            inst = make(rng, 5, 2, 8)
            for rec in enumerate_solutions(inst):
                assert evaluate(inst, rec, inst.lambda_min) >= 0

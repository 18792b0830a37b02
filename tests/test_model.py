from fractions import Fraction as F

import pytest

from paramgrid import (
    DegenerateInstanceError,
    DomainError,
    InvalidInstanceError,
    Sense,
    SolutionRecord,
    augmented_evaluate,
    compute_lambda_min,
    evaluate,
    explicit_instance,
)
from paramgrid.model import as_fraction, check_lambda
from paramgrid.solvers import cut_graph, knapsack_data, knapsack_instance

from conftest import random_cut, random_knapsack, random_lambda

from paramgrid.oracle import enumerate_solutions


def rec(*values):
    return SolutionRecord(encoding=("explicit", f"r{values}"), F=tuple(F(v) for v in values))


class TestEvaluate:
    def test_at_anchor(self):
        inst = explicit_instance([rec(3, 1, 2)], K=2)
        assert evaluate(inst, rec(3, 1, 2), [0, 0]) == 3

    def test_unit_offsets(self):
        inst = explicit_instance([rec(3, 1, 2)], K=2)
        assert evaluate(inst, rec(3, 1, 2), [1, 1]) == 6

    def test_knapsack_single_item(self):
        data = knapsack_data([(3, (1,), 2), (2, (4,), 2)], budget=2, K=1)
        inst = knapsack_instance(data, lambda_min=[0])
        e2 = next(
            r for r in enumerate_solutions(inst) if r.encoding == ("items", (1,))
        )
        assert evaluate(inst, e2, [1]) == 6

    def test_rejects_lambda_below_minimum(self):
        inst = explicit_instance([rec(3, 1, 2)], K=2)
        with pytest.raises(DomainError):
            evaluate(inst, rec(3, 1, 2), [-1, 0])


class TestAugmentedEvaluate:
    def test_unit_weight_selects_first(self):
        assert augmented_evaluate(rec(3, 1, 2), (1, 0, 0)) == 3

    def test_all_ones(self):
        assert augmented_evaluate(rec(3, 1, 2), (1, 1, 1)) == 6

    def test_convex_combination(self):
        assert augmented_evaluate(rec(4, 4), (F(1, 2), F(1, 2))) == 4

    def test_rejects_negative_weight(self):
        with pytest.raises(DomainError):
            augmented_evaluate(rec(3, 1, 2), (1, -1, 0))


class TestBounds:
    def test_knapsack_recipe(self):
        data = knapsack_data([(3, (1,), 1), (2, (4,), 1)], budget=2, K=1)
        inst = knapsack_instance(data)
        assert (inst.LB, inst.UB) == (1, 5)

    def test_explicit_min_nonzero_max(self):
        inst = explicit_instance([rec(3, 1, 2), rec(4, 4, 4)], K=2)
        assert (inst.LB, inst.UB) == (1, 4)

    def test_degenerate_all_zero(self):
        with pytest.raises(DegenerateInstanceError):
            explicit_instance([rec(0, 0, 0)], K=2)

    def test_fractional_anchor_keeps_lb_sound(self):
        # lambda_min = -3/2 gives the second item cost 1/2 at the anchor.
        data = knapsack_data([(3, (2,), 1), (2, (1,), 1)], budget=2, K=1)
        inst = knapsack_instance(data)
        assert inst.lambda_min == (F(-3, 2),)
        assert inst.LB == F(1, 2)
        for record in enumerate_solutions(inst):
            for v in record.F:
                assert v == 0 or inst.LB <= v <= inst.UB


class TestLambdaMin:
    def test_cut_formula(self):
        g = cut_graph(3, [(0, 1, 3, (0,)), (1, 2, 1, (1,))], 0, 2, 1)
        assert compute_lambda_min(g) == (F(-1),)

    def test_zero_when_no_dependence(self):
        g = cut_graph(3, [(0, 1, 3, (0, 0)), (1, 2, 1, (1, 0))], 0, 2, 2)
        assert compute_lambda_min(g) == (F(-1, 2), F(0))

    def test_knapsack_two_parameters(self):
        data = knapsack_data([(2, (1, 2), 1)], budget=1, K=2)
        assert compute_lambda_min(data) == (F(-1), F(-1, 2))

    def test_user_anchor_below_formula_rejected(self):
        data = knapsack_data([(2, (1,), 1)], budget=1, K=1)
        with pytest.raises(InvalidInstanceError):
            knapsack_instance(data, lambda_min=[F(-3)])


class TestInvariants:
    def test_consistency_with_augmented_form(self, rng):
        for _ in range(20):
            inst = random_knapsack(rng, n=6, K=2, cmax=9)
            recs = enumerate_solutions(inst)
            for _ in range(10):
                lam = random_lambda(rng, inst, spread=50)
                x = recs[rng.randrange(len(recs))]
                w = (F(1), *(l - lm for l, lm in zip(lam, inst.lambda_min)))
                assert evaluate(inst, x, lam) == augmented_evaluate(x, w)

    def test_nonnegativity_on_domain(self, rng):
        for _ in range(10):
            inst = random_cut(rng, n=5, K=2, cmax=8)
            for x in enumerate_solutions(inst):
                for _ in range(5):
                    lam = random_lambda(rng, inst, spread=100)
                    assert evaluate(inst, x, lam) >= 0

    def test_bound_soundness(self, rng):
        for make in (random_knapsack, random_cut):
            for _ in range(15):
                inst = make(rng, 5, 2, 7)
                for x in enumerate_solutions(inst):
                    for v in x.F:
                        assert v == 0 or inst.LB <= v <= inst.UB


class TestValidation:
    def test_as_fraction_rejects_float(self):
        with pytest.raises(InvalidInstanceError):
            as_fraction(0.5)

    @pytest.mark.parametrize("text", ["x", "1e5", "2E-3", "1/0", ""])
    def test_as_fraction_refuses_bad_literals(self, text):
        # exponent notation costs time in the exponent, so it is refused outright
        with pytest.raises(InvalidInstanceError):
            as_fraction(text)

    def test_as_fraction_parses_plain_literals(self):
        assert as_fraction("3/2") == F(3, 2)
        assert as_fraction("-4") == F(-4)
        assert as_fraction("0.5") == F(1, 2)

    def test_check_lambda_shape(self):
        inst = explicit_instance([rec(3, 1, 2)], K=2)
        with pytest.raises(InvalidInstanceError):
            check_lambda(inst, [1])

    def test_negative_component_rejected(self):
        with pytest.raises(InvalidInstanceError):
            SolutionRecord(encoding=("explicit", "bad"), F=(F(-1), F(0)))

    def test_sense_parsing(self):
        assert Sense.parse("min") is Sense.MIN
        assert Sense.parse("maximize") is Sense.MAX
        with pytest.raises(InvalidInstanceError):
            Sense.parse("sideways")

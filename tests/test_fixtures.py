import dataclasses
from fractions import Fraction as F

import pytest

from paramgrid import augmented_evaluate, fixtures
from paramgrid.errors import InvalidInstanceError
from paramgrid.fixtures import (
    check_appendix_example,
    check_appendix_proof,
    check_fixture,
    check_section3,
    forced_cover_gadget,
    separation_chain,
    small_cover_gadget,
)


class TestForcedCoverGadget:
    def test_closed_forms_k1_beta2(self):
        g = forced_cover_gadget(F(2), 1)
        assert g.record("x").F == (F(4), F(4))
        assert g.record("x0").F == (F(2), F(5))
        assert g.record("x1").F == (F(5), F(2))

    def test_midpoint_weight_prefers_spike(self):
        g = forced_cover_gadget(F(2), 1)
        w = (F(1, 2), F(1, 2))
        assert augmented_evaluate(g.record("x0"), w) == F(7, 2)
        assert augmented_evaluate(g.record("x"), w) == F(4)

    def test_unit_weight_within_beta(self):
        g = forced_cover_gadget(F(2), 1)
        w = (F(1), F(0))
        assert augmented_evaluate(g.record("x"), w) == F(4)
        assert augmented_evaluate(g.record("x0"), w) == F(2)
        assert augmented_evaluate(g.record("x"), w) <= 2 * augmented_evaluate(g.record("x0"), w)

    def test_rejects_beta_at_most_one(self):
        with pytest.raises(InvalidInstanceError):
            forced_cover_gadget(F(1), 1)

    def test_facts_small_sample(self):
        report = check_section3(F(2), 2, samples=400, seed=5)
        assert report.passed

    def test_forced_cover_fails_with_a_witness_listed_twice(self, monkeypatch):
        # spike 1 then has no witness of its own: spike 0 covers both copies
        real = fixtures._spike_witnesses

        def doubled(b, K, spikes):
            w = real(b, K, spikes)
            return (w[0], w[0], *w[2:])

        monkeypatch.setattr(fixtures, "_spike_witnesses", doubled)
        report = check_section3(F(2), 2, samples=50)
        assert {f.name: f.passed for f in report.facts} == {
            "never-optimal": True, "singleton-cover": True, "forced-k-plus-1": False,
        }


class TestAppendixExample:
    def test_closed_forms_beta2_z5(self):
        gadget = small_cover_gadget(F(2), F(5))
        assert gadget.record("x").F == (F(10), F(1), F(1))
        assert gadget.record("x1").F == (F(5), F(4), F(124))
        assert gadget.record("x2").F == (F(5), F(16), F(16))
        assert gadget.record("x3").F == (F(5), F(124), F(4))
        assert gadget.record("xb2").F == (F(4), F(16), F(16))

    def test_pairwise_witness_arithmetic(self):
        # At the middle witness the end solutions tie and lose by beta.
        gadget = small_cover_gadget(F(2), F(5))
        w2 = gadget.witnesses["pairwise"][1]
        assert w2 == (F(0), F(1), F(1))
        assert 2 * augmented_evaluate(gadget.record("x2"), w2) == F(64)
        assert augmented_evaluate(gadget.record("x1"), w2) == F(128)
        assert augmented_evaluate(gadget.record("x3"), w2) == F(128)

    def test_region_boundary_is_tight(self):
        gadget = small_cover_gadget(F(2), F(5))
        w = (F(31, 2), F(1, 2), F(1, 2))
        assert w[0] == (F(2) ** 5 - 1) / F(2) * (w[1] + w[2])
        assert augmented_evaluate(gadget.record("x"), w) == F(156)
        assert 2 * augmented_evaluate(gadget.record("xb2"), w) == F(156)

    def test_hypothesis_guard(self):
        with pytest.raises(InvalidInstanceError):
            small_cover_gadget(F(2), F(4))  # needs z0 >= beta^2/(beta-1)+1 = 5

    def test_facts_small_sample(self):
        report = check_appendix_example(F(2), F(5), samples=600, seed=4)
        assert report.passed


class TestSeparationChain:
    def test_values(self):
        g = separation_chain(F(2), F(5), 3)
        m = F(20)
        assert g.record("xstar").F == (F(10), m**-5, m**-5)
        assert g.record("x1").F == (F(5), m**-2, F(1))
        assert g.record("x3").F == (F(5), F(1), m**-2)
        assert g.record("xb2").F == (F(4), m**-1, m**-1)

    def test_chain_facts(self):
        for L in (2, 3, 4):
            assert check_appendix_proof(F(2), F(5), L).passed

    def test_equal_scale_still_separates(self):
        # z0 = beta is the edge of the precondition.
        assert check_appendix_proof(F(2), F(2), 3).passed

    def test_parameter_guards(self):
        with pytest.raises(InvalidInstanceError):
            separation_chain(F(2), F(1), 3)
        with pytest.raises(InvalidInstanceError):
            separation_chain(F(2), F(5), 1)


class TestRegistry:
    def test_dispatch(self):
        assert check_fixture("section3", beta=F(3, 2), K=1, samples=200).passed
        assert check_fixture("appendix-proof", beta=F(2), z0=F(5), L=2).passed
        with pytest.raises(InvalidInstanceError):
            check_fixture("section3", beta=F(2))
        with pytest.raises(InvalidInstanceError):
            check_fixture("unknown", beta=F(2))

    @pytest.mark.parametrize(
        "name, given, missing",
        [("section3", {}, "K"), ("appendix-example", {"K": 3}, "z0"),
         ("appendix-proof", {}, "z0 and L"), ("appendix-proof", {"z0": F(5)}, "L")],
    )
    def test_missing_parameters_named(self, name, given, missing):
        # the parameter lists are the ones FIXTURES declares
        with pytest.raises(InvalidInstanceError) as info:
            check_fixture(name, beta=F(2), **given)
        assert str(info.value) == f"fixture {name} needs {missing}"

    def test_report_parameters_are_strings(self):
        # the report holds what the CLI prints, and passed is one of its fields
        report = check_fixture("section3", beta=F(3, 2), K=1, samples=20, seed=4)
        assert report.parameters == {"beta": "3/2", "K": "1", "samples": "20", "seed": "4"}
        assert "passed" in {f.name for f in dataclasses.fields(report)}

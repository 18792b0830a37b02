import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from paramgrid import (
    ApproximationSet,
    DomainError,
    ProblemInstance,
    Sense,
    SolutionRecord,
    augmented_evaluate,
    lambda_from_weight,
    lift_to_cone,
    make_spec,
    query,
    snap,
    threshold,
    weight_from_lambda,
)
from paramgrid.model import ONE, ZERO

from conftest import (
    at_threshold,
    below_threshold,
    cone_member_exhaustive,
    fraction_lift,
    hull_coefficients,
    in_cone,
    lift_once,
    optimum_by_enumeration_weight,
    random_explicit,
    reconstruct,
)

small_fracs = st.fractions(min_value=0, max_value=4, max_denominator=16)
pos_fracs = st.fractions(min_value=F(1, 16), max_value=4, max_denominator=16)
# zeros, ties among small values, and components many decades apart
components = st.one_of(
    st.just(ZERO),
    small_fracs,
    st.fractions(min_value=0, max_value=10**9, max_denominator=10**6),
)
thresholds = st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(
    lambda c: 0 < c < 1
)


class TestThreshold:
    def test_direct_substitution(self):
        assert threshold(F(1, 4), F(5, 4), 1, 1) == F(1, 5)
        assert threshold(F(1, 2), 1, 1, 2) == F(1, 4)
        assert threshold(F(1, 2), 2, 1, 1) == F(1, 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            threshold(1, 1, 1, 1)
        with pytest.raises(DomainError):
            threshold(F(1, 2), F(1, 2), 1, 1)
        with pytest.raises(DomainError):
            threshold(F(1, 2), 1, 2, 1)


class TestBelowThreshold:
    def test_strictly_below(self):
        assert below_threshold((F(1, 100), F(1, 2), F(1)), {0}, F(1, 4))

    def test_boundary_is_not_below(self):
        w = (F(1, 8), F(1, 2), F(1))
        assert not below_threshold(w, {0}, F(1, 4))
        assert at_threshold(w, {0}, F(1, 4))

    def test_zero_components(self):
        assert below_threshold((ZERO, ZERO, F(1)), {0, 1}, F(1, 4))

    def test_rejects_bad_groups(self):
        w = (F(1), F(1), F(1))
        with pytest.raises(DomainError):
            below_threshold(w, set(), F(1, 4))
        with pytest.raises(DomainError):
            below_threshold(w, {0, 1, 2}, F(1, 4))


class TestCone:
    def test_all_ones(self):
        assert in_cone((F(1), F(1), F(1)), F(1, 4))

    def test_zero_component_excluded(self):
        assert not in_cone((ZERO, F(1), F(1)), F(1, 4))

    def test_interior_small_component(self):
        assert not in_cone((F(1), F(1, 100), F(1)), F(1, 4))

    @settings(max_examples=300, deadline=None)
    @given(
        w=st.lists(small_fracs, min_size=2, max_size=5).map(tuple),
        c=st.fractions(min_value=F(1, 50), max_value=F(49, 50), max_denominator=50),
    )
    def test_prefix_rule_matches_exhaustive(self, w, c):
        assert in_cone(w, c) == cone_member_exhaustive(w, c)


class TestLiftOnce:
    def test_uniform_split(self):
        assert lift_once((ZERO, ZERO, F(1)), {0, 1}, F(1, 4)) == (F(1, 8), F(1, 8), F(1))

    def test_proportional_with_reconstruction(self):
        w = (F(1, 100), F(3, 100), F(1))
        lifted = lift_once(w, {0, 1}, F(1, 4))
        assert lifted == (F(1, 16), F(3, 16), F(1))
        mu = F(4, 100) / F(1, 4)
        assert mu == F(4, 25)
        proj = (ZERO, ZERO, F(1))
        assert tuple(mu * a + (1 - mu) * p for a, p in zip(lifted, proj)) == w

    def test_boundary_is_fixed_point(self):
        w = (F(1, 8), F(1, 2), F(1))  # exactly on the boundary
        assert lift_once(w, {0}, F(1, 4)) == w

    def test_rejects_group_above_threshold(self):
        w = (F(1, 2), F(1, 2), F(1))
        with pytest.raises(DomainError):
            lift_once(w, {0}, F(1, 4))

    def test_raises_only_group_components(self):
        w = (F(1, 100), F(1, 2), F(1))
        lifted = lift_once(w, {0}, F(1, 4))
        assert lifted[1:] == w[1:]
        assert lifted[0] >= w[0]


class TestLiftToCone:
    def test_identity_inside_cone(self):
        w = (F(1), F(1), F(1))
        cert = lift_to_cone(w, F(1, 2))
        assert cert.depth == 0
        assert cert.final == w
        assert reconstruct(cert) == w

    def test_two_step_example(self):
        w = (F(1, 100), F(1, 25), F(1))
        cert = lift_to_cone(w, F(1, 2))
        assert [s.prefix_top for s in cert.steps] == [0, 1]
        assert cert.steps[0].weight == (F(1, 50), F(1, 25), F(1))
        assert cert.final == (F(1, 6), F(1, 3), F(1))
        assert [s.mu for s in cert.steps] == [F(1, 2), F(3, 25)]
        assert reconstruct(cert) == w

    def test_single_uniform_lift(self):
        cert = lift_to_cone((ZERO, ZERO, F(1)), F(1, 4))
        assert cert.depth == 1
        assert cert.final == (F(1, 8), F(1, 8), F(1))

    def test_rejects_zero_weight(self):
        with pytest.raises(DomainError):
            lift_to_cone((ZERO, ZERO, ZERO), F(1, 4))

    def _random_weight(self, rng, dim):
        kind = rng.random()
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

    def test_certificate_statements(self):
        # Monotone growth, preserved order, boundary memberships for all
        # earlier steps, depth <= K and exact reconstruction.
        rng = random.Random(7)
        for _ in range(400):
            K = rng.randint(1, 5)
            c = F(rng.randint(1, 99), 100)
            w = self._random_weight(rng, K + 1)
            cert = lift_to_cone(w, c)
            assert cert.depth <= K
            assert in_cone(cert.final, c)
            assert cone_member_exhaustive(cert.final, c) if K <= 4 else True
            assert reconstruct(cert) == w
            assert sum(hull_coefficients(cert)) == 1
            assert all(0 <= t <= 1 for t in hull_coefficients(cert))
            prev = w
            for step in cert.steps:
                cur = step.weight
                assert all(cur[i] >= prev[i] for i in step.indices)
                untouched = [i for i in range(K + 1) if i not in step.indices]
                assert all(cur[i] == prev[i] for i in untouched)
                ordered = [cur[i] for i in cert.order]
                assert all(a <= b for a, b in zip(ordered, ordered[1:]))
                prev = cur
            if cert.depth:
                assert all(v > 0 for v in cert.final)
                for step in cert.steps:
                    assert at_threshold(cert.final, step.indices, c)

    def test_component_lower_bound(self):
        rng = random.Random(8)
        for _ in range(300):
            K = rng.randint(1, 4)
            c = F(rng.randint(1, 9), 10)
            w = self._random_weight(rng, K + 1)
            cert = lift_to_cone(w, c)
            floor = c**K / factorial(K + 1)
            total = sum(cert.final)
            assert all(v / total >= floor for v in cert.final)

    def test_compact_box_bound(self):
        rng = random.Random(9)
        for _ in range(200):
            K = rng.randint(1, 4)
            c = F(rng.randint(1, 9), 10)
            lam = tuple(F(rng.randint(0, 400), 16) for _ in range(K))
            w = weight_from_lambda(lam, (ZERO,) * K)
            cert = lift_to_cone(w, c)
            image = lambda_from_weight(cert.final, (ZERO,) * K)
            lo = c**K / factorial(K + 1)
            hi = factorial(K + 1) / c**K
            assert all(lo <= v <= hi for v in image)


class CellEcho(dict):
    """Entries that answer every grid index with a record naming that index."""

    def __missing__(self, idx):
        return SolutionRecord(encoding=("cell", idx), F=(ONE,) * (len(idx) + 1))


@st.composite
def query_points(draw):
    """(lambda, lambda_min) with K = 1..4, offsets from ``components``."""
    K = draw(st.integers(min_value=1, max_value=4))
    offsets = draw(st.lists(components, min_size=K, max_size=K))
    lambda_min = draw(
        st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=8), min_size=K, max_size=K)
    )
    return tuple(lm + off for lm, off in zip(lambda_min, offsets)), tuple(lambda_min)


class TestIntegerLift:
    """The integer lift against ``fraction_lift``, the same lift on Fractions."""

    @settings(max_examples=400, deadline=None)
    @given(
        w=st.integers(min_value=2, max_value=5).flatmap(
            lambda n: st.lists(components, min_size=n, max_size=n)
        ),
        c=thresholds,
    )
    @example(w=[ONE, ZERO, ZERO], c=F(1, 3))
    @example(w=[F(1, 2), F(1, 2), F(1, 2)], c=F(1, 2))
    def test_certificate_equals_fraction_lift(self, w, c):
        if not any(w):
            return
        cert = lift_to_cone(w, c)
        ref = fraction_lift(w, c)
        assert cert.order == ref.order
        assert len(cert.steps) == len(ref.steps)
        for step, expected in zip(cert.steps, ref.steps):
            assert step.prefix_top == expected.prefix_top
            assert step.indices == expected.indices
            assert step.weight == expected.weight
            assert step.mu == expected.mu
        assert cert.final == ref.final

    @settings(max_examples=300, deadline=None)
    @given(point=query_points(), c=thresholds)
    @example(point=((F(0), F(-3, 2)), (F(0), F(-3, 2))), c=F(1, 3))
    def test_query_cell_equals_fraction_path(self, point, c):
        lam, lambda_min = point
        K = len(lam)
        spec = make_spec(c, K, F(1, 2), lambda_min)
        instance = ProblemInstance(Sense.MIN, K, lambda_min, ONE, ONE, payload=None)
        aset = ApproximationSet(
            requested_eps=spec.eps, alpha=ONE, spec=spec,
            sense=Sense.MIN, entries=CellEcho(), solutions=(),
        )
        ref = fraction_lift(weight_from_lambda(lam, lambda_min), c)
        if lam == lambda_min:
            # all offsets zero: one step whose prefix has no mass below the threshold
            assert [step.mu for step in ref.steps] == [ZERO]
        expected = snap(spec, lambda_from_weight(ref.final, lambda_min))
        assert query(aset, instance, lam).encoding == ("cell", expected)


class TestSimplexMaps:
    def test_weight_from_lambda(self):
        assert weight_from_lambda((0, 0), (0, 0)) == (F(1), ZERO, ZERO)
        assert weight_from_lambda((2, 3), (0, 0)) == (F(1), F(2), F(3))
        assert weight_from_lambda((1,), (0,)) == (F(1), F(1))
        assert weight_from_lambda((F(1, 2), 3), (-1, 2)) == (F(1), F(3, 2), F(1))
        with pytest.raises(DomainError):
            weight_from_lambda((0,), (1,))

    def test_lambda_from_weight(self):
        assert lambda_from_weight((F(1, 2), F(1, 4), F(1, 4)), (0, 0)) == (F(1, 2), F(1, 2))
        assert lambda_from_weight((F(1, 5), F(2, 5), F(2, 5)), (-1, 2)) == (F(1), F(4))
        assert lambda_from_weight((F(1), ZERO), (0,)) == (ZERO,)
        with pytest.raises(DomainError):
            lambda_from_weight((ZERO, F(1)), (0,))

    @settings(max_examples=200, deadline=None)
    @given(offsets=st.lists(small_fracs, min_size=1, max_size=4))
    def test_round_trip(self, offsets):
        lam = tuple(offsets)
        lambda_min = (ZERO,) * len(lam)
        w = weight_from_lambda(lam, lambda_min)
        assert lambda_from_weight(w, lambda_min) == lam


class TestApproximationProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        fx=st.lists(small_fracs, min_size=3, max_size=3).map(tuple),
        fy=st.lists(small_fracs, min_size=3, max_size=3).map(tuple),
        w=st.lists(small_fracs, min_size=3, max_size=3).map(tuple),
        t=pos_fracs,
        beta=st.fractions(min_value=1, max_value=3, max_denominator=8),
    )
    def test_scaling_invariance(self, fx, fy, w, t, beta):
        from paramgrid.model import SolutionRecord

        x = SolutionRecord(encoding=("explicit", "x"), F=fx)
        y = SolutionRecord(encoding=("explicit", "y"), F=fy)
        scaled = tuple(t * v for v in w)
        lhs = augmented_evaluate(x, w) <= beta * augmented_evaluate(y, w)
        rhs = augmented_evaluate(x, scaled) <= beta * augmented_evaluate(y, scaled)
        assert lhs == rhs

    def test_convexity_of_approximation(self, rng):
        # gamma-approximate at finitely many weights implies gamma-approximate
        # at every sampled convex combination.
        for _ in range(30):
            inst = random_explicit(rng, count=6, K=2, vmax=9)
            recs = inst.payload.records
            weights = [
                tuple(F(rng.randint(0, 8)) for _ in range(3)) for _ in range(3)
            ]
            if any(all(v == 0 for v in w) for w in weights):
                continue
            gamma = None
            x = recs[rng.randrange(len(recs))]
            for w in weights:
                opt = optimum_by_enumeration_weight(inst, w)
                val = augmented_evaluate(x, w)
                if opt == 0:
                    gamma = None
                    break
                ratio = val / opt
                gamma = ratio if gamma is None or ratio > gamma else gamma
            if gamma is None:
                continue
            for _ in range(10):
                coeffs = [F(rng.randint(0, 12)) for _ in weights]
                total = sum(coeffs)
                if total == 0:
                    continue
                coeffs = [cf / total for cf in coeffs]
                mix = tuple(
                    sum((cf * w[i] for cf, w in zip(coeffs, weights)), ZERO)
                    for i in range(3)
                )
                opt = optimum_by_enumeration_weight(inst, mix)
                assert augmented_evaluate(x, mix) <= gamma * opt

    @settings(max_examples=200, deadline=None)
    @given(
        w=st.lists(small_fracs, min_size=3, max_size=5).map(tuple),
        raises=st.lists(small_fracs, min_size=3, max_size=5).map(tuple),
        c=st.fractions(min_value=F(1, 20), max_value=F(19, 20), max_denominator=20),
        data=st.data(),
    )
    def test_lift_invariance(self, w, raises, c, data):
        # Raising group components of a weight outside the below-threshold
        # region keeps it outside.
        dim = min(len(w), len(raises))
        w = w[:dim]
        size = data.draw(st.integers(min_value=1, max_value=dim - 1))
        group = tuple(range(size))
        if below_threshold(w, group, c):
            return
        raised = tuple(
            v + (raises[i] if i in group else 0) for i, v in enumerate(w)
        )
        assert not below_threshold(raised, group, c)

    def test_projection_at_boundary_weights(self, rng):
        # An exact minimizer at a boundary weight is (1+eps')-approximate
        # after zeroing the group.
        checked = 0
        while checked < 150:
            inst = random_explicit(rng, count=7, K=2, vmax=9)
            eps_prime = F(rng.randint(1, 9), 10)
            c = threshold(eps_prime, 1, inst.LB, inst.UB)
            dim = inst.K + 1
            size = rng.randint(1, dim - 1)
            group = tuple(sorted(rng.sample(range(dim), size)))
            outside = [
                F(rng.randint(1, 32), 8) for _ in range(dim - size)
            ]
            target = c * min(outside)
            split = [F(rng.randint(0, 16)) for _ in range(size)]
            total = sum(split)
            if total == 0:
                inside = [target / size] * size
            else:
                inside = [s / total * target for s in split]
            w = [None] * dim
            for i, v in zip(group, inside):
                w[i] = v
            rest = iter(outside)
            for i in range(dim):
                if w[i] is None:
                    w[i] = next(rest)
            w = tuple(w)
            assert at_threshold(w, group, c)
            recs = inst.payload.records
            best = min(recs, key=lambda r: (augmented_evaluate(r, w), r.encoding))
            proj = tuple(ZERO if i in group else v for i, v in enumerate(w))
            opt = optimum_by_enumeration_weight(inst, proj)
            val = augmented_evaluate(best, proj)
            if opt == 0:
                assert val == 0
            else:
                assert val <= (1 + eps_prime) * opt
            checked += 1

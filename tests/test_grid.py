import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramgrid import DomainError, InvalidInstanceError, grid_points, snap
from paramgrid.errors import SnapRangeError
from paramgrid.grid import GridSpec
from paramgrid.model import ZERO


def reference_bounds(c, K, eps):
    """Independent high-precision evaluation of the exponent-range formulas."""
    import mpmath

    mpmath.mp.dps = 60
    base = mpmath.mpf(1) + mpmath.mpf(eps.numerator) / eps.denominator / 2
    small = (mpmath.mpf(c.numerator) / c.denominator) ** K / factorial(K + 1)
    lb = mpmath.floor(mpmath.log(small) / mpmath.log(base))
    ub = mpmath.ceil(mpmath.log(1 / small) / mpmath.log(base))
    return int(lb), int(ub)


def bounds(c, K, eps):
    spec = GridSpec(c, K, eps, (ZERO,) * K)
    return spec.lb, spec.ub


class TestGridBounds:
    def test_reference_case_k1(self):
        # log_{1.25}(0.1) ~ -10.319
        assert bounds(F(1, 5), 1, F(1, 2)) == (-11, 11)

    def test_reference_case_k2(self):
        # log_{1.25}(1/24) ~ -14.24
        assert bounds(F(1, 2), 2, F(1, 2)) == (-15, 15)

    def test_matches_high_precision_logs(self):
        rng = random.Random(3)
        for _ in range(60):
            K = rng.randint(1, 4)
            eps = F(rng.randint(1, 15), 16)
            c = F(rng.randint(1, 199), 200)
            lb, ub = bounds(c, K, eps)
            ref_lb, ref_ub = reference_bounds(c, K, eps)
            # Ties may widen by one; bracketing may never shrink.
            assert ref_lb - 1 <= lb <= ref_lb
            assert ref_ub <= ub <= ref_ub + 1

    def test_exact_power_widens(self):
        # c = 512/625 makes c^1/2! exactly base^-4 with base 5/4; the tie
        # rule widens both ends by one.
        base = F(5, 4)
        c = 2 * base**-4
        assert 0 < c < 1
        assert c / 2 == base**-4
        assert bounds(c, 1, F(1, 2)) == (-5, 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            bounds(F(3, 2), 1, F(1, 2))
        with pytest.raises(DomainError):
            bounds(F(1, 2), 1, F(3, 2))


rationals_in_unit = st.builds(
    F, st.integers(1, 63), st.integers(2, 64)
).filter(lambda v: v < 1)


class TestDerivedGrid:
    @settings(max_examples=150, deadline=None)
    @given(c=rationals_in_unit, eps=rationals_in_unit, K=st.integers(1, 4))
    def test_base_and_range_bracket_the_compact_box(self, c, eps, K):
        spec = GridSpec(c, K, eps, (ZERO,) * K)
        base, lb, ub = spec.base, spec.lb, spec.ub
        small = c**K / factorial(K + 1)
        assert base == 1 + eps / 2
        assert lb == -ub
        # the range brackets the box, widened by at most one step at a tie
        assert base**lb <= small < base ** (lb + 2)
        assert base ** (ub - 2) < 1 / small <= base**ub

    @settings(max_examples=50, deadline=None)
    @given(c=rationals_in_unit, eps=rationals_in_unit, K=st.integers(1, 4), anchor=st.integers(0, 9))
    def test_equal_for_every_input_spelling(self, c, eps, K, anchor):
        spec = GridSpec(c, K, eps, (F(anchor),) * K)
        spellings = [
            GridSpec(str(c), K, str(eps), [anchor] * K),
            GridSpec(c, K, eps, [str(anchor)] * K),
            GridSpec(F(c), K, F(eps), tuple([anchor] * K)),
        ]
        for other in spellings:
            assert other == spec
            assert hash(other) == hash(spec)

    @pytest.mark.parametrize("bad", [F(0), F(1), F(-1, 2), F(3, 2), 2])
    def test_c_and_eps_outside_unit_interval(self, bad):
        with pytest.raises(DomainError):
            GridSpec(bad, 1, F(1, 2), (ZERO,))
        with pytest.raises(DomainError):
            GridSpec(F(1, 2), 1, bad, (ZERO,))

    def test_lambda_min_of_wrong_length(self):
        with pytest.raises(InvalidInstanceError):
            GridSpec(F(1, 2), 2, F(1, 2), (ZERO,))

    @pytest.mark.parametrize("name", ["base", "lb", "ub"])
    def test_derived_fields_are_not_arguments(self, name):
        with pytest.raises(TypeError):
            GridSpec(F(1, 2), 1, F(1, 2), (ZERO,), **{name: 1})


class TestEnumeration:
    def test_powers_in_order(self):
        spec = GridSpec(F(1, 2), 1, F(1, 2), (ZERO,))
        pts = list(grid_points(spec))
        exponents = range(spec.lb, spec.ub + 1)
        assert [lam for _, lam in pts] == [(spec.base**i,) for i in exponents]
        assert [idx for idx, _ in pts] == [(i,) for i in exponents]

    def test_cardinality(self):
        spec = GridSpec(F(1, 2), 2, F(1, 2), (F(1), F(2)))
        pts = list(grid_points(spec))
        assert len(pts) == spec.span**2 == spec.size
        assert pts == sorted(pts)
        assert pts[0] == ((spec.lb, spec.lb), (1 + spec.base**spec.lb, 2 + spec.base**spec.lb))

    def test_lazy(self):
        spec = GridSpec(F(1, 100), 4, F(1, 64), (ZERO,) * 4)
        assert spec.size > 10**12
        stream = grid_points(spec)
        assert next(stream)[0] == (spec.lb,) * 4


class TestSnap:
    def _spec(self, eps=F(1, 2), K=1):
        return GridSpec(F(1, 2), K, eps, (ZERO,) * K)

    def test_offset_two(self):
        # (5/4)^3 = 125/64 <= 2 < (5/4)^4
        assert snap(self._spec(), (F(2),)) == (3,)

    def test_exact_power_is_left_edge(self):
        spec = self._spec()
        for j in (spec.lb, -3, 0, 5, spec.ub):
            assert snap(spec, (spec.base**j,)) == (j,)

    def test_offset_one(self):
        for eps in (F(1, 2), F(1, 4), F(1, 8)):
            assert snap(self._spec(eps=eps), (F(1),)) == (0,)

    def test_out_of_range_raises(self):
        spec = self._spec()
        with pytest.raises(SnapRangeError):
            snap(spec, (spec.base ** (spec.ub + 2),))
        with pytest.raises(SnapRangeError):
            snap(spec, (ZERO,))

    def test_cell_edges_are_exact(self):
        spec = self._spec()
        assert spec.powers == tuple(spec.base**i for i in range(spec.lb, spec.ub + 2))
        tiny = F(1, 10**30)
        assert snap(spec, (spec.base**spec.lb,)) == (spec.lb,)
        assert snap(spec, (spec.base ** (spec.ub + 1) - tiny,)) == (spec.ub,)
        for outside in (spec.base**spec.lb - tiny, spec.base ** (spec.ub + 1)):
            with pytest.raises(SnapRangeError):
                snap(spec, (outside,))

    def test_snap_soundness_bulk(self):
        # 10^5 random offsets in the bracketed box: base^m <= off <= base^{m+1}.
        rng = random.Random(11)
        eps_choices = [F(1, 2), F(1, 4), F(1, 8)]
        specs = []
        for eps in eps_choices:
            c = F(rng.randint(1, 60), 600)
            K = rng.randint(1, 3)
            specs.append(GridSpec(c, K, eps, (ZERO,) * K))
        for trial in range(100_000):
            spec = specs[trial % len(specs)]
            lo = spec.c**spec.K / factorial(spec.K + 1)
            hi = factorial(spec.K + 1) / spec.c**spec.K
            u = F(rng.randrange(10**6), 10**6)
            # geometric interpolation via a random split exponent
            j = rng.randint(spec.lb, spec.ub - 1)
            off = spec.base**j * (1 + u * (spec.base - 1))
            off = min(max(off, lo), hi)
            idx = snap(spec, (off,) * spec.K)
            m = idx[0]
            assert idx == (m,) * spec.K
            assert spec.lb <= m <= spec.ub
            assert spec.base**m <= off <= spec.base ** (m + 1)


class TestGridCellApproximation:
    def test_exact_optimizer_at_snapped_point_covers_cell(self, rng):
        # An exact optimizer at the snapped grid point is within (1 + eps/2)
        # of optimal at the original compact-box point.
        from conftest import optimum_by_enumeration, random_explicit, ratio_ok
        from paramgrid import evaluate
        from paramgrid.oracle import enumerate_solutions

        for _ in range(40):
            inst = random_explicit(rng, count=8, K=2, vmax=9)
            eps = F(rng.choice([1, 1]), rng.choice([2, 4]))
            spec = GridSpec(F(1, 10), inst.K, eps, inst.lambda_min)
            lam = tuple(
                lm + spec.base ** rng.randint(-6, 6) * (1 + F(rng.randint(0, 16), 16) * (spec.base - 1))
                for lm in inst.lambda_min
            )
            idx = snap(spec, lam)
            grid_lam = spec.point(idx)
            recs = enumerate_solutions(inst)
            best = min(recs, key=lambda r: (evaluate(inst, r, grid_lam), r.encoding))
            opt = optimum_by_enumeration(inst, lam)
            assert ratio_ok(inst, evaluate(inst, best, lam), opt, 1 + eps / 2)

import random
from fractions import Fraction as F
from math import factorial

import pytest

from paramgrid import DomainError, GridCapError, grid_bounds, grid_points, make_spec, snap
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


class TestGridBounds:
    def test_reference_case_k1(self):
        # log_{1.25}(0.1) ~ -10.319
        assert grid_bounds(F(1, 5), 1, F(1, 2)) == (-11, 11)

    def test_reference_case_k2(self):
        # log_{1.25}(1/24) ~ -14.24
        assert grid_bounds(F(1, 2), 2, F(1, 2)) == (-15, 15)

    def test_matches_high_precision_logs(self):
        rng = random.Random(3)
        for _ in range(60):
            K = rng.randint(1, 4)
            eps = F(rng.randint(1, 15), 16)
            c = F(rng.randint(1, 199), 200)
            lb, ub = grid_bounds(c, K, eps)
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
        assert grid_bounds(c, 1, F(1, 2)) == (-5, 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            grid_bounds(F(3, 2), 1, F(1, 2))
        with pytest.raises(DomainError):
            grid_bounds(F(1, 2), 1, F(3, 2))


class TestEnumeration:
    def test_three_powers(self):
        spec = GridSpec(eps=F(1), base=F(3, 2), lb=-1, ub=1, lambda_min=(ZERO,), K=1, c=F(1, 2))
        pts = list(grid_points(spec))
        assert [lam for _, lam in pts] == [(F(2, 3),), (F(1),), (F(3, 2),)]
        assert [idx for idx, _ in pts] == [(-1,), (0,), (1,)]

    def test_single_point(self):
        spec = GridSpec(eps=F(1, 2), base=F(5, 4), lb=0, ub=0, lambda_min=(F(1), F(2)), K=2, c=F(1, 2))
        pts = list(grid_points(spec))
        assert pts == [((0, 0), (F(2), F(3)))]

    def test_cardinality(self):
        spec = GridSpec(eps=F(1, 2), base=F(5, 4), lb=-1, ub=1, lambda_min=(ZERO, ZERO), K=2, c=F(1, 2))
        pts = list(grid_points(spec))
        assert len(pts) == 9 == spec.size
        assert pts == sorted(pts)

    def test_cap(self):
        spec = GridSpec(eps=F(1, 2), base=F(5, 4), lb=0, ub=99, lambda_min=(ZERO, ZERO), K=2, c=F(1, 2))
        with pytest.raises(GridCapError):
            next(grid_points(spec, cap=9999))

    def test_lazy(self):
        spec = GridSpec(eps=F(1, 2), base=F(5, 4), lb=0, ub=999, lambda_min=(ZERO,), K=1, c=F(1, 2))
        stream = grid_points(spec)
        assert next(stream)[0] == (0,)


class TestSnap:
    def _spec(self, base=F(3, 2), lb=-50, ub=50, K=1):
        return GridSpec(eps=F(1), base=base, lb=lb, ub=ub, lambda_min=(ZERO,) * K, K=K, c=F(1, 2))

    def test_offset_two_base_three_halves(self):
        assert snap(self._spec(), (F(2),)) == (1,)

    def test_exact_power_is_left_edge(self):
        spec = self._spec()
        for j in (-3, 0, 5):
            assert snap(spec, (spec.base**j,)) == (j,)

    def test_offset_one(self):
        for base in (F(3, 2), F(5, 4), F(9, 8)):
            assert snap(self._spec(base=base), (F(1),)) == (0,)

    def test_out_of_range_raises(self):
        spec = self._spec(lb=-2, ub=2)
        with pytest.raises(SnapRangeError):
            snap(spec, (spec.base**5,))
        with pytest.raises(SnapRangeError):
            snap(spec, (ZERO,))

    def test_cell_edges_are_exact(self):
        spec = self._spec(lb=-2, ub=2)
        assert spec.powers == tuple(spec.base**i for i in range(-2, 4))
        tiny = F(1, 10**30)
        assert snap(spec, (spec.base**-2,)) == (-2,)
        assert snap(spec, (spec.base**3 - tiny,)) == (2,)
        for outside in (spec.base**-2 - tiny, spec.base**3):
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
            specs.append(make_spec(c, K, eps, (ZERO,) * K))
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
            spec = make_spec(F(1, 10), inst.K, eps, inst.lambda_min)
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

"""Logarithmic parameter grid and cell snapping.

The grid lives on offsets from lambda_min: coordinate k of a grid point is
lambda_min_k + base^i with base = 1 + eps/2 and integer exponents i in
[lb, ub].  The exponent range brackets the compact parameter box
[c^K/(K+1)!, (K+1)!/c^K] per coordinate, so every point the query pipeline
produces snaps into the grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

from .errors import DomainError, SnapRangeError
from .model import Lambda, RationalLike, as_fraction, as_vector

#: Fractional parts closer than this to an integer trigger conservative widening.
TIE_TOLERANCE = 1e-9


def _float_log(value: Fraction) -> float:
    # Big rationals can overflow float conversion; log numerator and
    # denominator separately instead.
    return math.log(value.numerator) - math.log(value.denominator)


def compact_box(c: Fraction, K: int) -> tuple[Fraction, Fraction]:
    """Per-coordinate bounds c^K/(K+1)! and (K+1)!/c^K of the compact parameter box."""
    small = c**K / math.factorial(K + 1)
    return small, 1 / small


@dataclass(frozen=True)
class GridSpec:
    """The grid of accuracy eps for threshold c, K parameters and anchor lambda_min.

    The four init fields take ints, 'p/q' strings or Fractions (any sequence
    for ``lambda_min``); ``base`` = 1 + eps/2 and the exponent range
    [lb, ub] follow from them.  The box's bounds are reciprocal, so lb = -ub.
    A float estimate of log_base((K+1)!/c^K) within ``TIE_TOLERANCE`` of an
    integer is widened by one outward; an exact rational check afterwards
    guarantees base^ub >= (K+1)!/c^K, hence base^lb <= c^K/(K+1)!, regardless
    of float rounding.  As c^K/(K+1)! < 1/2, every grid has lb <= -1 and ub >= 1.
    """

    c: Fraction
    K: int
    eps: Fraction
    lambda_min: Lambda
    base: Fraction = field(init=False)
    lb: int = field(init=False)
    ub: int = field(init=False)

    def __post_init__(self):
        cc = as_fraction(self.c)
        ee = as_fraction(self.eps)
        if not (0 < cc < 1):
            raise DomainError(f"c must lie in (0,1), got {cc}")
        if not (0 < ee < 1):
            raise DomainError(f"eps must lie in (0,1), got {ee}")
        base = 1 + ee / 2
        big = compact_box(cc, self.K)[1]
        y = _float_log(big) / _float_log(base)
        if abs(y - round(y)) < TIE_TOLERANCE:
            ub = round(y) + 1
        else:
            ub = math.ceil(y)
        while base**ub < big:
            ub += 1
        lambda_min = as_vector(self.lambda_min, self.K)
        derived = dict(c=cc, eps=ee, lambda_min=lambda_min, base=base, lb=-ub, ub=ub)
        for name, value in derived.items():  # the dataclass is frozen
            object.__setattr__(self, name, value)

    @property
    def span(self) -> int:
        return self.ub - self.lb + 1

    @property
    def size(self) -> int:
        return self.span**self.K

    @cached_property
    def powers(self) -> tuple[Fraction, ...]:
        """Exact base^lb, ..., base^(ub+1), built on first use so set loads never pay for it."""
        return tuple(self.base**i for i in range(self.lb, self.ub + 2))

    @cached_property
    def _power_terms(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Numerators and denominators of ``powers``, for comparisons on integers."""
        return (
            tuple(v.numerator for v in self.powers),
            tuple(v.denominator for v in self.powers),
        )

    def floor_exponent(self, k: int, num: int, den: int) -> int:
        """Largest grid exponent m with base^m <= num/den, the offset of coordinate k.

        One bisection over the cached powers a/b counts those with
        a * den <= b * num.  An offset outside [base^lb, base^(ub+1))
        indicates an upstream bug and raises ``SnapRangeError``.
        """
        nums, dens = self._power_terms
        lo, hi = 0, len(nums)
        while lo < hi:
            mid = (lo + hi) // 2
            if nums[mid] * den <= dens[mid] * num:
                lo = mid + 1
            else:
                hi = mid
        # lo counts the powers <= num/den, so m = lb + lo - 1
        if not 1 <= lo <= self.span:
            raise SnapRangeError(
                f"offset {Fraction(num, den)} in coordinate {k} outside "
                f"[base^{self.lb}, base^{self.ub + 1})"
            )
        return self.lb + lo - 1

    def indices(self) -> Iterator[GridIndex]:
        """Every index vector of [lb, ub]^K in lexicographic order, the order set files store."""
        return product(range(self.lb, self.ub + 1), repeat=self.K)

    def point(self, index: Sequence[int]) -> Lambda:
        """Parameter vector of a grid index vector."""
        idx = tuple(index)
        if len(idx) != self.K:
            raise DomainError(f"index length {len(idx)} != K={self.K}")
        for i in idx:
            if not (self.lb <= i <= self.ub):
                raise DomainError(f"exponent {i} outside [{self.lb}, {self.ub}]")
        powers = self.powers
        return tuple(lm + powers[i - self.lb] for lm, i in zip(self.lambda_min, idx))


GridIndex = tuple[int, ...]


def fewest_points_exceed(K: int, limit: int) -> bool:
    """Whether 3^K, the fewest points of any grid with K parameters, exceeds ``limit``.

    Every grid spans at least 3 exponents per axis.  3^K > 2^K > limit once K
    exceeds the bit length of ``limit``, so 3^K is only computed for small K.
    """
    return K > limit.bit_length() or 3**K > limit


def grid_points(spec: GridSpec) -> Iterator[tuple[GridIndex, Lambda]]:
    """Stream (index, parameter vector) pairs in lexicographic index order."""
    for idx in spec.indices():
        yield idx, spec.point(idx)


def snap(spec: GridSpec, lam: Sequence[RationalLike]) -> GridIndex:
    """Grid index of the cell floor of a compact-box point.

    Coordinate k maps to the largest m_k with base^{m_k} <= lambda_k - lambda_min_k
    (``GridSpec.floor_exponent``).
    """
    vec = as_vector(lam, spec.K)
    offsets = (v - lm for v, lm in zip(vec, spec.lambda_min))
    return tuple(
        spec.floor_exponent(k, off.numerator, off.denominator) for k, off in enumerate(offsets)
    )

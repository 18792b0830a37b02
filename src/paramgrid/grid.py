"""Logarithmic parameter grid and cell snapping.

The grid lives on offsets from lambda_min: coordinate k of a grid point is
lambda_min_k + base^i with base = 1 + eps/2 and integer exponents i in
[lb, ub].  The exponent range brackets the compact parameter box
[c^K/(K+1)!, (K+1)!/c^K] per coordinate, so every point the query pipeline
produces snaps into the grid.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

from .errors import DomainError, GridCapError, SnapRangeError
from .model import Lambda, RationalLike, as_fraction, as_vector

#: Fractional parts closer than this to an integer trigger conservative widening.
TIE_TOLERANCE = 1e-9

#: Default refusal threshold for grid enumeration.
DEFAULT_GRID_CAP = 10**8


def _float_log(value: Fraction, base: Fraction) -> float:
    # Big rationals can overflow float conversion; log numerator and
    # denominator separately instead.
    num = math.log(value.numerator) - math.log(value.denominator)
    den = math.log(base.numerator) - math.log(base.denominator)
    return num / den


def grid_bounds(c: RationalLike, K: int, eps: RationalLike) -> tuple[int, int]:
    """Exponent range bracketing the compact box, with conservative ties.

    Float logarithms whose fractional part is within ``TIE_TOLERANCE`` of an
    integer are widened by one outward; an exact rational check afterwards
    guarantees base^lb <= c^K/(K+1)! and base^ub >= (K+1)!/c^K regardless of
    float rounding.
    """
    cc = as_fraction(c)
    ee = as_fraction(eps)
    if not (0 < cc < 1):
        raise DomainError(f"c must lie in (0,1), got {cc}")
    if not (0 < ee < 1):
        raise DomainError(f"eps must lie in (0,1), got {ee}")
    base = 1 + ee / 2
    small = cc**K / math.factorial(K + 1)

    x = _float_log(small, base)
    if abs(x - round(x)) < TIE_TOLERANCE:
        lb = round(x) - 1
    else:
        lb = math.floor(x)
    y = _float_log(1 / small, base)
    if abs(y - round(y)) < TIE_TOLERANCE:
        ub = round(y) + 1
    else:
        ub = math.ceil(y)

    while base**lb > small:
        lb -= 1
    while base**ub < 1 / small:
        ub += 1
    return lb, ub


@dataclass(frozen=True)
class GridSpec:
    """Frozen description of one grid: base, exponent range and anchor."""

    eps: Fraction
    base: Fraction
    lb: int
    ub: int
    lambda_min: Lambda
    K: int
    c: Fraction

    def __post_init__(self):
        if self.lb > self.ub:
            raise DomainError("lb must not exceed ub")
        if self.base <= 1:
            raise DomainError("base must exceed 1")

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


def make_spec(
    c: RationalLike,
    K: int,
    eps: RationalLike,
    lambda_min: Sequence[RationalLike],
) -> GridSpec:
    cc = as_fraction(c)
    ee = as_fraction(eps)
    lb, ub = grid_bounds(cc, K, ee)
    return GridSpec(
        eps=ee,
        base=1 + ee / 2,
        lb=lb,
        ub=ub,
        lambda_min=as_vector(lambda_min, K),
        K=K,
        c=cc,
    )


GridIndex = tuple[int, ...]


def grid_points(spec: GridSpec, cap: int = DEFAULT_GRID_CAP) -> Iterator[tuple[GridIndex, Lambda]]:
    """Stream (index, parameter vector) pairs in lexicographic index order."""
    if spec.size > cap:
        raise GridCapError(spec.size, cap)
    for idx in spec.indices():
        yield idx, spec.point(idx)


def snap(spec: GridSpec, lam: Sequence[RationalLike]) -> GridIndex:
    """Grid index of the cell floor of a compact-box point.

    Coordinate k maps to the largest m_k with base^{m_k} <= lambda_k - lambda_min_k,
    found exactly by bisection over the powers in ``spec.powers``.  Offsets outside
    [base^lb, base^(ub+1)) indicate an upstream bug and raise ``SnapRangeError``.
    """
    vec = as_vector(lam, spec.K)
    powers = spec.powers
    idx = []
    for k, (v, lm) in enumerate(zip(vec, spec.lambda_min)):
        offset = v - lm
        # pos counts the powers <= offset, so m_k = lb + pos - 1
        pos = bisect_right(powers, offset)
        if not 1 <= pos <= spec.span:
            raise SnapRangeError(
                f"offset {offset} in coordinate {k} outside [base^{spec.lb}, base^{spec.ub + 1})"
            )
        idx.append(spec.lb + pos - 1)
    return tuple(idx)

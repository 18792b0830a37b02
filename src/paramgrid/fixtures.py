"""Hard-instance fixtures with machine-checked facts.

Three families of explicit instances witness the limits of oracle-driven
cover construction:

* ``section3``: one solution is beta-good everywhere yet never optimal, so
  any cover built from exact-oracle answers needs all K+1 remaining
  solutions while the minimum cover is a singleton; K <= ``MAX_SECTION3_K``.
* ``appendix-example``: a published seven-solution instance where a smaller
  cover than claimed exists; every printed inequality is checked exactly.
* ``appendix-proof``: the corrected chain of L solutions, each uniquely
  needed at its witness weight, with near-duplicates that force
  exponentially fine oracle accuracy to distinguish.

All facts are verified in exact rational arithmetic; sampled facts draw
deterministic weights from a seeded generator.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, InvalidInstanceError, TooLargeError
from .model import (
    ProblemInstance,
    Sense,
    SolutionRecord,
    Weight,
    ZERO,
    _integer_rows,
    _values,
    as_fraction,
    explicit_instance,
)
from .oracle import verify_on_weights


@dataclass
class FactCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class FixtureReport:
    """A fixture's facts; ``parameters`` are kept as the strings the CLI prints."""

    fixture: str
    parameters: dict[str, str]
    facts: list[FactCheck]
    passed: bool = field(init=False)

    def __post_init__(self):
        self.parameters = {k: str(v) for k, v in self.parameters.items()}
        self.passed = all(f.passed for f in self.facts)


@dataclass(frozen=True)
class GadgetInstance:
    """An explicit fixture instance and its named witness weights."""

    instance: ProblemInstance
    witnesses: dict[str, tuple[Weight, ...]]

    def record(self, name: str) -> SolutionRecord:
        for rec in self.instance.payload.records:
            if rec.encoding == ("explicit", name):
                return rec
        raise KeyError(name)


def _explicit(name: str, F: Sequence[Fraction]) -> SolutionRecord:
    return SolutionRecord(encoding=("explicit", name), F=tuple(F))


def _simplex_weights(rng: random.Random, dim: int, count: int) -> list[Weight]:
    out = []
    while len(out) < count:
        raw = [Fraction(rng.randrange(721)) for _ in range(dim)]
        total = sum(raw, ZERO)
        if total == 0:
            continue
        out.append(tuple(v / total for v in raw))
    return out


def _separated(records: Sequence[SolutionRecord], witnesses: Sequence[Weight], factor) -> bool:
    """Each record, times ``factor``, is strictly cheaper than every other at its own witness."""
    rows = _integer_rows(records)[0]
    for i, w in enumerate(witnesses):
        values = _values(rows, w)
        if factor * values.pop(i) >= min(values):
            return False
    return True


# ---------------------------------------------------------------------------
# section3: forced (K+1)-cover instance
# ---------------------------------------------------------------------------


#: Largest K that ``forced_cover_gadget`` builds.  ``paramgrid verify --fixture section3
#: --K 100`` with the default 1,000 samples took 2.1 s at 27 MB max RSS (2-core Xeon).
MAX_SECTION3_K = 100


def forced_cover_gadget(beta, K: int) -> GadgetInstance:
    """Instance where the singleton cover exists but oracles cannot find it.

    The all-round solution is beta-approximate for every weight yet strictly
    suboptimal everywhere; the witness weights make each spike solution
    uniquely beta-good, so a cover avoiding the all-round solution needs all
    K+1 spikes.  A K above ``MAX_SECTION3_K`` raises ``TooLargeError``.
    """
    b = as_fraction(beta)
    if b <= 1:
        raise InvalidInstanceError("beta must exceed 1")
    if K < 1:
        raise InvalidInstanceError("K must be a positive integer")
    if K > MAX_SECTION3_K:
        raise TooLargeError(f"fixture section3 needs K <= {MAX_SECTION3_K}")
    allround = _explicit("x", [(K + 1) * b] * (K + 1))
    spikes = []
    for i in range(K + 1):
        F = [(K + 2) * b - 1] * K
        F.insert(i, Fraction(K + 1))
        spikes.append(_explicit(f"x{i}", F))
    instance = explicit_instance([allround, *spikes], sense=Sense.MIN, K=K)

    witnesses = _spike_witnesses(b, K, spikes)
    return GadgetInstance(
        instance=instance,
        witnesses={"spike": witnesses, "unit": tuple(_unit_weights(K))},
    )


def _unit_weights(K: int) -> list[Weight]:
    return [
        tuple(Fraction(1) if j == i else ZERO for j in range(K + 1))
        for i in range(K + 1)
    ]


def _spike_witnesses(b: Fraction, K: int, spikes: list[SolutionRecord]) -> tuple[Weight, ...]:
    # Perturbed unit weights w^i with w^i_i = 1 - K*t/(K+1); halve t until
    # each spike is strictly more than beta-better than all others.
    t = (b - 1) / ((b + 1) * (K + 2))
    while True:
        witnesses = []
        for i in range(K + 1):
            w = [t / (K + 1)] * (K + 1)
            w[i] = 1 - K * t / (K + 1)
            witnesses.append(tuple(w))
        if _separated(spikes, witnesses, b):
            return tuple(witnesses)
        t /= 2
        if t == 0:  # pragma: no cover - continuity guarantees termination
            raise DomainError("no witness perturbation found")


def check_section3(beta, K: int, samples: int = 10_000, seed: int = 0) -> FixtureReport:
    gadget = forced_cover_gadget(beta, K)
    b = as_fraction(beta)
    allround = gadget.record("x")
    spikes = [gadget.record(f"x{i}") for i in range(K + 1)]
    rng = random.Random(seed)
    weights = _simplex_weights(rng, K + 1, samples)

    facts: list[FactCheck] = []

    rows = _integer_rows([allround, *spikes])[0]
    never_optimal = all(min(v[1:]) < v[0] for v in (_values(rows, w) for w in weights))
    facts.append(
        FactCheck(
            "never-optimal",
            never_optimal,
            "some spike beats the all-round solution at every sampled weight",
        )
    )

    report = verify_on_weights(gadget.instance, [allround], b, weights + list(gadget.witnesses["unit"]))
    facts.append(
        FactCheck(
            "singleton-cover",
            report.passed,
            f"worst ratio {report.worst_ratio} <= beta over {report.samples_tested} weights",
        )
    )

    facts.append(
        FactCheck(
            "forced-k-plus-1",
            _separated(spikes, gadget.witnesses["spike"], b),
            f"dropping any of the {K + 1} spikes fails beta at its witness weight, "
            f"so every cover of the witnesses holds all {K + 1}",
        )
    )
    return FixtureReport("section3", {"beta": b, "K": K, "samples": samples, "seed": seed}, facts)


# ---------------------------------------------------------------------------
# appendix-example: seven-solution smaller-cover counterexample
# ---------------------------------------------------------------------------


def _example_values(b: Fraction, z0: Fraction):
    big = 2 * b**6 - b**2
    x = _explicit("x", (b * z0, Fraction(1), Fraction(1)))
    x1 = _explicit("x1", (z0, b**2, big))
    x2 = _explicit("x2", (z0, b**4, b**4))
    x3 = _explicit("x3", (z0, big, b**2))
    xb = [
        _explicit(f"xb{i}", (z0 - 1, xi.F[1], xi.F[2]))
        for i, xi in enumerate((x1, x2, x3), start=1)
    ]
    return x, (x1, x2, x3), xb


def _example_witnesses(b: Fraction) -> tuple[Weight, Weight, Weight]:
    # Printed triples act with zero weight on the first component.
    heavy = 2 * b**7 - b**3 - b**4 + 1
    light = b**4 - b**3
    return (
        (ZERO, heavy, light),
        (ZERO, Fraction(1), Fraction(1)),
        (ZERO, light, heavy),
    )


def small_cover_gadget(beta, z0) -> GadgetInstance:
    """The published seven-solution counterexample: x, its tail and their near-duplicates."""
    b = as_fraction(beta)
    z = as_fraction(z0)
    if b <= 1:
        raise InvalidInstanceError("beta must exceed 1")
    if z < b**2 / (b - 1) + 1:
        raise InvalidInstanceError(
            f"z0 must be at least beta^2/(beta-1) + 1 = {b ** 2 / (b - 1) + 1}"
        )
    x, tail, xb = _example_values(b, z)
    return GadgetInstance(
        instance=explicit_instance([x, *tail, *xb], sense=Sense.MIN, K=2),
        witnesses={"pairwise": _example_witnesses(b)},
    )


def check_appendix_example(beta, z0, samples: int = 10_000, seed: int = 0) -> FixtureReport:
    b = as_fraction(beta)
    z = as_fraction(z0)
    gadget = small_cover_gadget(b, z)
    x = gadget.record("x")
    tail = [gadget.record(f"x{i}") for i in (1, 2, 3)]
    xb = [gadget.record(f"xb{i}") for i in (1, 2, 3)]
    witnesses = gadget.witnesses["pairwise"]
    rng = random.Random(seed)

    facts: list[FactCheck] = []

    dominates = all(b * x.F[i] < rec.F[i] for rec in tail for i in (1, 2))
    facts.append(FactCheck("x-dominates-tail", dominates, "beta*F_i(x) < F_i(x^l), i=1,2"))

    facts.append(
        FactCheck(
            "pairwise-separation",
            _separated(tail, witnesses, b),
            "each tail solution is uniquely beta-good at its printed weight",
        )
    )

    bound = (b**5 - 1) / b
    rows = _integer_rows([x, *xb])[0]  # x, xb1, xb2, xb3
    regional = True
    for _ in range(samples // 3):
        w1 = Fraction(rng.randrange(1, 721), 720)
        w2 = Fraction(rng.randrange(1, 721), 720)
        edge = bound * (w1 + w2)
        scale = Fraction(rng.randrange(721), 720)
        high = edge * (1 + scale)
        low = (edge * scale, w1, w2)
        ordered = (high, max(w1, w2), min(w1, w2))
        flipped = (high, min(w1, w2), max(w1, w2))
        for row, w in ((0, low), (1, ordered), (3, flipped)):
            values = _values(rows, w)
            regional &= values[row] <= b * values[2]
    facts.append(
        FactCheck(
            "regional-domination",
            regional,
            "x, xb1, xb3 dominate xb2 in their printed weight regions",
        )
    )

    cover_report = verify_on_weights(
        gadget.instance, [x, xb[0], xb[2]], b, _simplex_weights(rng, 3, samples)
    )
    facts.append(
        FactCheck(
            "three-solution-cover",
            cover_report.passed,
            f"worst ratio {cover_report.worst_ratio} over {cover_report.samples_tested} weights",
        )
    )

    facts.append(
        FactCheck(
            "leave-one-out-fails",
            _separated(xb, witnesses, b),
            "dropping any tail solution fails at its witness weight",
        )
    )
    parameters = {"beta": b, "z0": z, "samples": samples, "seed": seed}
    return FixtureReport("appendix-example", parameters, facts)


# ---------------------------------------------------------------------------
# appendix-proof: corrected separation chain
# ---------------------------------------------------------------------------


def separation_chain(beta, z0, L: int) -> GadgetInstance:
    """Chain of L solutions, each uniquely needed at its witness weight."""
    b = as_fraction(beta)
    z = as_fraction(z0)
    if not (z >= b > 1):
        raise InvalidInstanceError("requires z0 >= beta > 1")
    if L < 2:
        raise InvalidInstanceError("chain length L must be at least 2")
    m = 2 * z * b
    star = _explicit("xstar", (b * z, m ** (-2 - L), m ** (-2 - L)))
    chain = [
        _explicit(f"x{el}", (z, m ** (el - L), m ** (1 - el)))
        for el in range(1, L + 1)
    ]
    near = [
        _explicit(f"xb{el}", (z - 1, rec.F[1], rec.F[2]))
        for el, rec in enumerate(chain, start=1)
    ]
    witnesses = tuple(
        (ZERO, m ** (L - el), m ** (el - 1)) for el in range(1, L + 1)
    )
    return GadgetInstance(
        instance=explicit_instance([star, *chain, *near], sense=Sense.MIN, K=2),
        witnesses={"chain": witnesses},
    )


def check_appendix_proof(beta, z0, L: int) -> FixtureReport:
    b = as_fraction(beta)
    z = as_fraction(z0)
    gadget = separation_chain(b, z, L)
    star = gadget.record("xstar")
    chain = [gadget.record(f"x{el}") for el in range(1, L + 1)]
    witnesses = gadget.witnesses["chain"]

    facts: list[FactCheck] = []
    dominates = all(b * star.F[i] < rec.F[i] for rec in chain for i in (1, 2))
    facts.append(FactCheck("star-dominates", dominates, "beta*F_i(x*) < F_i(x^l), i=1,2"))

    facts.append(
        FactCheck(
            "chain-separation",
            _separated(chain, witnesses, (b - 1) * z + b),
            "((beta-1)z0+beta)-scaled own value stays below every other chain value",
        )
    )
    return FixtureReport("appendix-proof", {"beta": b, "z0": z, "L": L}, facts)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

FIXTURES: dict[str, dict] = {
    "section3": {
        "parameters": ["beta", "K"],
        "description": "forced (K+1)-cover instance; singleton cover unreachable by exact oracles",
    },
    "appendix-example": {
        "parameters": ["beta", "z0"],
        "description": "published counterexample pair with a three-solution cover",
    },
    "appendix-proof": {
        "parameters": ["beta", "z0", "L"],
        "description": "corrected separation chain forcing exponentially fine oracle accuracy",
    },
}


def check_fixture(
    name: str,
    *,
    beta,
    K: int | None = None,
    z0=None,
    L: int | None = None,
    samples: int = 10_000,
    seed: int = 0,
) -> FixtureReport:
    """Run fixture ``name`` with the parameters that ``FIXTURES`` lists for it."""
    if name not in FIXTURES:
        raise InvalidInstanceError(f"unknown fixture {name!r}; known: {sorted(FIXTURES)}")
    given = {"beta": beta, "K": K, "z0": z0, "L": L}
    missing = [p for p in FIXTURES[name]["parameters"] if given[p] is None]
    if missing:
        raise InvalidInstanceError(f"fixture {name} needs {' and '.join(missing)}")
    args = [given[p] for p in FIXTURES[name]["parameters"]]
    if name == "section3":
        return check_section3(*args, samples=samples, seed=seed)
    if name == "appendix-example":
        return check_appendix_example(*args, samples=samples, seed=seed)
    return check_appendix_proof(*args)

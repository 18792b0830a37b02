"""Workload runners: set-up, timed loop, correctness gate and metrics.

One runner serves both kinds of workload.  A *fit* workload repeats passes
of ``approximate`` and ``save_approximation_set`` over its instances until
the time is up; after each pass it loads the sets, runs a batch of queries,
verifies them and repeats its set-up.  A *read* workload fits and saves its
sets in its set-up, so its passes only load, query, verify and repeat the
set-up.  Every end-to-end metric is therefore measured on every workload; on
a read workload the fit-side ones come from the set-up fits.

Timings are paced by a reference.  The shared 2-core machine this was sized
on changes speed from one tenth of a second to the next (a fixed Fraction
loop takes 0.6 ms to 1.2 ms), and some runs stay slow for seconds, so plain
medians of wall time varied 20-70% between runs.  Each timed sample is
therefore divided by the time of ``reference_work`` measured just before
and after it, in the same state, and multiplied by ``REFERENCE_S``, the
reference's duration at nominal speed.  Fits and verifies, which take up
to seconds, are paced in segments of ``SEGMENT_S`` (see ``Pacer``), query
latencies in batches of ``BATCH``.  A metric is the median of its samples at
nominal speed, and query percentiles are taken over every query of the run;
the plain figures are printed as notes.  A change to the library moves the
samples and not the reference, so it shows in full.

With ``trace`` the same steps run with spans around each layer, alternating
untraced and traced passes so the tracing overhead can be measured, followed
by one cProfile pass (Fraction call counts of a bare fit pass, or of bare
``query`` calls on a read workload) and one tracemalloc pass.
"""
from __future__ import annotations

import contextlib
import os
import signal
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from workloads import Case, build_cases, query_lambdas, rng_for  # also puts src/ on sys.path

from paramgrid import approximate, grid_points, query, sample_parameters_labeled
from paramgrid import verify_approximation_set
from paramgrid.oracle import enumerate_solutions
from paramgrid.serialization import load_approximation_set, save_approximation_set

import tracing
from gate import Gate, Reference, answer_ok, same_set, set_problems

#: End-to-end metrics and units, reported with ``--trace 0`` on every workload.
END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "oracle_calls": "count",
    "set_bytes": "bytes",
    "save_s": "s",
    "set_load_s": "s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "queries_per_s": "1/s",
    "verify_s": "s",
}

SOLVER_LAYERS = (
    "solvers.mincut",
    "solvers.knapsack",
    "solvers.knapsack_scaling",
    "solvers.independence",
    "oracle.exhaustive",
)

#: Per-layer metrics and units, reported with ``--trace 1`` on every workload.
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in SOLVER_LAYERS
       for kind, unit in (("calls", "count"), ("busy_s", "s"))},
    "oracle.enumerate_s": "s",
    "oracle.verify_s": "s",
    "engine.self_s": "s",
    "engine.oracle_calls": "count",
    "engine.new_solution_ratio": "ratio",
    "engine.oracle_share": "ratio",
    "engine.lookup_s": "s",
    "engine.fit_peak_bytes": "bytes",
    "grid.points": "count",
    "grid.enumerate_s": "s",
    "grid.coord_bits_max": "bits",
    "grid.snap_s": "s",
    "grid.snap_calls": "count",
    "weights.to_weight_s": "s",
    "weights.lift_s": "s",
    "weights.lift_steps": "count",
    "weights.from_weight_s": "s",
    "serialization.save_s": "s",
    "serialization.load_s": "s",
    "serialization.bytes": "bytes",
    "fractions.new": "count",
    "fractions.ops": "count",
    "set_solutions": "count",
    "trace.overhead_s": "s",
}

#: A reference is measured before every this many queries, to pace their latencies.
BATCH = 250

#: Times a fit pass writes each set; ``save_s`` is the median of these writes.
SAVE_ROUNDS = 3

#: Seeded probe points per set for ``verify_approximation_set``.
VERIFY_SAMPLES = 1000

#: Nominal duration of one ``reference_work`` call.  It only sets the scale
#: of paced times; the call takes 0.6-1.2 ms on a 2.1 GHz Xeon core.
REFERENCE_S = 1e-3

#: Inside ``Pacer.ticking`` a reference is taken this often (seconds).
SEGMENT_S = 0.05


def reference_work() -> Fraction:
    """Fixed pure-Python Fraction arithmetic, the same kind of work as the library's."""
    x = Fraction(1)
    for i in range(1, 101):
        x = x * Fraction(3, 2) / Fraction(5, 4) + Fraction(1, i)
    return x


def reference() -> float:
    """Seconds ``reference_work`` takes right now (median of three calls)."""
    runs = []
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


def latency_stats(values: list[float]) -> tuple[float, float, float]:
    """(p50, p99, mean) of latencies; zeros when there are none."""
    if len(values) < 2:
        return (values[0],) * 3 if values else (0.0, 0.0, 0.0)
    return (statistics.median(values), statistics.quantiles(values, n=100)[98],
            statistics.fmean(values))


class Pacer:
    """A stopwatch that reads wall time and wall time at nominal speed.

    Time runs in segments.  A segment ends with a reference measurement, whose
    own duration is left out, and is paced by the references at its two ends.
    ``split`` ends one at once.  Inside ``ticking()`` an interval timer also
    ends one every ``SEGMENT_S``, so a fit or verify call of a second or more
    is paced while the machine's speed changes within it, not only at its
    ends.  The timer's handler runs in the one benchmark thread, between
    bytecodes of the library call it interrupts.
    """

    def __init__(self):
        self.wall = self.nominal = 0.0
        self.ref = reference()
        self.start = time.perf_counter()
        self._busy = False

    def split(self) -> tuple[float, float]:
        """End the segment; (wall, nominal) seconds since the pacer started."""
        self._busy = True
        elapsed = time.perf_counter() - self.start
        ref = reference()
        self.wall += elapsed
        self.nominal += elapsed * REFERENCE_S * 2 / (self.ref + ref)
        self.ref = ref
        self.start = time.perf_counter()
        self._busy = False
        return self.wall, self.nominal

    def _on_timer(self, _signum, _frame) -> None:
        if not self._busy:
            self.split()

    @contextlib.contextmanager
    def ticking(self, on: bool = True):
        """End a segment every ``SEGMENT_S`` while the block runs (if ``on``)."""
        if not on:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S, SEGMENT_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def since(self, mark: tuple[float, float] = (0.0, 0.0)) -> tuple[float, float]:
        """(wall, nominal) seconds since ``mark``, an earlier ``split``."""
        wall, nominal = self.split()
        return wall - mark[0], nominal - mark[1]


class Timings:
    """Timing samples by key: wall time and wall time at nominal speed."""

    def __init__(self):
        self.nominal: dict[str, list[float]] = defaultdict(list)
        self.raw: dict[str, list[float]] = defaultdict(list)

    def add(self, key: str, wall: float, nominal: float) -> None:
        self.raw[key].append(wall)
        self.nominal[key].append(nominal)

    def add_between(self, key: str, wall: float, ref: float) -> None:
        """One sample paced by ``ref``, the mean of the references taken around it."""
        self.add(key, wall, wall * REFERENCE_S / ref)

    def paced(self, key: str) -> float:
        """Median sample at nominal speed."""
        values = self.nominal.get(key)
        return statistics.median(values) if values else 0.0

    def plain(self, key: str) -> float:
        raw = self.raw.get(key)
        return statistics.median(raw) if raw else 0.0

    def add_latencies(self, latencies_ns: list[int], refs: list[float]) -> None:
        """Each query's latency, paced by the references around its batch.

        ``refs[b]`` was measured before batch b, and the last one after the
        last batch.
        """
        for j, value in enumerate(latencies_ns):
            b = j // BATCH
            ref = (refs[b] + refs[min(b + 1, len(refs) - 1)]) / 2
            self.add_between("query_us", value / 1e3, ref)

    def read_metrics(self) -> dict[str, float]:
        """Read-side metrics; query latencies are pooled over the whole run."""
        p50, p99, mean = latency_stats(self.nominal.get("query_us", []))
        return {
            "set_load_s": self.paced("set_load_s"),
            "query_p50_us": p50,
            "query_p99_us": p99,
            "queries_per_s": 1e6 / mean if mean else 0.0,
            "verify_s": self.paced("verify_s"),
        }

    def notes(self, metrics: dict[str, float]) -> dict[str, str]:
        """Plain medians of the same samples, and the machine speed seen."""
        notes = {f"plain {key}": f"{self.plain(key):.6g}" for key in metrics if key in self.raw}
        p50, p99, _mean = latency_stats(self.raw.get("query_us", []))
        notes["plain query_p50_us"] = f"{p50:.6g}"
        notes["plain query_p99_us"] = f"{p99:.6g}"
        speeds = [wall / nominal for key in self.raw
                  for wall, nominal in zip(self.raw[key], self.nominal[key]) if nominal]
        median_ms = statistics.median(speeds) * REFERENCE_S * 1e3
        notes["reference"] = f"{median_ms:.4f} ms median (nominal {REFERENCE_S * 1e3:g} ms)"
        return notes


@dataclass
class Result:
    metrics: dict[str, float]
    units: dict[str, str]
    gate: Gate
    notes: dict[str, object] = field(default_factory=dict)
    tracer: tracing.Tracer | None = None


@dataclass
class Fitted:
    """One case with its reference set and the file it is written to."""

    case: Case
    path: Path
    aset: object = None
    calls: int = 0
    ref: Reference | None = None


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def fit(case: Case, eps: Fraction, tracer=None):
    """(set, oracle calls) for one ``approximate`` call."""
    oracle, counters = tracing.counted(case.oracle, case.layer, tracer)
    with _span(tracer, "engine.approximate"):
        aset = approximate(case.instance, eps, oracle)
    return aset, sum(c.calls for c in counters)


def save(aset, path: Path, tracer=None) -> None:
    with _span(tracer, "serialization.save"):
        save_approximation_set(aset, str(path))


def load_all(items: list[Fitted], gate: Gate, tracer=None) -> float:
    """Load every set file; each load must give back the fitted set."""
    loaded, elapsed = [], 0.0
    for item in items:
        start = time.perf_counter()
        try:
            with _span(tracer, "serialization.load"):
                aset = load_approximation_set(str(item.path))
        except Exception:  # noqa: BLE001 - count the failure and go on
            gate.error(f"load {item.case.name}")
            continue
        elapsed += time.perf_counter() - start
        loaded.append((item, aset))
    for item, aset in loaded:
        gate.record(same_set(aset, item.aset),
                    f"load {item.case.name}: set differs from the fitted one")
    return elapsed


def run_queries(batches, gate: Gate, tracer=None):
    """Closed loop, one caller: (answers per set, latencies ns, references, lift steps).

    The sets take turns query by query, so every run of consecutive
    latencies has the same mix of sets.  A reference is measured before
    every ``BATCH`` queries, outside the latencies.
    """
    latencies, refs, depth = [], [], 0
    answers = [[] for _ in batches]
    clock = time.perf_counter_ns
    for j in range(max((len(lams) for _item, lams in batches), default=0)):
        for (item, lams), got in zip(batches, answers):
            if j >= len(lams):
                continue
            if len(latencies) % BATCH == 0 and len(refs) <= len(latencies) // BATCH:
                refs.append(reference())
            lam = lams[j]
            try:
                if tracer is None:
                    start = clock()
                    rec = query(item.aset, item.case.instance, lam)
                    latencies.append(clock() - start)
                else:
                    start = clock()
                    rec, steps = tracing.staged_query(item.aset, item.case.instance, lam, tracer)
                    latencies.append(clock() - start)
                    depth += steps
            except Exception:  # noqa: BLE001
                gate.error(f"query {item.case.name} at {lam}")
                rec = None
            got.append(rec)
    refs.append(reference())
    return answers, latencies, refs, depth


def check_answers(batches, answers, gate: Gate, expected=None):
    """Each answer is guarantee-approximate, or equal to ``expected`` when given."""
    for b, ((item, lams), got) in enumerate(zip(batches, answers)):
        for j, (lam, rec) in enumerate(zip(lams, got)):
            if rec is None:
                continue  # already counted by run_queries
            if expected is not None:
                ok = rec == expected[b][j]
            else:
                ok = answer_ok(rec, item.case.instance, lam, item.ref, item.aset.guarantee)
            gate.record(ok, f"query {item.case.name} at {lam}")


def verify_all(checks, gate: Gate, tracer=None) -> None:
    """``verify_approximation_set`` on each set's probes; all must pass."""
    for item, samples in checks:
        if tracer is not None:
            with tracer.span("oracle.enumerate"):
                enumerate_solutions(item.case.instance)
        try:
            with _span(tracer, "oracle.verify"):
                report = verify_approximation_set(
                    item.case.instance, item.aset, item.aset.guarantee, samples
                )
        except Exception:  # noqa: BLE001
            gate.error(f"verify {item.case.name}")
            continue
        gate.record(report.passed, f"verify {item.case.name}: worst ratio {report.worst_ratio}")


def prepare(items: list[Fitted], workload: str, seed: int, params: dict):
    """References, seeded query batches and verify probes for the fitted sets."""
    per_set = max(1, params["queries"] // max(1, len(items)))
    batches, checks = [], []
    for item in items:
        item.ref = Reference(item.case.instance)
        rng = rng_for(workload, f"queries/{item.case.name}", seed)
        batches.append((item, query_lambdas(rng, item.case.instance, item.aset.c, per_set)))
        if item.ref.enumerable:
            probe_seed = rng_for(workload, f"verify/{item.case.name}", seed).randrange(2**32)
            checks.append((item, sample_parameters_labeled(
                item.case.instance, item.aset.spec, VERIFY_SAMPLES, probe_seed)))
    return batches, checks


def exercise(items, batches, checks, params, gate, timings: Timings, tracer, expected):
    """One round of the read side: load, query batch, verify.  Returns (answers, lift steps)."""
    for _ in range(params["load_rounds"]):
        ref = reference()
        elapsed = load_all(items, gate, tracer)
        timings.add_between("set_load_s", elapsed, (ref + reference()) / 2)
    answers, latencies, refs, depth = run_queries(batches, gate, tracer)
    timings.add_latencies(latencies, refs)
    if expected is not None:
        check_answers(batches, answers, gate, expected)
    for _ in range(params["verify_rounds"]):
        pacer = Pacer()
        with pacer.ticking(on=tracer is None):
            verify_all(checks, gate, tracer)
        timings.add("verify_s", *pacer.since())
    return answers, depth


def check_fits(items: list[Fitted], workload: str, seed: int, gate: Gate):
    """Full check of each reference set against the exact optimum."""
    for item in items:
        rng = rng_for(workload, f"grid-check/{item.case.name}", seed)
        problems = set_problems(item.aset, item.case.instance, item.ref, 40, rng)
        gate.record(not problems, f"fit {item.case.name}: {'; '.join(problems[:3])}")


def check_staged(batches, answers, gate: Gate):
    """Traced queries replay ``query`` stage by stage; both must agree."""
    if gate.failed == 0:
        expected = [[query(item.aset, item.case.instance, lam) for lam in lams]
                    for item, lams in batches]
        check_answers(batches, answers, gate, expected)


def fit_layer_row(tracer: tracing.Tracer, fit_total: float) -> dict[str, float]:
    """Per-layer numbers of one traced fit pass."""
    row = {}
    for layer in SOLVER_LAYERS:
        row[f"{layer}.calls"] = tracer.calls.get(layer, 0)
        row[f"{layer}.busy_s"] = tracer.seconds(layer)
    busy = sum(tracer.seconds(layer) for layer in SOLVER_LAYERS)
    approx = tracer.seconds("engine.approximate")
    row["engine.oracle_calls"] = sum(tracer.calls.get(layer, 0) for layer in SOLVER_LAYERS)
    row["engine.self_s"] = tracer.self_seconds("engine.approximate")
    row["engine.oracle_share"] = busy / approx if approx else 0.0
    row["serialization.save_s"] = tracer.seconds("serialization.save") / SAVE_ROUNDS
    row["fit_total"] = fit_total
    return row


def read_layer_row(tracer: tracing.Tracer, lift_steps: int, params: dict) -> dict[str, float]:
    """Per-layer numbers of one traced read round (load and verify per round)."""
    loads, verifies = params["load_rounds"], params["verify_rounds"]
    return {
        "serialization.load_s": tracer.seconds("serialization.load") / loads,
        "oracle.verify_s": tracer.seconds("oracle.verify") / verifies,
        "oracle.enumerate_s": tracer.seconds("oracle.enumerate") / verifies,
        "weights.to_weight_s": tracer.seconds("weights.to_weight"),
        "weights.lift_s": tracer.seconds("weights.lift"),
        "weights.from_weight_s": tracer.seconds("weights.from_weight"),
        "weights.lift_steps": lift_steps,
        "grid.snap_s": tracer.seconds("grid.snap"),
        "grid.snap_calls": tracer.calls.get("grid.snap", 0),
        "engine.lookup_s": tracer.seconds("engine.lookup"),
    }


def paced_row(row: dict[str, float], ref: float) -> dict[str, float]:
    """A traced row with its times at nominal speed (``ref`` measured around the pass)."""
    return {key: value * REFERENCE_S / ref if key.endswith("_s") else value
            for key, value in row.items()}


def grid_row(items) -> dict[str, float]:
    """Timed drain of ``grid_points`` for every fitted set's grid."""
    points, bits, elapsed = 0, 0, 0.0
    ref = reference()
    for item in items:
        start = time.perf_counter()
        lams = [lam for _idx, lam in grid_points(item.aset.spec)]
        elapsed += time.perf_counter() - start
        points += len(lams)
        bits = max([bits] + [max(v.numerator.bit_length(), v.denominator.bit_length())
                             for lam in lams for v in lam])
    return {"grid.points": points, "grid.enumerate_s": elapsed * REFERENCE_S / ref,
            "grid.coord_bits_max": bits}


def profile_and_memory(work, items: list[Fitted], eps: Fraction) -> dict[str, float]:
    """Fraction counts of ``work()`` (cProfile) and the largest fit's memory peak."""
    new, ops = tracing.fraction_calls(work)
    peak = max(
        tracing.peak_bytes(lambda item=item: approximate(item.case.instance, eps, item.case.oracle))
        for item in items
    )
    return {"fractions.new": new, "fractions.ops": ops, "engine.fit_peak_bytes": peak}


def median_rows(rows: list[dict]) -> dict[str, float]:
    """Low median of each key over rows; counts repeat exactly and stay integers."""
    if not rows:
        return {}
    return {key: statistics.median_low([row[key] for row in rows]) for key in rows[0]}


def layer_metrics(fit_rows, read_rows, fit_s: float, items, extra) -> dict[str, float]:
    """Per-layer metrics; ``fit_s`` is the untraced fit time, for the tracing overhead."""
    metrics = {name: 0 for name in PER_LAYER}
    fit_med = median_rows(fit_rows)
    for row in (fit_med, median_rows(read_rows), extra):
        metrics.update({k: v for k, v in row.items() if k in PER_LAYER})
    solutions = sum(len(item.aset.solutions) for item in items)
    calls = sum(item.calls for item in items)
    metrics["set_solutions"] = solutions
    metrics["engine.new_solution_ratio"] = solutions / calls if calls else 0.0
    metrics["serialization.bytes"] = sum(os.path.getsize(item.path) for item in items)
    metrics["trace.overhead_s"] = fit_med["fit_total"] - fit_s
    return metrics


def run(workload: str, params: dict, seed: int, seconds: float, trace: bool,
        workdir: Path) -> Result:
    """Set-up, timed passes until ``seconds`` are up, then the checks and metrics.

    A pass of a fit workload fits and saves every set, then loads, queries
    and verifies them.  A read workload fits and saves in its set-up, so its
    passes only load, query and verify.  A traced run alternates untraced
    passes, which only fit, with traced ones; a read workload fits under
    trace once, in its first traced pass.
    """
    gate, timings = Gate(), Timings()
    eps = Fraction(params["eps"])
    fit_in_setup = params["kind"] == "read"
    fitted: dict[str, Fitted] = {}

    def fit_cases(cases, pacer: Pacer, tracer=None, rounds=1):
        """Fit each case and write its set ``rounds`` times: [(name, fit, [save])].

        Each time is (wall, nominal) seconds.  Untraced fits are paced as they
        run; traced ones only at their ends, to keep references out of spans.
        A case's first fit is kept; every later one must repeat it exactly.
        """
        done = []
        for case in cases:
            item = fitted.setdefault(case.name, Fitted(case, workdir / f"{case.name}.json"))
            try:
                mark = pacer.split()
                with pacer.ticking(on=tracer is None):
                    aset, calls = fit(case, eps, tracer)
                elapsed = pacer.since(mark)
                saves = []
                for _ in range(rounds):
                    mark = pacer.split()
                    save(aset, item.path, tracer)
                    saves.append(pacer.since(mark))
            except Exception:  # noqa: BLE001
                gate.error(f"fit {case.name}")
                continue
            if item.aset is None:
                item.aset, item.calls = aset, calls
            else:
                gate.record(same_set(aset, item.aset) and calls == item.calls,
                            f"fit {case.name}: repeat differs from the first fit")
            done.append((case.name, elapsed, saves))
        return done

    def add_fits(done):
        for name, elapsed, saves in done:
            timings.add(f"fit {name}", *elapsed)
            for elapsed_save in saves:
                timings.add(f"save {name}", *elapsed_save)

    def setup():
        """Build the cases, and on a read workload fit and save them; timed as one."""
        pacer = Pacer()
        cases = build_cases(workload, params, seed)
        done = fit_cases(cases, pacer) if fit_in_setup else []
        timings.add("setup_s", *pacer.since())
        add_fits(done)
        return cases

    def fit_pass(tracer):
        """Fit and save every set; the fit seconds at nominal speed."""
        done = fit_cases(cases, Pacer(), tracer, SAVE_ROUNDS)
        if tracer is None:
            add_fits(done)
        return sum(nominal for _name, (_wall, nominal), _saves in done)

    cases = setup()
    fit_rows, read_rows = [], []
    items = batches = checks = first_answers = span_source = None
    passes = 0
    deadline = time.perf_counter() + seconds
    while True:
        for traced in ((False, True) if trace else (False,)):
            tracer = tracing.Tracer(keep=span_source is None) if traced else None
            pass_ref = reference()
            fits = not fit_in_setup or (traced and span_source is None)
            total = fit_pass(tracer) if fits else 0.0
            if batches is None:
                items = [item for item in fitted.values() if item.aset is not None]
                batches, checks = prepare(items, workload, seed, params)
            if trace and not traced:
                continue
            answers, depth = exercise(
                items, batches, checks, params, gate, timings, tracer, first_answers)
            first_answers = first_answers or answers
            if traced:
                pass_ref = (pass_ref + reference()) / 2
                if fits:
                    fit_rows.append(paced_row(fit_layer_row(tracer, total), pass_ref))
                read_rows.append(paced_row(read_layer_row(tracer, depth, params), pass_ref))
                span_source = span_source or tracer
        for _ in range(params["setup_repeats"]):
            setup()
        passes += 1
        if time.perf_counter() >= deadline:
            break

    check_fits(items, workload, seed, gate)
    check_answers(batches, first_answers, gate)
    names = [item.case.name for item in items]
    fit_s = sum(timings.paced(f"fit {name}") for name in names)
    notes = {
        "set_solutions": f"{sum(len(item.aset.solutions) for item in items)} count",
        "passes": passes,
        "query_samples": sum(len(lams) for _item, lams in batches) * passes,
    }
    if trace:
        check_staged(batches, first_answers, gate)
        if fit_in_setup:
            def work():
                return [query(item.aset, item.case.instance, lam)
                        for item, lams in batches for lam in lams]
        else:
            def work():
                return [approximate(item.case.instance, eps, item.case.oracle) for item in items]
        extra = grid_row(items)
        extra.update(profile_and_memory(work, items, eps))
        metrics = layer_metrics(fit_rows, read_rows, fit_s, items, extra)
        return Result(metrics, PER_LAYER, gate, notes, span_source)

    metrics = {
        "setup_s": timings.paced("setup_s"),
        "fit_s": fit_s,
        "oracle_calls": sum(item.calls for item in items),
        "set_bytes": sum(os.path.getsize(item.path) for item in items),
        "save_s": sum(timings.paced(f"save {name}") for name in names),
        **timings.read_metrics(),
    }
    notes.update(timings.notes(metrics))
    notes["plain fit_s"] = f"{sum(timings.plain(f'fit {name}') for name in names):.6g}"
    notes["plain save_s"] = f"{sum(timings.plain(f'save {name}') for name in names):.6g}"
    return Result(metrics, END_TO_END, gate, notes)

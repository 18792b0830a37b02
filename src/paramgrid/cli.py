"""Command-line front end.

Commands: ``approximate`` (run the grid algorithm and serialize the set),
``query`` (look up the solution responsible for a parameter vector),
``verify`` (check the set property on an instance, or run a named fixture's
fact checks) and ``fixtures list``.

Exit codes (``EXIT_CODES``): 0 success, 2 schema or usage error (argparse
exits 2 on a bad flag, such as ``--samples 0`` or a rational in exponent
notation), a set whose solutions are not the instance's own or whose grid is
not the instance's, an independence ``alpha`` below the system's rank
quotient, or a path that cannot be read or written, 3 accuracy parameter
out of range, 4 grid cap exceeded, 5 parameter vector below its domain,
6 verification failed (the report is still written), 7 instance too large
for the exhaustive reference that ``verify`` enumerates, for the knapsack DP
table of ``approximate`` (``solvers.knapsack.MAX_KNAPSACK_CELLS``), or for
fixture ``section3`` (K at most ``fixtures.MAX_SECTION3_K``).
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from . import engine, fixtures, oracle, serialization
from .errors import (
    DomainError,
    EpsilonRangeError,
    GridCapError,
    InvalidInstanceError,
    ParamGridError,
    TooLargeError,
)
from .model import as_fraction, check_lambda, evaluate

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_EPSILON = 3
EXIT_GRID_CAP = 4
EXIT_DOMAIN = 5
EXIT_VERIFY = 6
EXIT_TOO_LARGE = 7

#: Exit code of each error a command may raise, most specific first; the first match wins.
EXIT_CODES: tuple[tuple[type[Exception], int], ...] = (
    (EpsilonRangeError, EXIT_EPSILON),
    (GridCapError, EXIT_GRID_CAP),
    (DomainError, EXIT_DOMAIN),
    (TooLargeError, EXIT_TOO_LARGE),
    (InvalidInstanceError, EXIT_SCHEMA),
    (OSError, EXIT_SCHEMA),
    (ParamGridError, 1),
)


def _parse_fraction_arg(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except InvalidInstanceError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_int_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paramgrid",
        description="Approximation sets for linear multi-parametric optimization problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_approx = sub.add_parser("approximate", help="run the grid algorithm on an instance file")
    p_approx.set_defaults(run=_cmd_approximate)
    p_approx.add_argument("instance", help="instance JSON file")
    p_approx.add_argument("--epsilon", type=_parse_fraction_arg, required=True,
                          help="accuracy parameter in (0,1), e.g. 1/2")
    p_approx.add_argument("--out", required=True, help="output path for the approximation set")
    p_approx.add_argument("--report", help="optional output path for the run report")
    p_approx.add_argument("--grid-cap", type=int, default=engine.DEFAULT_GRID_CAP,
                          help="refuse grids larger than this many points")

    p_query = sub.add_parser("query", help="look up the solution for a parameter vector")
    p_query.set_defaults(run=_cmd_query)
    p_query.add_argument("set", help="approximation-set JSON file")
    p_query.add_argument("instance", help="instance JSON file")
    p_query.add_argument("--lam", action="append", required=True, type=_parse_fraction_arg,
                         help="one parameter coordinate per flag, in order")
    p_query.add_argument("--explain", action="store_true",
                         help="also print the weight, each lift step, the compact lambda "
                              "and the snapped cell")

    p_verify = sub.add_parser("verify", help="check the set property or a fixture's facts")
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument("instance", nargs="?", help="instance JSON file (omit with --fixture)")
    p_verify.add_argument("--set", dest="set_path", help="approximation-set JSON file")
    p_verify.add_argument("--fixture", choices=sorted(fixtures.FIXTURES),
                          help="run a named fixture's fact checks instead")
    p_verify.add_argument("--beta", type=_parse_fraction_arg, required=True,
                          help="target approximation factor")
    p_verify.add_argument("--K", type=int, help="parameter count (fixture section3, "
                                                  f"at most {fixtures.MAX_SECTION3_K})")
    p_verify.add_argument("--z0", type=_parse_fraction_arg, help="scale parameter (appendix fixtures)")
    p_verify.add_argument("--L", type=int, help="chain length (fixture appendix-proof)")
    p_verify.add_argument("--samples", type=_positive_int_arg, default=1000,
                          help="sample count, at least 1 (default 1000)")
    p_verify.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p_verify.add_argument("--report", help="optional output path for the report")

    p_fixtures = sub.add_parser("fixtures", help="fixture registry")
    fix_sub = p_fixtures.add_subparsers(dest="fixtures_command", required=True)
    fix_sub.add_parser("list", help="list available fixtures as JSON").set_defaults(run=_cmd_fixtures)

    return parser


def _emit(doc, path: str | None):
    text = serialization.dumps(doc)
    sys.stdout.write(text)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _check_output(path: str) -> None:
    """Refuse an output path that cannot be a file, before any work is done."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"output path {path!r} is a directory")
    if not path or not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(f"output path {path!r} is not in an existing directory")


def _cmd_approximate(args) -> int:
    _check_output(args.out)
    if args.report:  # an empty --report writes no report
        _check_output(args.report)
    instance = serialization.load_instance(args.instance)
    started = time.monotonic()
    aset = engine.approximate(instance, args.epsilon, grid_cap=args.grid_cap)
    elapsed_ms = int((time.monotonic() - started) * 1000)
    serialization.save_approximation_set(aset, args.out)
    _emit(serialization.run_report(aset, elapsed_ms), args.report)
    return EXIT_OK


def _check_pairing(aset: engine.ApproximationSet, instance) -> None:
    """Refuse a set fitted for another instance: its grid is not the one the instance gives."""
    # K first: the instance's grid is only built for the set's K
    same_kind = (aset.spec.K, aset.sense) == (instance.K, instance.sense)
    if not same_kind or aset.spec != engine.grid_spec(instance, aset.eps, aset.alpha):
        raise InvalidInstanceError(
            "approximation set does not match the instance (K, sense, lambda_min or c differ)"
        )


def _cmd_query(args) -> int:
    aset = serialization.load_approximation_set(args.set)
    instance = serialization.load_instance(args.instance)
    _check_pairing(aset, instance)
    own = {rec.encoding: oracle.instance_solution(instance, rec) for rec in aset.solutions}
    rec = own[engine.query(aset, instance, args.lam).encoding]
    doc = {
        "solution": serialization.solution_to_json(rec),
        "lambda": args.lam,
        "value": evaluate(instance, rec, args.lam),
        "guarantee": aset.guarantee,
    }
    if args.explain:
        doc["explain"] = _explain(aset, instance, args.lam)
    _emit(doc, None)
    return EXIT_OK


def _explain(aset: engine.ApproximationSet, instance, lam) -> dict:
    """The pass ``query`` ran (``engine.locate``), with each lift step's ``mu`` as a rational."""
    w, order, lifted, steps, cell = engine.locate(aset.spec, instance, check_lambda(instance, lam))
    return {
        "weight": [Fraction(v, w[0]) for v in w],
        "lift": [
            {"indices": sorted(order[: top + 1]), "mu": Fraction(num, den)}
            for top, num, den, _ in steps
        ],
        "compact_lambda": [
            Fraction(v, lifted[0]) + lm for v, lm in zip(lifted[1:], instance.lambda_min)
        ],
        "cell": cell,
    }


def _cmd_verify(args) -> int:
    if args.fixture:
        report = fixtures.check_fixture(args.fixture, beta=args.beta, K=args.K, z0=args.z0,
                                        L=args.L, samples=args.samples, seed=args.seed)
        _emit(report, args.report)
        return EXIT_OK if report.passed else EXIT_VERIFY

    if not args.instance or not args.set_path:
        raise InvalidInstanceError("verify needs an instance and --set, or --fixture")
    instance = serialization.load_instance(args.instance)
    aset = serialization.load_approximation_set(args.set_path)
    _check_pairing(aset, instance)
    samples = oracle.sample_parameters_labeled(instance, aset.spec, args.samples, args.seed)
    report = oracle.verify_approximation_set(instance, aset, args.beta, samples)
    _emit(report, args.report)
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_fixtures(args) -> int:
    _emit(fixtures.FIXTURES, None)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())

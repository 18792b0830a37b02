"""Command-line front end.

Commands: ``approximate`` (run the grid algorithm and serialize the set),
``query`` (look up the solution responsible for a parameter vector),
``verify`` (check the set property on an instance, or run a named fixture's
fact checks) and ``fixtures list``.

Exit codes: 0 success, 2 schema or usage error (argparse exits 2 on a bad
flag, such as ``--samples 0``), 3 accuracy parameter out of range,
4 grid cap exceeded, 5 parameter vector below its domain, 6 verification
failed (the report is still written), 7 instance too large for the exhaustive
reference that ``verify`` enumerates.
"""
from __future__ import annotations

import argparse
import json
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
from .grid import DEFAULT_GRID_CAP
from .model import evaluate

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_EPSILON = 3
EXIT_GRID_CAP = 4
EXIT_DOMAIN = 5
EXIT_VERIFY = 6
EXIT_TOO_LARGE = 7


def _parse_fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


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
    p_approx.add_argument("instance", help="instance JSON file")
    p_approx.add_argument("--epsilon", type=_parse_fraction_arg, required=True,
                          help="accuracy parameter in (0,1), e.g. 1/2")
    p_approx.add_argument("--out", required=True, help="output path for the approximation set")
    p_approx.add_argument("--report", help="optional output path for the run report")
    p_approx.add_argument("--grid-cap", type=int, default=DEFAULT_GRID_CAP,
                          help="refuse grids larger than this many points")

    p_query = sub.add_parser("query", help="look up the solution for a parameter vector")
    p_query.add_argument("set", help="approximation-set JSON file")
    p_query.add_argument("instance", help="instance JSON file")
    p_query.add_argument("--lam", action="append", required=True, type=_parse_fraction_arg,
                         help="one parameter coordinate per flag, in order")

    p_verify = sub.add_parser("verify", help="check the set property or a fixture's facts")
    p_verify.add_argument("instance", nargs="?", help="instance JSON file (omit with --fixture)")
    p_verify.add_argument("--set", dest="set_path", help="approximation-set JSON file")
    p_verify.add_argument("--fixture", choices=sorted(fixtures.FIXTURES),
                          help="run a named fixture's fact checks instead")
    p_verify.add_argument("--beta", type=_parse_fraction_arg, required=True,
                          help="target approximation factor")
    p_verify.add_argument("--K", type=int, help="parameter count (fixture section3)")
    p_verify.add_argument("--z0", type=_parse_fraction_arg, help="scale parameter (appendix fixtures)")
    p_verify.add_argument("--L", type=int, help="chain length (fixture appendix-proof)")
    p_verify.add_argument("--samples", type=_positive_int_arg, default=1000,
                          help="sample count, at least 1 (default 1000)")
    p_verify.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p_verify.add_argument("--report", help="optional output path for the report")

    p_fixtures = sub.add_parser("fixtures", help="fixture registry")
    fix_sub = p_fixtures.add_subparsers(dest="fixtures_command", required=True)
    fix_sub.add_parser("list", help="list available fixtures as JSON")

    return parser


def _emit(doc: dict, path: str | None):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_approximate(args) -> int:
    instance = serialization.load_instance(args.instance)
    started = time.monotonic()
    aset = engine.approximate(instance, args.epsilon, grid_cap=args.grid_cap)
    elapsed_ms = int((time.monotonic() - started) * 1000)
    serialization.save_approximation_set(aset, args.out)
    _emit(serialization.run_report(aset, elapsed_ms), args.report)
    return EXIT_OK


def _check_pairing(aset: engine.ApproximationSet, instance) -> None:
    """Refuse a set fitted for another instance; its cells would answer wrongly."""
    fitted = (aset.spec.K, aset.sense, aset.spec.lambda_min)
    if fitted != (instance.K, instance.sense, instance.lambda_min):
        raise InvalidInstanceError(
            "approximation set does not match the instance (K, sense or lambda_min differ)"
        )


def _cmd_query(args) -> int:
    aset = serialization.load_approximation_set(args.set)
    instance = serialization.load_instance(args.instance)
    _check_pairing(aset, instance)
    rec = engine.query(aset, instance, args.lam)
    doc = {
        "solution": serialization.solution_to_json(rec),
        "lambda": [serialization.frac_str(v) for v in args.lam],
        "value": serialization.frac_str(evaluate(instance, rec, args.lam)),
        "guarantee": serialization.frac_str(aset.guarantee),
    }
    _emit(doc, None)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.fixture:
        report = fixtures.check_fixture(
            args.fixture,
            beta=args.beta,
            K=args.K,
            z0=args.z0,
            L=args.L,
            samples=args.samples,
            seed=args.seed,
        )
        _emit(serialization.fixture_report_to_dict(report), args.report)
        return EXIT_OK if report.passed else EXIT_VERIFY

    if not args.instance or not args.set_path:
        raise InvalidInstanceError("verify needs an instance and --set, or --fixture")
    instance = serialization.load_instance(args.instance)
    aset = serialization.load_approximation_set(args.set_path)
    _check_pairing(aset, instance)
    spec = aset.spec
    samples = oracle.sample_parameters_labeled(instance, spec, args.samples, args.seed)
    report = oracle.verify_approximation_set(instance, aset, args.beta, samples)
    _emit(serialization.verification_report_to_dict(report), args.report)
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_fixtures(args) -> int:
    _emit(fixtures.FIXTURES, None)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "approximate":
            return _cmd_approximate(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "fixtures":
            return _cmd_fixtures(args)
        parser.error(f"unknown command {args.command!r}")
    except EpsilonRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EPSILON
    except GridCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GRID_CAP
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (InvalidInstanceError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ParamGridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

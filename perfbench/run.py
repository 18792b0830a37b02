"""Seeded benchmark of paramgrid: fit, save, load, query and verify.

Run from the repository root:

    python3 perfbench/run.py --workload fit-k2-coarse --seed 1 --seconds 25 --trace 0

Workloads and their parameters are in ``perfbench/workloads.json``.  The run
prints one line per metric (name, value, unit), then notes such as the query
sample count and ``fail_ratio``, and last a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics and writes
the recorded spans to ``perfbench/out/``.  The exit code is 0 whenever a
result is printed (check ``correct``), and 2 when the library sources or the
workload cannot be found.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import bench
        from workloads import workload_params

        params = workload_params(args.workload)
    except (ImportError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = bench.run(
            args.workload, params, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    gate = result.gate
    for name, value in result.metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} {shown} {result.units[name]}")
    for name, value in result.notes.items():
        print(f"note {name} {value}")
    print(f"note fail_ratio {gate.fail_ratio:.6g} ratio ({gate.failed} of {gate.attempted})")
    if result.tracer is not None:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        result.tracer.dump(path)
        m = result.metrics
        busy = sum(m[f"{layer}.busy_s"] for layer in bench.SOLVER_LAYERS)
        print(f"note oracle busy share {m['engine.oracle_share']:.4f} ratio: oracle busy "
              f"{busy:.4g} s of traced fit {busy + m['engine.self_s']:.4g} s; spans in {path.name}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": value, "unit": result.units[name]}
            for name, value in result.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

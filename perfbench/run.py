"""Run one benchmark workload once and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload live_lookup --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  Every metric is printed by name
with its unit and sample count; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The machine context, the full result and (traced runs) the kept spans
are written under ``.perfbench_out/``.  The exit code is 0 only when
every correctness check passed.  The program is imported from the
``src/`` tree next to this directory; without it the run fails.
"""

import os

# one BLAS/OpenMP thread: all load comes from one process and one
# event-loop thread, and these must be set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in pathlib.Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")


def _context(args, params: dict) -> dict:
    import asyncio

    import numpy
    import scipy

    # the loop class asyncio.run gives the live workloads
    loop = asyncio.new_event_loop()
    try:
        event_loop = f"{type(loop).__module__}.{type(loop).__name__}"
    finally:
        loop.close()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "event_loop": event_loop,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "params": params,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    import layers
    import workloads

    run = workloads.WORKLOADS.get(args.workload)
    if run is None:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    outcome = run(args.seed, args.seconds, bool(args.trace))

    if outcome.tracer is not None:
        outcome.params["spans_kept"] = len(outcome.tracer.spans)
        outcome.params["spans_dropped"] = outcome.tracer.spans_dropped
    context = _context(args, outcome.params)
    correct = not outcome.problems
    print("context " + json.dumps(context, sort_keys=True))
    for name, metric in outcome.metrics.items():
        print(f"metric {name} = {metric.value:.6g} {metric.unit} (n={metric.samples})")
    if args.trace:
        coverage = outcome.metrics["trace.coverage"].value
        tolerance = layers.COVERAGE_TOLERANCE[args.workload]
        verdict = "within" if coverage >= tolerance else "WARNING: below"
        print(f"trace coverage {coverage:.3f} {verdict} tolerance {tolerance}")
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    result = {
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": metric.value, "unit": metric.unit}
            for name, metric in outcome.metrics.items()
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as out:
        json.dump(
            {"context": context, "problems": outcome.problems,
             "samples": {n: m.samples for n, m in outcome.metrics.items()},
             **result},
            out, indent=2, sort_keys=True,
        )
    if outcome.tracer is not None:
        outcome.tracer.write_spans(OUT_DIR / f"{stem}-spans.tsv")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

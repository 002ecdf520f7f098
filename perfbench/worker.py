"""Run one workload in a fresh interpreter.

The worker imports eobkit from the checkout's `src/`, writes the workload's
inputs and prints READY: the harness times set-up up to that line. It then
runs whole rounds until `--seconds` have passed, checks the outputs, and
prints one JSON line with the round times, counts, problems and, with
`--trace 1`, the per-layer metrics. `--setup-only` stops after READY.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import eobkit
    import eobkit.cli  # noqa: F401 -- imports every module, as the CLI does

    if os.path.dirname(os.path.dirname(os.path.abspath(eobkit.__file__))) != src:
        raise RuntimeError(f"imported eobkit from {eobkit.__file__}, not from {src}")
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.workdir, args.seed)
    workload.write_inputs()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.instrument()
    warm = workload.warm_up(tracer)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        with tracer.span("round") if tracer else contextlib.nullcontext():
            rounds.append(workload.run_round(tracer))
    measured = time.perf_counter() - start
    if tracer is not None:
        tracer.restore()

    problems = workload.check(rounds)
    for r in warm:
        problems += r.problems
        if not workload.same_output(r.output, rounds[0].output):
            problems.append("output at the default worker count differs from --jobs 1")
    result = {
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "problems": problems,
        "rounds": [{"seconds": r.seconds, "attempted": r.attempted, "failed": r.failed}
                   for r in rounds],
        "warm_up_seconds": [r.seconds for r in warm],
        "measured_s": measured,
        "peak_rss_mb": max(resource.getrusage(who).ru_maxrss
                           for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0,
        "environment": environment(),
    }
    if tracer is None:
        result["ops_per_s"] = workloads.ops_per_s(rounds)
    else:
        result["layers"] = workloads.layer_metrics(tracer, len(rounds))
        if args.trace_out:
            tracer.dump(args.trace_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""eobkit benchmark: three workloads, output checks, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload wavelet-grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload at seed 0, one after another

Each workload runs in fresh interpreters (perfbench/worker.py). Set-up is
timed SETUPS times, from process start until eobkit is imported and the
inputs are written; the last of those interpreters then runs whole rounds
for --seconds and checks the outputs. The last line of standard output is
one JSON object: correct, attempted, failed and the metrics (end-to-end
with --trace 0, per-layer with --trace 1). The exit code is 0 only when
every check passed. Files go under .perfbench/ in the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
SETUPS = 3
DEADLINE_S = 170.0

sys.path.insert(0, HERE)
from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_worker(argv: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time and its result line, if any."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + argv,
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker {' '.join(argv[:2])} exited with code {code} "
                         f"before finishing (see its standard error)")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "eobkit", "__init__.py")):
        raise BenchError(f"no eobkit sources under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{name}-seed{seed}-trace{trace}"
    workdir = os.path.join(OUT, "work", f"{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--workdir", workdir]
    if trace:
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        argv += ["--trace-out", os.path.join(OUT, "traces", f"{tag}.json")]
    try:
        setups = [run_worker(argv + ["--setup-only"], deadline)[0] for _ in range(SETUPS - 1)]
        setup, worker = run_worker(argv, deadline)
        setups.append(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if worker is None:
        raise BenchError(f"worker for {name} printed no result")
    if trace:
        metrics = {n: {"value": worker["layers"][n], "unit": u} for n, u in PER_LAYER}
    else:
        values = {"setup_s": statistics.median(setups), "ops_per_s": worker["ops_per_s"],
                  "peak_rss_mb": worker["peak_rss_mb"]}
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    result = {"correct": not worker["problems"], "attempted": worker["attempted"],
              "failed": worker["failed"], "metrics": metrics}
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, workload=name, seed=seed, seconds=seconds, setups_s=setups,
                       worker=worker), fh, indent=2)
    return dict(result, problems=worker["problems"])


def report(name: str, result: dict) -> None:
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for metric, m in result["metrics"].items():
        print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            report(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    last = results[names[-1]]
    if len(names) > 1:
        last = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{n}.{m}": v for n, r in results.items()
                            for m, v in r["metrics"].items()}}
    print(json.dumps({k: last[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if last["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

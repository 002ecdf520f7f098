"""Timing, command line and output shared by the layer benchmarks in this directory."""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

REPEATS = 5
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def median_seconds(fn) -> float:
    """Median wall time of REPEATS calls of fn, after one untimed warm-up call."""
    return median_seconds_by_rounds({0: fn})[0]


def median_seconds_by_rounds(fns: dict) -> dict:
    """Median wall time of each of fns over REPEATS rounds that call every fn once in
    turn, after one untimed warm-up round: a stall of the host that lasts a moment
    lands in one round, not in every sample of one fn."""
    for fn in fns.values():
        fn()
    times: dict = {key: [] for key in fns}
    for _ in range(REPEATS):
        for key, fn in fns.items():
            start = time.perf_counter()
            fn()
            times[key].append(time.perf_counter() - start)
    return {key: statistics.median(samples) for key, samples in times.items()}


def write_run(path: str, label: str, run: dict, **header) -> None:
    """Store run under runs[label] of the JSON file at path; other labels are kept."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {}
    doc.update(header)
    doc.setdefault("runs", {})[label] = run
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote runs[{label!r}] to {path}")


def main(topic: str, doc: str, measure, argv: list[str] | None = None) -> int:
    """Command line of a layer benchmark: import the package under test from --src, call
    measure(), which returns (run, header), and store the run with its environment block
    under runs[--label] of BENCH_<topic>.json at the checkout root, with header as the
    file's other keys."""
    parser = argparse.ArgumentParser(description=doc,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the eobkit package to time")
    parser.add_argument("--label", default="head", help="key of this run in the output file")
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.abspath(args.src), PERFBENCH]
    from worker import environment

    run, header = measure()
    write_run(os.path.join(ROOT, f"BENCH_{topic}.json"), args.label,
              {"environment": environment(), **run}, **header)
    return 0

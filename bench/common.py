"""Timing, command line and output shared by the layer benchmarks in this directory."""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

REPEATS = 5
STATISTIC = (f"median of {REPEATS} rounds, each running every loop once, after one "
             "warm-up round, divided by the loop's calls")
UNITS = {"s": 1.0, "us": 1e6}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
EPILOG = """\
Every input is built before any call is timed: a call timed right after its input
was built read up to 3x its later time on a 2-core host. Each figure is the
  {statistic},
in the unit that its table's name ends in. The run and its environment (cores, BLAS
thread variables, numpy, scipy and BLAS versions) go to runs[<label>] of
BENCH_{topic}.json at the checkout root; other labels in that file are kept."""


def repeat(fn, calls: int) -> None:
    """calls calls of fn: a loop for time_table, whose figure is then per call."""
    for _ in range(calls):
        fn()


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


def time_table(loops: dict) -> dict:
    """Time every loop of {(table, *keys): (fn, calls, unit)} in one set of rounds
    (median_seconds_by_rounds), print one line per loop and return the run
    {table: {key: ... {last key: figure}}}, keys as strings. A figure is the loop's
    median divided by calls, the number of calls fn makes, in unit ("s" or "us")."""
    seconds = median_seconds_by_rounds({key: fn for key, (fn, _, _) in loops.items()})
    run: dict = {}
    for key, (_, calls, unit) in loops.items():
        table, *path, last = map(str, key)
        node = run.setdefault(table, {})
        for part in path:
            node = node.setdefault(part, {})
        node[last] = figure = UNITS[unit] * seconds[key] / calls
        print(f"{table:27s} {' '.join(path + [last]):38s} {figure:12.6g} {unit}")
    return run


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
    measure(), which returns (run, header), and store the run as the epilog says, with
    header as the file's other keys."""
    parser = argparse.ArgumentParser(description=doc,
                                     epilog=EPILOG.format(statistic=STATISTIC, topic=topic),
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

"""Timing and output shared by the layer benchmarks in this directory."""

from __future__ import annotations

import json
import statistics
import time

REPEATS = 5


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

"""Timing and output shared by the layer benchmarks in this directory."""

from __future__ import annotations

import json
import statistics
import time

REPEATS = 5


def median_seconds(fn) -> float:
    """Median wall time of REPEATS calls of fn, after one untimed warm-up call."""
    fn()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


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

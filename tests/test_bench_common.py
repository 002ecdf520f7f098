"""The timing and output helpers shared by the layer benchmarks in bench/."""

import importlib.util
import json
import os
import types

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "common.py")
_spec = importlib.util.spec_from_file_location("bench_common", _PATH)
common = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(common)


@pytest.fixture
def clock(monkeypatch):
    """A fake perf_counter that only moves when a timed function advances it."""
    now = [0.0]
    monkeypatch.setattr(common, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
    return now


def _advancing(clock, durations, log, key):
    """A function that logs its key and advances the clock by the next duration."""
    it = iter(durations)

    def fn():
        log.append(key)
        clock[0] += next(it)
    return fn


def test_rounds_interleave_after_one_warm_up_round(clock):
    log = []
    warm, a_times, b_times = 100.0, [1.0, 5.0, 2.0, 4.0, 3.0], [9.0, 7.0, 8.0, 6.0, 10.0]
    fns = {"a": _advancing(clock, [warm] + a_times, log, "a"),
           "b": _advancing(clock, [warm] + b_times, log, "b")}
    assert common.REPEATS == 5
    assert common.median_seconds_by_rounds(fns) == {"a": 3.0, "b": 8.0}
    assert log == ["a", "b"] * (common.REPEATS + 1)


def test_median_seconds_is_one_loop_of_rounds(clock):
    log = []
    fn = _advancing(clock, [100.0, 4.0, 1.0, 3.0, 2.0, 5.0], log, "f")
    assert common.median_seconds(fn) == 3.0
    assert len(log) == common.REPEATS + 1


def test_write_run_keeps_other_labels(tmp_path, capsys):
    path = str(tmp_path / "bench.json")
    common.write_run(path, "parent", {"x": 1}, statistic="s1")
    common.write_run(path, "change", {"x": 2}, statistic="s2")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc == {"statistic": "s2", "runs": {"parent": {"x": 1}, "change": {"x": 2}}}
    assert "wrote runs['change']" in capsys.readouterr().out

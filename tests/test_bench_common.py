"""The timing and output helpers shared by the layer benchmarks in bench/."""

import functools
import importlib.util
import json
import os
import sys
import types

import numpy as np
import pytest

_BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
_spec = importlib.util.spec_from_file_location("bench_common", os.path.join(_BENCH, "common.py"))
common = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(common)


@pytest.fixture
def clock(monkeypatch):
    """A fake perf_counter that only moves when a timed function advances it."""
    now = [0.0]
    monkeypatch.setattr(common, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
    return now


@pytest.fixture
def recorded_loops(monkeypatch):
    """Run a layer script's measure() with time_table replaced by a recorder: the loops
    it would time, untimed."""
    monkeypatch.syspath_prepend(_BENCH)

    def run(name: str) -> dict:
        spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                      os.path.join(_BENCH, f"{name}.py"))
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        loops = {}
        monkeypatch.setattr(script.common, "time_table", lambda table: loops.update(table) or {})
        script.measure()
        return loops

    yield run
    sys.modules.pop("common", None)


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


def test_time_table_nests_divides_scales_and_prints(clock, capsys):
    log = []
    loops = {("median_s", "f", 16): (_advancing(clock, [9.0] + [2.0] * 5, log, "f"), 1, "s"),
             ("median_s", "f", 128): (_advancing(clock, [9.0] + [8.0] * 5, log, "g"), 4, "s"),
             ("median_us", "h", "raw", 7): (_advancing(clock, [9.0] + [3.0] * 5, log, "h"),
                                             1000, "us")}
    run = common.time_table(loops)
    assert run == {"median_s": {"f": {"16": 2.0, "128": 2.0}},
                   "median_us": {"h": {"raw": {"7": 3000.0}}}}
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[2].split() == ["median_us", "h", "raw", "7", "3000", "us"]


def test_time_table_times_every_table_in_one_set_of_rounds(clock):
    log = []
    loops = {("a", 1): (_advancing(clock, [1.0] * 6, log, "a"), 1, "s"),
             ("b", "x", 2): (_advancing(clock, [1.0] * 6, log, "b"), 1, "s")}
    common.time_table(loops)
    assert log == ["a", "b"] * (common.REPEATS + 1)


def test_repeat_makes_a_loop_of_calls(clock):
    log = []
    loop = functools.partial(common.repeat, _advancing(clock, [1.0] * 18, log, "f"), 3)
    assert common.time_table({("t", "f"): (loop, 3, "s")}) == {"t": {"f": 1.0}}
    assert len(log) == 3 * (common.REPEATS + 1)


def test_write_run_keeps_other_labels(tmp_path, capsys):
    path = str(tmp_path / "bench.json")
    common.write_run(path, "parent", {"x": 1}, statistic="s1")
    common.write_run(path, "change", {"x": 2}, statistic="s2")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc == {"statistic": "s2", "runs": {"parent": {"x": 1}, "change": {"x": 2}}}
    assert "wrote runs['change']" in capsys.readouterr().out


def test_main_stores_the_run_with_its_environment_and_header(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(common, "ROOT", str(tmp_path))
    monkeypatch.setattr(common.sys, "path", list(common.sys.path))
    src = tmp_path / "other" / "src"
    common.write_run(str(tmp_path / "BENCH_topic.json"), "parent", {"median_s": 1.0})

    def measure():
        return {"median_s": 2.0, "calls": 3}, {"sweep": [16, 32], "statistic": "median"}

    assert common.main("topic", "doc", measure, ["--src", str(src), "--label", "x"]) == 0
    with open(tmp_path / "BENCH_topic.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["sweep"] == [16, 32] and doc["statistic"] == "median"
    assert doc["runs"]["parent"] == {"median_s": 1.0}
    run = doc["runs"]["x"]
    assert {"cores", "numpy", "blas"} <= set(run["environment"])
    assert run == {"environment": run["environment"], "median_s": 2.0, "calls": 3}
    assert common.sys.path[0] == str(src)
    assert "wrote runs['x']" in capsys.readouterr().out


def _bound_call(loop, calls):
    """The function that one loop of common.repeat calls, checked to be called calls times."""
    assert loop.func.__name__ == "repeat" and loop.args[1] == calls
    return loop.args[0]


def test_transforms_loops_read_the_block_their_key_names(recorded_loops):
    loops = recorded_loops("transforms")
    assert len(loops) == 6 * 2 * 7
    for (table, name, rows, L), (loop, calls, unit) in loops.items():
        assert (table, unit) == ("median_us", "us")
        out = _bound_call(loop, calls)()
        shape = np.shape(getattr(out, "coeffs", out))
        assert shape == ((L,) if rows == 1 else (rows, L)), (name, rows, L, shape)


def test_theory_loops_read_the_window_length_their_key_names(recorded_loops):
    lengths = {"autocorrelations": len, "corr_matrix_from_ar": lambda r: r.values.shape[0],
               "eob_mgm_with_cholesky": lambda r: r.T, "eob_ar_closed_form": lambda r: r.T,
               "szego_convergence_curve": lambda r: r[0][0]}
    loops = recorded_loops("theory")
    assert {name for _, name, _ in loops} == set(lengths) and len(loops) == 5 * 4
    for (table, name, T), (loop, calls, unit) in loops.items():
        assert (table, unit) == ("median_s", "s")
        assert lengths[name](_bound_call(loop, calls)()) == T, (name, T)

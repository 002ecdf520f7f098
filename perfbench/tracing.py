"""Spans and counters at eobkit's module boundaries, recorded from outside.

`Tracer.instrument` replaces the public functions listed in `TARGETS` with
wrappers that record one span per call: name, start, end and parent. It
patches every `eobkit` module attribute that refers to the original, so
calls through `from .x import f` bindings are caught too. The modules are
the layers; a span's self time is its duration minus that of its children.

Only the process that created the tracer records spans. Workers forked by
`run_grid`'s pool inherit the wrappers but not the recording, so a pooled
`run_grid` call is one span with no children.

Spans stay in memory, aggregated per name as they end; `dump` writes the
aggregate plus the spans down to `SPAN_DEPTH` as JSON when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time

TARGETS = {
    "experiments": ("run_grid", "train_model", "make_window_pairs", "evaluate_mse"),
    "losses": ("harmonized_l1", "harmonized_l2", "coefficient_magnitudes"),
    "transforms": ("dwt_forward", "dwt_inverse"),
    "gradcheck": ("run_gradient_suite", "central_difference"),
    "processes": ("synthesize_hybrid",),
    "theory": ("corr_matrix_from_ar", "eob_mgm", "eob_ar_closed_form",
               "verify_determinant_decomposition", "szego_convergence_curve",
               "solve_yule_walker"),
    "diagnostics": ("orthogonality_report", "sample_correlation", "estimate_ssnr"),
}

POOLED_RUN_GRID = "experiments.run_grid.pooled"
SPAN_DEPTH = 3


class Tracer:
    def __init__(self) -> None:
        self.pid = os.getpid()
        self.stats: dict[str, dict[str, float]] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []  # [name, start, child_seconds, span index or -1]
        self._active: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> None:
        depth = len(self._stack)
        index = -1
        if depth < SPAN_DEPTH:
            parent = self._stack[-1][3] if self._stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
        self._active[name] = self._active.get(name, 0) + 1
        self._stack.append([name, time.perf_counter(), 0.0, index])

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child_seconds, index = self._stack.pop()
        duration = end - start
        self._active[name] -= 1
        entry = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += duration - child_seconds
        if self._active[name] == 0:  # outermost call of this name: no double count
            entry["s"] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index] = (name, start, end, self.spans[index][3])

    @contextlib.contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, name_for=None, on_result=None, wrap_args=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            if wrap_args is not None:
                args = wrap_args(args)
            self._enter(name_for(args, kwargs) if name_for else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def instrument(self) -> None:
        """Wrap every function in TARGETS wherever eobkit binds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "eobkit" or n.startswith("eobkit.")]
        for module_name, names in TARGETS.items():
            module = sys.modules[f"eobkit.{module_name}"]
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapped = self.wrap(f"{module_name}.{fn_name}", original,
                                    **self._special(module_name, fn_name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self._restore.append((mod, attr, original))

    def _special(self, module_name: str, fn_name: str) -> dict:
        key = f"{module_name}.{fn_name}"
        if key == "experiments.run_grid":
            def name_for(args, kwargs):
                jobs = kwargs.get("jobs", args[3] if len(args) > 3 else 1)
                return POOLED_RUN_GRID if jobs > 1 else key
            return {"name_for": name_for}
        if key == "experiments.train_model":
            return {"on_result": lambda r: self.count("experiments.train_model.epochs",
                                                      r.epochs_run)}
        if key == "processes.synthesize_hybrid":
            return {"on_result": lambda x: self.count("processes.synthesize_hybrid.samples",
                                                      x.size)}
        if key == "gradcheck.central_difference":
            # The oracle's loss callable is built per instance; some cases bind
            # their loss at import, so the callable is where every call passes.
            def wrap_args(args):
                fn = args[0]

                def counted(x):
                    self.count("gradcheck.loss_calls")
                    return fn(x)
                return (counted,) + tuple(args[1:])
            return {"wrap_args": wrap_args}
        return {}

    def restore(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"stats": self.stats, "counts": self.counts,
                       "spans": [{"name": n, "start": s, "end": e, "parent": p}
                                 for n, s, e, p in self.spans]}, fh)

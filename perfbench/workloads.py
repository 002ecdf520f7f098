"""The workloads: inputs from a seed, one round of program calls, output checks.

A round is a fixed list of operations. The grid and the gradient suite
drive a subcommand through `eobkit.cli.main`; the bias analysis makes
library calls. Every round of a run repeats the same inputs, so every
round after the first must reproduce the first round's outputs exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import checks
from tracing import POOLED_RUN_GRID


@dataclass
class Round:
    seconds: float
    attempted: int
    failed: int
    output: object
    problems: list[str] = field(default_factory=list)


class Workload:
    name = ""

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write_inputs(self) -> None:
        raise NotImplementedError

    def run_round(self, tracer) -> Round:
        raise NotImplementedError

    def warm_up(self, tracer) -> list[Round]:
        """Calls made before the timed rounds (only the traced grid has any)."""
        return []

    def check(self, rounds: list[Round]) -> list[str]:
        """Check the first round in full; the others must repeat it."""
        problems = list(rounds[0].problems) + self.check_output(rounds[0].output)
        for i, r in enumerate(rounds[1:], start=1):
            problems += r.problems
            if not self.same_output(r.output, rounds[0].output):
                problems.append(f"round {i} output differs from round 0 on the same inputs")
        return problems

    def check_output(self, output) -> list[str]:
        raise NotImplementedError

    def same_output(self, a, b) -> bool:
        return a == b


# ---------------------------------------------------------------------------
# Grid: one `simulate` call per round
# ---------------------------------------------------------------------------

# Patience sits above the epoch budget, so that every cell does the same work
# whatever the seed, and the finite-difference check at initialisation is
# off: with its fixed step it rejects a few high-SSNR cells on some seeds
# (see CHANGES.md).
WAVELET_CONFIG = {
    "schema_version": 1,
    "grid": {"ssnr_x_values": [32.0, 104.0], "horizons": [64], "history": 64,
             "replications": 1},
    "model": {"kind": "linear"},
    "train": {"optimizer": "adam", "lr": 1e-2, "max_epochs": 4, "patience": 5,
              "batch_size": 128, "split": 0.7, "check_gradients": False},
    "loss": {"kind": "harmonized", "norm": "l2", "gamma": 0.5, "beta": 0.3, "eps": 1e-8,
             "transform": "dwt", "wavelet": "db2", "levels": 2},
}


class GridWorkload(Workload):
    config: dict = {}

    def write_inputs(self) -> None:
        self.grid_config = json.loads(json.dumps(self.config))
        self.grid_config["grid"]["seed"] = self.seed
        with open(self.path("grid.json"), "w", encoding="utf-8") as fh:
            json.dump(self.grid_config, fh, indent=2)
        grid = self.grid_config["grid"]
        self.cells = (len(grid["ssnr_x_values"]) * len(grid["horizons"])
                      * grid["replications"])

    def simulate(self, jobs: int | None, out_name: str) -> Round:
        from eobkit import cli

        out = self.path(out_name)
        argv = ["simulate", "--grid", self.path("grid.json"), "--out", out]
        if jobs is not None:
            argv += ["--jobs", str(jobs)]
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
        problems = [] if code == 0 else [f"simulate exited with code {code}"]
        try:
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
            with open(out + ".meta.json", encoding="utf-8") as fh:
                meta = json.load(fh)
        except (OSError, ValueError) as exc:
            return Round(seconds, self.cells, self.cells, ("", {}), problems + [str(exc)])
        failed = min(self.cells, len(meta.get("failures", [])))
        return Round(seconds, self.cells, failed, (text, meta), problems)

    def run_round(self, tracer) -> Round:
        return self.simulate(1, "grid.csv")

    def warm_up(self, tracer) -> list[Round]:
        # Traced runs add one call at the default worker count, whose single
        # span against the serial spans gives run_grid's parallel speed-up.
        return [self.simulate(None, "grid-pooled.csv")] if tracer is not None else []

    def check_output(self, output) -> list[str]:
        text, meta = output
        return checks.check_grid(text, meta, self.grid_config["grid"])

    def same_output(self, a, b) -> bool:
        return a[0] == b[0]


class WaveletGrid(GridWorkload):
    name = "wavelet-grid"
    config = WAVELET_CONFIG


# ---------------------------------------------------------------------------
# Gradient suite: one `loss-check` call at its defaults per round
# ---------------------------------------------------------------------------

class GradientSuite(Workload):
    name = "gradient-suite"

    def write_inputs(self) -> None:
        from eobkit import gradcheck

        self.case_names = [c.name for c in gradcheck.LOSS_CASES]
        self.argv = ["loss-check", "--seed", str(self.seed), "--out", self.path("report.json")]
        with open(self.path("request.json"), "w", encoding="utf-8") as fh:
            json.dump({"argv": self.argv}, fh)

    def run_round(self, tracer) -> Round:
        from eobkit import cli

        start = time.perf_counter()
        code = cli.main(self.argv)
        seconds = time.perf_counter() - start
        problems = [] if code == 0 else [f"loss-check exited with code {code}"]
        try:
            with open(self.path("report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            return Round(seconds, 1, 1, {}, problems + [str(exc)])
        instances = sum(c["instances"] for c in report["checks"])
        failed = sum(c["instances"] for c in report["checks"] if not c["passed"])
        return Round(seconds, instances, failed, report, problems)

    def check_output(self, output) -> list[str]:
        from eobkit import gradcheck

        problems = checks.check_gradient_report(output, self.case_names)
        for i, case in enumerate(gradcheck.LOSS_CASES):
            problems += checks.check_own_gradient(case, seed=self.seed * 100 + i)
        return problems


# ---------------------------------------------------------------------------
# Bias analysis: library calls over theory, processes and diagnostics
# ---------------------------------------------------------------------------

SWEEP = (16, 128, 512, 2048)
# The dense path reaches T=2048 once per spec, inside the Szego curve.
DENSE_SWEEP = SWEEP[:-1]
DECOMPOSITION_T = 512
FAMILIES = ("binomial", "geometric", "gaussian", "poisson", "student_t", "uniform")
SIGMA_EPS2 = 0.25
SERIES_LENGTH = 200_000
DIAG_SAMPLES = 4096
WINDOW = 32
WAVELET, LEVELS = "db2", 2


class BiasAnalysis(Workload):
    name = "bias-analysis"
    first_round = True

    def write_inputs(self) -> None:
        # The AR specs do not follow --seed: the dense eigendecomposition at
        # T=2048 takes longer on some spectra than others (up to ~20% over a
        # round), which would make the work per round depend on the seed.
        specs = np.random.default_rng(2048)
        self.ar_specs = [tuple(float(v) for v in checks.step_up(specs.uniform(-0.9, 0.9, size=p)))
                         for p in (1, 2, 3, 4)]
        self.phi = float(np.random.default_rng([self.seed, 2048]).uniform(0.8, 0.9))
        with open(self.path("inputs.json"), "w", encoding="utf-8") as fh:
            json.dump({"ar_specs": self.ar_specs, "sweep": SWEEP, "dense_sweep": DENSE_SWEEP,
                       "decomposition_T": DECOMPOSITION_T, "families": FAMILIES,
                       "series_phi": self.phi, "sigma_eps2": SIGMA_EPS2,
                       "series_length": SERIES_LENGTH, "diag_samples": DIAG_SAMPLES,
                       "window": WINDOW, "seed": self.seed}, fh, indent=2)

    def run_round(self, tracer) -> Round:
        from eobkit import diagnostics, theory, transforms
        from eobkit.processes import ARSpec, HybridSpec, calibrate_innovation, synthesize_hybrid

        output = {"theory": [], "series": []}
        problems: list[str] = []
        counts = {"attempted": 0, "failed": 0}

        def task(label, fn):
            counts["attempted"] += 1
            try:
                return fn()
            except Exception as exc:  # noqa: BLE001 -- a failed task is counted, not fatal
                counts["failed"] += 1
                problems.append(f"task {label} raised {type(exc).__name__}: {exc}")
                return None

        start = time.perf_counter()
        for phi in self.ar_specs:
            spec = ARSpec(c=0.0, phi=phi, innovation=calibrate_innovation("gaussian", SIGMA_EPS2),
                          sigma_eps2=SIGMA_EPS2)
            label = f"AR({len(phi)})"
            output["theory"].append({
                "phi": phi,
                "closed": task(f"{label} closed form", lambda: [
                    theory.eob_ar_closed_form(spec, T).value_nats for T in SWEEP]),
                "dense": task(f"{label} dense", lambda: [
                    theory.eob_mgm(theory.corr_matrix_from_ar(spec, T)).value_nats
                    for T in DENSE_SWEEP]),
                "residual": task(f"{label} decomposition", lambda: (
                    theory.verify_determinant_decomposition(spec, DECOMPOSITION_T))),
                "curve": task(f"{label} Szego curve", lambda: (
                    theory.szego_convergence_curve(spec, SWEEP))),
            })
        for i, family in enumerate(FAMILIES):
            ar = ARSpec(c=0.0, phi=(self.phi,), innovation=calibrate_innovation(family, SIGMA_EPS2),
                        sigma_eps2=SIGMA_EPS2)
            series = task(f"{family} series", lambda: synthesize_hybrid(
                HybridSpec(ar=ar, det=None, length=SERIES_LENGTH),
                seed=np.random.SeedSequence([self.seed, i])))
            if series is None:
                counts["attempted"] += 4
                counts["failed"] += 4
                continue
            windows = diagnostics.sliding_windows(series[:DIAG_SAMPLES], WINDOW)
            coords = {
                "raw": lambda: windows,
                "fourier": lambda: transforms.real_fourier_coordinates(windows),
                # the row loop of the `diagnose --transform dwt` path
                "dwt": lambda: np.stack([transforms.dwt_forward(row, WAVELET, LEVELS).coeffs
                                         for row in windows]),
            }
            output["series"].append({
                "family": family,
                # later rounds keep only a digest, so memory does not grow with rounds
                "series": series if self.first_round else None,
                "digest": hashlib.sha256(series).hexdigest(),
                "ssnr": task(f"{family} estimate", lambda: diagnostics.estimate_ssnr(series)),
                "reports": {k: task(f"{family} {k} diagnostics",
                                    lambda f=f: diagnostics.orthogonality_report(f()).to_dict())
                            for k, f in coords.items()},
            })
        seconds = time.perf_counter() - start
        self.first_round = False
        return Round(seconds, counts["attempted"], counts["failed"], output, problems)

    def check_output(self, output) -> list[str]:
        problems = []
        for t in output["theory"]:
            if None in (t["closed"], t["dense"], t["residual"], t["curve"]):
                continue
            problems += checks.check_theory(t["phi"], SWEEP, t["closed"], t["dense"],
                                            t["curve"], t["residual"])
        n_windows = DIAG_SAMPLES - WINDOW + 1
        for s in output["series"]:
            if s["ssnr"] is None or None in s["reports"].values():
                continue
            problems += checks.check_series(s["family"], self.phi, SIGMA_EPS2, s["series"],
                                            s["ssnr"], s["reports"], WINDOW, n_windows)
        return problems

    def same_output(self, a, b) -> bool:
        def strip(out):
            return {"theory": out["theory"],
                    "series": [{k: v for k, v in s.items() if k != "series"}
                               for s in out["series"]]}
        return strip(a) == strip(b)


WORKLOADS = {w.name: w for w in (WaveletGrid, GradientSuite, BiasAnalysis)}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("experiments.run_grid.parallel_speedup", "ratio"),
    ("experiments.train_model.self_s", "s"),
    ("experiments.train_model.epochs", "count"),
    ("experiments.make_window_pairs.s", "s"),
    ("experiments.evaluate_mse.s", "s"),
    ("losses.harmonized_l1.calls", "count"),
    ("losses.harmonized_l1.us_per_call", "us"),
    ("losses.harmonized_l2.calls", "count"),
    ("losses.harmonized_l2.us_per_call", "us"),
    ("losses.coefficient_magnitudes.s", "s"),
    ("transforms.dwt_forward.calls", "count"),
    ("transforms.dwt_forward.us_per_call", "us"),
    ("transforms.dwt_inverse.calls", "count"),
    ("transforms.dwt_inverse.us_per_call", "us"),
    ("gradcheck.loss_calls", "count"),
    ("gradcheck.central_difference.s", "s"),
    ("processes.synthesize_hybrid.s", "s"),
    ("processes.synthesize_hybrid.samples_per_s", "1/s"),
    ("theory.corr_matrix_from_ar.s", "s"),
    ("theory.eob_mgm.s", "s"),
    ("theory.eob_ar_closed_form.s", "s"),
    ("theory.verify_determinant_decomposition.s", "s"),
    ("theory.szego_convergence_curve.s", "s"),
    ("theory.solve_yule_walker.calls", "count"),
    ("diagnostics.orthogonality_report.s", "s"),
    ("diagnostics.sample_correlation.s", "s"),
    ("diagnostics.estimate_ssnr.s", "s"),
)


def ops_per_s(rounds: list[Round]) -> float:
    """Median over rounds of operations finished per second of program time."""
    return statistics.median((r.attempted - r.failed) / r.seconds for r in rounds)


COUNTED = ("experiments.train_model.epochs", "gradcheck.loss_calls")


def layer_metrics(tracer, rounds: int) -> dict[str, float]:
    """Per-layer values per timed round; a layer the workload never calls reads 0."""
    values = {}
    for name, _unit in PER_LAYER:
        layer, _, metric = name.rpartition(".")
        stats = tracer.stats.get(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
        if name in COUNTED:
            value = tracer.counts.get(name, 0) / rounds
        elif metric == "parallel_speedup":
            serial = tracer.durations(layer)
            pooled = tracer.durations(POOLED_RUN_GRID)
            value = statistics.median(serial) / pooled[0] if serial and pooled else 0.0
        elif metric == "us_per_call":
            value = 1e6 * stats["s"] / stats["calls"] if stats["calls"] else 0.0
        elif metric == "samples_per_s":
            samples = tracer.counts.get(f"{layer}.samples", 0)
            value = samples / stats["s"] if stats["s"] else 0.0
        else:
            value = stats[metric] / rounds
        values[name] = value
    return values

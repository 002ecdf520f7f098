"""The benchmark's own tests: run with `python3 -m pytest perfbench`.

They check that the acceptance desk grid's CSV is byte-identical at
--jobs 1 and at the default worker count, that every output check fails on
a corrupted output, and that BENCHMARK.json names exactly the metrics and
workloads the code reports.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from eobkit import gradcheck, theory  # noqa: E402
from eobkit.processes import ARSpec, calibrate_innovation  # noqa: E402


@pytest.fixture(scope="module")
def workdir():
    path = os.path.join(ROOT, ".perfbench", "test-work")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


class DeskGrid(workloads.GridWorkload):
    """One replication of the acceptance desk grid (tests/test_acceptance.py:
    GRID, MODEL, desk_cfg(HARMONIZED_LOSS)), with the benchmark grid's
    patience and initial-check settings."""

    config = {
        "schema_version": 1,
        "grid": {"ssnr_x_values": [32.0, 104.0, 176.0, 248.0, 320.0], "horizons": [64],
                 "history": 64, "replications": 1},
        "model": {"kind": "linear"},
        "train": {"optimizer": "adam", "lr": 1e-3, "max_epochs": 60, "patience": 61,
                  "batch_size": 128, "split": 0.7, "check_gradients": False},
        "loss": {"kind": "harmonized", "norm": "l1", "gamma": 0.5, "beta": 0.3,
                 "eps": 1e-8, "transform": "dft"},
    }


@pytest.fixture(scope="module")
def desk(workdir):
    """One desk-grid round at --jobs 1 and one at the default worker count."""
    grid = DeskGrid(workdir, seed=0)
    grid.write_inputs()
    return grid, grid.simulate(1, "serial.csv"), grid.simulate(None, "pooled.csv")


def test_desk_csv_identical_at_jobs_1_and_default(desk):
    grid, serial, pooled = desk
    assert not serial.problems and not pooled.problems
    assert serial.output[0] == pooled.output[0]
    assert checks.check_grid(*serial.output, grid.grid_config["grid"]) == []


def _with_rows(text: str, edit) -> str:
    lines = text.splitlines()
    return "\n".join([lines[0]] + edit(lines[1:])) + "\n"


def _eta_times(row: str, factor: float) -> str:
    fields = row.split(",")
    fields[-1] = format(float(fields[-1]) * factor, ".17g")
    return ",".join(fields)


@pytest.mark.parametrize("corruption", ["eta", "dropped-row", "failed-cell", "nan"])
def test_grid_check_fails_on_corrupted_output(desk, corruption):
    grid, serial, _ = desk
    text, meta = serial.output
    if corruption == "eta":
        text = _with_rows(text, lambda rows: [_eta_times(rows[0], 1.1)] + rows[1:])
    elif corruption == "dropped-row":
        text = _with_rows(text, lambda rows: rows[:-1])
    elif corruption == "failed-cell":
        meta = dict(meta, failures=[{"cell": "ssnr_x=32,h=64,rep=0", "error": "boom"}])
    else:
        text = _with_rows(text, lambda rows: [rows[0].rsplit(",", 1)[0] + ",nan"] + rows[1:])
    assert checks.check_grid(text, meta, grid.grid_config["grid"])


def test_eta_range_fails_outside_its_bounds():
    grid = {"ssnr_x_values": [32.0], "horizons": [64], "replications": 1}
    header = ",".join(checks.GRID_HEADER)

    def csv_for(eta):
        mse_rel = eta  # at ssnr_x = ssnr_z, mse_opt_rel = 1
        return f"{header}\n32,64,0,{mse_rel * 0.25 * 32!r},{mse_rel!r},1,{eta!r}\n"

    assert checks.check_grid(csv_for(0.6), {"failures": []}, grid) == []
    assert checks.check_grid(csv_for(0.1), {"failures": []}, grid)
    assert checks.check_grid(csv_for(2.5), {"failures": []}, grid)


@pytest.mark.parametrize("case", gradcheck.LOSS_CASES, ids=lambda c: c.name)
def test_gradient_check_fails_on_flipped_sign(case):
    rng = np.random.default_rng(11)
    x, x_hat = case.make_pair(rng, 16)
    loss = case.make_loss(rng, 16)
    analytic = loss(x, x_hat).grad_wrt_prediction
    fd = checks.central_difference_4(lambda xh: float(loss(x, xh).value), x_hat)
    assert checks.gradient_agreement(analytic, fd, case.tolerance, case.name) == []
    assert checks.gradient_agreement(-analytic, fd, case.tolerance, case.name)


def test_gradient_report_check_fails_on_failed_or_missing_case():
    names = [c.name for c in gradcheck.LOSS_CASES]
    good = {"checks": [{"name": n, "tolerance": 1e-4, "max_rel_err": 1e-9, "instances": 99,
                        "passed": True} for n in names], "all_passed": True}
    assert checks.check_gradient_report(good, names) == []
    failed = json.loads(json.dumps(good))
    failed["checks"][3].update(max_rel_err=1.0, passed=False)
    failed["all_passed"] = False
    assert checks.check_gradient_report(failed, names)
    missing = dict(good, checks=good["checks"][1:])
    assert checks.check_gradient_report(missing, names)


def _theory_outputs(phi):
    spec = ARSpec(c=0.0, phi=phi, innovation=calibrate_innovation("gaussian", 0.25),
                  sigma_eps2=0.25)
    sweep = (16, 128, 512)
    closed = [theory.eob_ar_closed_form(spec, T).value_nats for T in sweep]
    dense = [theory.eob_mgm(theory.corr_matrix_from_ar(spec, T)).value_nats for T in sweep[:2]]
    curve = theory.szego_convergence_curve(spec, sweep)
    residual = theory.verify_determinant_decomposition(spec, 128)
    return sweep, closed, dense, curve, residual


@pytest.mark.parametrize("phi", [(0.7,), tuple(checks.step_up([0.5, -0.8, 0.3]))])
def test_theory_check_fails_on_corrupted_output(phi):
    sweep, closed, dense, curve, residual = _theory_outputs(phi)
    assert checks.check_theory(phi, sweep, closed, dense, curve, residual) == []
    bumped = [closed[0], closed[1] * (1 + 1e-6), closed[2]]
    assert checks.check_theory(phi, sweep, bumped, dense, curve, residual)
    assert checks.check_theory(phi, sweep, closed, [dense[0] * 1.01, dense[1]], curve, residual)
    skewed = curve[:-1] + [(curve[-1][0], curve[-1][1] * 1.05)]
    assert checks.check_theory(phi, sweep, closed, dense, skewed, residual)
    assert checks.check_theory(phi, sweep, closed, dense, curve, 1e-3)


def test_series_check_fails_on_corrupted_output(workdir):
    analysis = workloads.BiasAnalysis(workdir, seed=3)
    analysis.write_inputs()
    output = analysis.run_round(None).output
    assert analysis.check_output(output) == []
    s = output["series"][2]
    args = (s["family"], analysis.phi, workloads.SIGMA_EPS2)
    n_windows = workloads.DIAG_SAMPLES - workloads.WINDOW + 1
    tail = (workloads.WINDOW, n_windows)
    assert checks.check_series(*args, s["series"], s["ssnr"] * 1.1, s["reports"], *tail)
    assert checks.check_series(*args, s["series"] * 1.1, s["ssnr"], s["reports"], *tail)
    assert checks.check_series(*args, s["series"] + 0.5, s["ssnr"], s["reports"], *tail)
    swapped = dict(s["reports"], raw=s["reports"]["fourier"], fourier=s["reports"]["raw"])
    assert checks.check_series(*args, s["series"], s["ssnr"], swapped, *tail)


def test_ma_reference_matches_the_ar1_closed_form():
    rho, ssnr = checks.ma_reference((0.6,), 10)
    assert np.allclose(rho, 0.6 ** np.arange(11), rtol=0, atol=1e-15)
    assert abs(ssnr - 1 / (1 - 0.36)) < 1e-12


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(workloads.PER_LAYER)
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_run_exits_nonzero_without_the_program(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "wavelet-grid",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

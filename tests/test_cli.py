import ctypes
import json
import math
import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

import eobkit
from conftest import INNOVATION_DOCS
from eobkit import cli, gradcheck
from eobkit.cli import _fmt, _parse_experiment_config, main
from eobkit.experiments import GridSpec, ModelSpec
from eobkit.processes import hybrid_spec_from_dict, to_dict
from test_experiments import tiny_grid
from test_gradcheck import nan_gradient


def run_cli(*argv) -> int:
    return main(list(argv))


AR_SPEC = {"c": 0.0, "phi": [0.6], "innovation": {"kind": "gaussian", "mu": 0.0, "sigma": 0.5},
           "sigma_eps2": 0.25}
PROCESS_SPEC = {"ar": AR_SPEC, "length": 1000,
                "det": {"base_amplitude": 1.0, "freqs": [3], "phases": [0.5], "period": 64}}
GRID_CONFIG = {
    "schema_version": 1,
    "grid": {"ssnr_x_values": [32.0, 96.0], "horizons": [16], "history": 16,
             "series_length": 700, "replications": 1, "seed": 0, "det_period": 32},
    "model": {"kind": "linear"},
    "train": {"lr": 1e-3, "max_epochs": 4, "check_gradients": False},
    "loss": {"kind": "temporal", "norm": "l2"},
}


@pytest.fixture
def ar_spec_file(tmp_path):
    path = tmp_path / "ar.json"
    path.write_text(json.dumps(AR_SPEC))
    return str(path)


@pytest.fixture
def process_spec_file(tmp_path):
    path = tmp_path / "proc.json"
    path.write_text(json.dumps({"ar": AR_SPEC, "length": 100_000}))
    return str(path)


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "generate" in capsys.readouterr().out

    def test_log_level_env_var(self, monkeypatch):
        monkeypatch.setenv("EOBKIT_LOG", "debug")
        assert run_cli("eob", "--phi", "0.5", "--T", "3") == 0
        monkeypatch.setenv("EOBKIT_LOG", "verbose")
        assert run_cli("eob", "--phi", "0.5", "--T", "3") == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli("frobnicate") == 1

    def test_missing_file_is_validation_error(self):
        assert run_cli("generate", "--spec", "/nonexistent.json") == 1

    def test_bad_spec_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"ar": {"c": 0, "phi": [1.5],
                                          "innovation": {"kind": "gaussian", "mu": 0, "sigma": 0.5},
                                          "sigma_eps2": 0.25}, "length": 10}))
        assert run_cli("generate", "--spec", str(bad)) == 1


class TestEob:
    def test_flags_match_closed_form(self, capsys):
        assert run_cli("eob", "--phi", "0.6", "--T", "10") == 0
        report = json.loads(capsys.readouterr().out)
        # total equals -1/2 log det(R) for the 10x10 correlation matrix
        assert report["value_nats"] == pytest.approx(4.5 * math.log(1.5625), rel=1e-10)
        assert report["ssnr"] == pytest.approx(1.5625)
        assert report["method"] == "ar_closed_form"
        assert set(report) == {"value_nats", "ssnr", "T", "p", "steady_term",
                               "transient_term", "method"}

    def test_spec_file_and_bits_flag(self, ar_spec_file, capsys):
        assert run_cli("eob", "--spec", ar_spec_file, "--T", "10", "--bits") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value_bits"] == pytest.approx(report["value_nats"] / math.log(2.0))

    def test_missing_T_is_validation_error(self):
        assert run_cli("eob", "--phi", "0.6") == 1

    @pytest.mark.parametrize("first,second", [
        (("--spec", "SPEC"), ("--phi", "0.9")), (("--spec", "SPEC"), ("--estimate",)),
        (("--phi", "0.9"), ("--estimate",))], ids=["spec-phi", "spec-estimate", "phi-estimate"])
    def test_core_sources_are_exclusive(self, first, second, ar_spec_file, tmp_path, capsys):
        series, out = tmp_path / "series.csv", tmp_path / "eob.json"
        series.write_text("value\n" + "\n".join(str(math.sin(i)) for i in range(64)) + "\n")
        argv = [ar_spec_file if a == "SPEC" else a for a in (*first, *second)]
        assert run_cli("eob", *argv, "--input", str(series), "--T", "16",
                       "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with argument" in captured.err
        assert not out.exists()

    # each flag given with the value it defaults to: naming it at all is the error
    @pytest.mark.parametrize("argv,flag", [
        (("--spec", "SPEC", "--sigma-eps2", "0.25"), "--sigma-eps2 requires --phi"),
        (("--spec", "SPEC", "--noise", "gaussian"), "--noise requires --phi"),
        (("--phi", "0.6", "--input", "SERIES"), "--input requires --estimate"),
        (("--phi", "0.6", "--order", "1"), "--order requires --estimate"),
        (("--estimate", "--input", "SERIES", "--bits"), "--bits is not allowed with --estimate"),
    ], ids=["sigma-eps2", "noise", "input", "order", "bits"])
    def test_flags_of_another_source_rejected(self, argv, flag, ar_spec_file, tmp_path, capsys):
        series, out = tmp_path / "series.csv", tmp_path / "eob.json"
        series.write_text("value\n" + "\n".join(str(math.sin(i)) for i in range(64)) + "\n")
        argv = [{"SPEC": ar_spec_file, "SERIES": str(series)}.get(a, a) for a in argv]
        assert run_cli("eob", *argv, "--T", "16", "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and flag in captured.err
        assert not out.exists()


class TestNegativeInputs:
    @pytest.mark.parametrize("command", [("generate", "--spec", "SPEC"), ("loss-check",),
                                         ("insight",)], ids=lambda c: c[0])
    def test_negative_seed_names_the_seed(self, command, process_spec_file, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [process_spec_file if a == "SPEC" else a for a in command]
        assert run_cli(*argv, "--seed", "-1", "--out", str(out)) == 1
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("T", ["0", "-5"])
    def test_estimate_window_below_one_is_rejected(self, T, tmp_path, capsys):
        series, out = tmp_path / "series.csv", tmp_path / "eob.json"
        series.write_text("value\n" + "\n".join(str(math.sin(i)) for i in range(64)) + "\n")
        assert run_cli("eob", "--estimate", "--input", str(series), "--T", T,
                       "--out", str(out)) == 1
        assert f"--T must be >= 1, got {T}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("noise", [*INNOVATION_DOCS, "cauchy"])
    def test_noise_takes_every_innovation_family(self, noise, capsys):
        assert run_cli("eob", "--phi", "0.6", "--T", "4", "--noise", noise) == (noise == "cauchy")


class TestRoundTrip:
    def test_generate_diagnose_estimate(self, process_spec_file, tmp_path, capsys):
        out = tmp_path / "series.csv"
        assert run_cli("generate", "--spec", process_spec_file, "--seed", "5",
                       "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "value" and len(lines) == 100_001

        assert run_cli("diagnose", "--input", str(out), "--window", "8",
                       "--transform", "none") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dim"] == 8
        assert 0.0 <= report["ode_ratio"] <= 1.0

        assert run_cli("eob", "--estimate", "--input", str(out), "--order", "1") == 0
        est = json.loads(capsys.readouterr().out)
        assert est["ssnr_estimate"] == pytest.approx(1.5625, rel=0.05)

    def test_generate_is_seed_deterministic(self, process_spec_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("generate", "--spec", process_spec_file, "--seed", "9", "--out", str(a))
        run_cli("generate", "--spec", process_spec_file, "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestTransform:
    def test_dft_impulse(self, tmp_path, capsys):
        src = tmp_path / "x.csv"
        src.write_text("value\n1.0\n0.0\n0.0\n0.0\n")
        assert run_cli("transform", "--input", str(src), "--kind", "dft") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,re,im"
        assert [line.split(",")[1] for line in lines[1:]] == ["0.5"] * 4

    def test_dft_rows_are_the_unitary_fft(self, tmp_path, capsys):
        x = np.random.default_rng(5).normal(size=37)
        src = tmp_path / "x.csv"
        src.write_text("value\n" + "\n".join(repr(float(v)) for v in x) + "\n")
        assert run_cli("transform", "--input", str(src), "--kind", "dft") == 0
        f = np.fft.fft(x, norm="ortho")
        expected = ["index,re,im"] + [f"{k},{_fmt(v.real)},{_fmt(v.imag)}" for k, v in enumerate(f)]
        assert capsys.readouterr().out.splitlines() == expected

    def test_dwt_haar(self, tmp_path, capsys):
        src = tmp_path / "x.csv"
        src.write_text("value\n1.0\n1.0\n1.0\n1.0\n")
        assert run_cli("transform", "--input", str(src), "--kind", "dwt",
                       "--wavelet", "haar", "--levels", "1") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,band,coeff"
        values = [float(line.split(",")[2]) for line in lines[1:]]
        np.testing.assert_allclose(values, [math.sqrt(2), math.sqrt(2), 0.0, 0.0],
                                   atol=1e-12)

    def test_pad_flag_for_odd_length(self, tmp_path):
        src = tmp_path / "x.csv"
        src.write_text("value\n" + "\n".join(["1.0"] * 5) + "\n")
        assert run_cli("transform", "--input", str(src), "--kind", "dwt", "--pad",
                       "--out", str(tmp_path / "w.csv")) == 0
        assert run_cli("transform", "--input", str(src), "--kind", "dwt") == 1


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ("eob", "--estimate", "--input", "{src}"),
        ("transform", "--input", "{src}", "--kind", "dwt"),
        ("diagnose", "--input", "{src}", "--window", "4"),
    ], ids=["eob", "transform", "diagnose"])
    def test_rejected_with_file_and_row(self, bad, argv, tmp_path, capsys):
        src = tmp_path / "series.csv"
        rows = [f"{0.1 * i:.1f}" for i in range(16)]
        rows[5] = bad
        src.write_text("value\n" + "\n".join(rows) + "\n")
        assert run_cli(*(a.format(src=src) for a in argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"non-finite value '{bad}' in {src} at row 7" in captured.err

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize("command,key", [("generate", "mu"), ("generate", "base_amplitude"),
                                             ("eob", "c"), ("simulate", "lr")])
    def test_json_rejected_with_file(self, command, key, bad, tmp_path, capsys):
        flag, doc = {"generate": ("--spec", PROCESS_SPEC), "eob": ("--spec", AR_SPEC),
                     "simulate": ("--grid", GRID_CONFIG)}[command]
        text = json.dumps(doc)
        assert text.count(f'"{key}": ') == 1
        src = tmp_path / "doc.json"
        src.write_text(re.sub(rf'"{key}": [^,}}]+', f'"{key}": {bad}', text))
        argv = [command, flag, str(src)] + (["--T", "10"] if command == "eob" else [])
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"non-finite number {bad} in {src}" in captured.err

    @pytest.mark.parametrize("flags,name", [
        (("--phi", "0.5", "--sigma-eps2", "inf"), "sigma_eps2"),
        (("--phi", "0.5", "--sigma-eps2", "nan"), "sigma_eps2"),
        (("--phi", "nan"), "phi"),
        (("--phi", "0.5", "inf"), "phi"),
    ], ids=["sigma_eps2-inf", "sigma_eps2-nan", "phi-nan", "phi-inf"])
    def test_eob_flags_rejected_by_name(self, flags, name, capsys):
        assert run_cli("eob", *flags, "--T", "10") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert name in captured.err and "finite" in captured.err


class TestDetK:
    @pytest.mark.parametrize("K", [None, 2.5, "1", True, 2])
    def test_bad_K_exits_1_naming_it(self, K, tmp_path, capsys):
        doc = json.loads(json.dumps(PROCESS_SPEC))
        doc["det"]["K"] = K
        src = tmp_path / "spec.json"
        src.write_text(json.dumps(doc))
        assert run_cli("generate", "--spec", str(src), "--out", str(tmp_path / "x.csv")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "det.K" in captured.err


class TestIntegerFields:
    @pytest.mark.parametrize("section,key,bad", [
        ("grid", "history", 16.5), ("grid", "horizons", [64.5]), ("grid", "replications", 1.5),
        ("model", "hidden", 8.5), ("train", "batch_size", 64.5), ("loss", "levels", 1.5),
    ])
    def test_simulate_rejects_non_integral(self, section, key, bad, tmp_path, capsys):
        doc = json.loads(json.dumps(GRID_CONFIG))
        doc[section][key] = bad
        src = tmp_path / "grid.json"
        src.write_text(json.dumps(doc))
        assert run_cli("simulate", "--grid", str(src)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err

    @pytest.mark.parametrize("key,bad", [("freqs", [2.5]), ("period", 64.5)])
    def test_det_rejects_non_integral(self, key, bad, tmp_path, capsys):
        doc = json.loads(json.dumps(PROCESS_SPEC))
        doc["det"][key] = bad
        src = tmp_path / "spec.json"
        src.write_text(json.dumps(doc))
        assert run_cli("generate", "--spec", str(src), "--out", str(tmp_path / "x.csv")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"DeterministicSpec.{key}" in captured.err


class TestFloatFields:
    @pytest.mark.parametrize("bad", ["0.5", True], ids=["string", "bool"])
    @pytest.mark.parametrize("section,key", [
        ("grid", "ssnr_x_values"), ("grid.ar", "c"), ("grid.ar", "sigma_eps2"),
        ("train", "lr"), ("train", "split"),
        ("loss", "gamma"), ("loss", "eps"), ("loss", "beta"),
    ])
    def test_simulate_rejects_non_real(self, section, key, bad, tmp_path, capsys):
        doc = json.loads(json.dumps(GRID_CONFIG))
        doc["grid"]["ar"] = json.loads(json.dumps(AR_SPEC))
        target = doc["grid"]["ar"] if section == "grid.ar" else doc[section]
        target[key] = [32.0, bad] if key == "ssnr_x_values" else bad
        src = tmp_path / "grid.json"
        src.write_text(json.dumps(doc))
        assert run_cli("simulate", "--grid", str(src), "--jobs", "1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f".{key}: expected a real number, got {bad!r}" in captured.err


class TestBoolFields:
    @pytest.mark.parametrize("bad", ["no", 0, 1, None], ids=["string", "zero", "one", "null"])
    def test_simulate_rejects_non_boolean(self, bad, tmp_path, capsys):
        doc = json.loads(json.dumps(GRID_CONFIG))
        doc["train"]["check_gradients"] = bad
        src = tmp_path / "grid.json"
        src.write_text(json.dumps(doc))
        assert run_cli("simulate", "--grid", str(src), "--jobs", "1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"TrainConfig.check_gradients: expected a boolean, got {bad!r}" in captured.err


_SPEC_FIELDS = [
    ("student_t", "nu"), ("student_t", "alpha"), ("gaussian", "mu"), ("gaussian", "sigma"),
    ("uniform", "a"), ("uniform", "b"), ("poisson", "lambda"), ("geometric", "p"),
    ("binomial", "p"), ("ar", "c"), ("ar", "phi"), ("ar", "sigma_eps2"),
    ("det", "base_amplitude"), ("det", "phases"),
]


class TestProcessSpecFields:
    """A string or a boolean in a numeric field of a process spec exits 1, naming the field."""

    @pytest.mark.parametrize("bad", ["3", True], ids=["string", "bool"])
    @pytest.mark.parametrize("command,kind,key", [
        (command, kind, key) for command in ("generate", "eob") for kind, key in _SPEC_FIELDS
        if not (command == "eob" and kind == "det")])
    def test_rejected_by_name(self, command, kind, key, bad, tmp_path, capsys):
        ar, det = json.loads(json.dumps(AR_SPEC)), dict(PROCESS_SPEC["det"])
        if kind not in ("ar", "det"):
            ar["innovation"] = dict(INNOVATION_DOCS[kind])
        section = {"ar": ar, "det": det}.get(kind, ar["innovation"])
        section[key] = [bad] if key in ("phi", "phases") else bad
        src = tmp_path / "spec.json"
        src.write_text(json.dumps(ar if command == "eob" else {"ar": ar, "det": det,
                                                               "length": 100}))
        argv = ([command, "--spec", str(src)]
                + (["--T", "10"] if command == "eob" else ["--out", str(tmp_path / "x.csv")]))
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f".{key}: expected a real number, got {bad!r}" in captured.err


class TestLossConfigAtParse:
    """Bad loss values exit 1 before any cell runs, not 2 after every cell failed."""

    @pytest.mark.parametrize("key,bad,grid", [
        ("transform", "fft", {}), ("gamma", -1, {}), ("eps", 0, {}), ("wavelet", "db4", {}),
        ("wavelet", ["db2"], {}), ("wavelet", {"a": 1}, {}),
        ("levels", 0, {}), ("levels", 7, {"horizons": [64]}),
    ])
    def test_simulate_rejects_bad_loss_value(self, key, bad, grid, tmp_path, capsys):
        doc = json.loads(json.dumps(GRID_CONFIG))
        doc["grid"].update(grid)
        doc["loss"] = {"kind": "harmonized", "norm": "l2", "transform": "dwt", key: bad}
        src = tmp_path / "grid.json"
        src.write_text(json.dumps(doc))
        assert run_cli("simulate", "--grid", str(src), "--jobs", "1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err


class TestGridSpecAtParse:
    """A grid that no cell, or only some cells, could run exits 1 before any cell runs,
    naming the field, with nothing on stdout and no CSV."""

    @pytest.mark.parametrize("key,bad", [
        ("det_fmax", 2), ("det_fmax", 16), ("det_fmax", 40),
        ("det_harmonics", 0), ("det_period", 0), ("history", 0), ("series_length", 10),
        ("series_length", 66), ("horizons", [0, 16]), ("seed", -4),
        ("ssnr_x_values", [32, 96, 96]), ("horizons", [16, 16]),
    ])
    def test_simulate_rejects_impossible_grid(self, key, bad, tmp_path, capsys):
        doc = json.loads(json.dumps(GRID_CONFIG))
        doc["grid"][key] = bad
        src, out = tmp_path / "grid.json", tmp_path / "grid.csv"
        src.write_text(json.dumps(doc))
        assert run_cli("simulate", "--grid", str(src), "--jobs", "1", "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("edit,named", [
        ({"innovation": {"kind": "cauchy", "scale": 1.0}}, "innovation kind must be one of"),
        ({"phi": [1.5]}, "AR coefficients (1.5,) are non-stationary"),
        ({"innovation": INNOVATION_DOCS["binomial"], "sigma_eps2": 2.0},
         "innovation variance 0.25 does not match sigma_eps2=2"),
        ({"sigma": 0.5}, "unknown field(s) in ar: ['sigma']"),
    ], ids=["unknown-kind", "non-stationary", "binomial-variance", "unknown-key"])
    def test_simulate_rejects_impossible_ar_core(self, edit, named, tmp_path, capsys):
        doc = json.loads(json.dumps(GRID_CONFIG))
        doc["grid"]["ar"] = {**AR_SPEC, **edit}
        src, out = tmp_path / "grid.json", tmp_path / "grid.csv"
        src.write_text(json.dumps(doc))
        assert run_cli("simulate", "--grid", str(src), "--jobs", "1", "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err
        assert not out.exists()

    def test_level_below_the_core_ssnr_names_both(self, tmp_path, capsys):
        # AR(2) with phi = (0.5, 0.3): SSNR = 1 / ((1 - 0.3^2)(1 - (0.5/0.7)^2)) = 2.2435...
        doc = json.loads(json.dumps(GRID_CONFIG))
        doc["grid"]["ar"] = {**AR_SPEC, "phi": [0.5, 0.3]}
        doc["grid"]["ssnr_x_values"] = [2.0, 8.0]
        src, out = tmp_path / "grid.json", tmp_path / "grid.csv"
        src.write_text(json.dumps(doc))
        assert run_cli("simulate", "--grid", str(src), "--jobs", "1", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "closed-form SSNR 2.24358974358974" in err and "ssnr_x_values has [2.0]" in err
        assert not out.exists()

    @pytest.mark.parametrize("model,override,field", [({"init_seed": -1}, [], "init_seed"),
                                                      ({}, ["--seed", "-1"], "seed")],
                             ids=["init-seed", "seed-override"])
    def test_negative_seed_exits_1_before_any_cell(self, model, override, field, tmp_path,
                                                   capsys, monkeypatch):
        monkeypatch.setattr(cli.experiments, "run_grid",
                            lambda *args, **kwargs: pytest.fail("a grid cell ran"))
        src, out = tmp_path / "grid.json", tmp_path / "grid.csv"
        src.write_text(json.dumps({**GRID_CONFIG, "model": {**GRID_CONFIG["model"], **model}}))
        assert run_cli("simulate", "--grid", str(src), "--jobs", "1", "--out", str(out),
                       *override) == 1
        assert re.search(rf"(^|\s){field} must be >= 0, got -1", capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [src]


class TestLossCheck:
    @pytest.mark.parametrize("instances,lengths", [("100", "8,32,128"), ("2", "8,16,32")])
    def test_reports_exact_instance_count(self, instances, lengths, capsys):
        assert run_cli("loss-check", "--losses", "temporal_l2,harmonized_l2_dwt",
                       "--instances", instances, "--lengths", lengths) == 0
        report = json.loads(capsys.readouterr().out)
        assert [c["instances"] for c in report["checks"]] == [int(instances)] * 2

    def test_zero_instances_is_validation_error(self):
        assert run_cli("loss-check", "--instances", "0") == 1

    def test_subset_passes(self, capsys):
        assert run_cli("loss-check", "--losses", "temporal_l2,freq_real_imag_l2",
                       "--instances", "4", "--lengths", "8,16") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_passed"] is True
        assert {c["name"] for c in report["checks"]} == {"temporal_l2", "freq_real_imag_l2"}

    @pytest.mark.parametrize("names,message", [
        ("nonsense", "unknown loss case(s): ['nonsense']"),
        ("temporal_l2,temporal_l2", "duplicate loss case(s): ['temporal_l2']"),
        ("temporal_l2,", "empty loss case name in ['temporal_l2', '']"),
        ("", "empty loss case name in ['']")])
    def test_bad_losses_exit_1_naming_the_problem(self, names, message, capsys, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("loss-check", "--losses", names, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not out.exists()

    def test_nan_gradient_exits_2_with_a_null_error(self, monkeypatch, tmp_path):
        monkeypatch.setattr(gradcheck, "LOSS_CASES", tuple(
            nan_gradient(c, 8, 0) if c.name == "temporal_l2" else c for c in gradcheck.LOSS_CASES))
        out = tmp_path / "report.json"
        assert run_cli("loss-check", "--losses", "temporal_l2,temporal_l1", "--instances", "4",
                       "--lengths", "8,32", "--out", str(out)) == 2
        report = json.loads(out.read_text())
        assert report["all_passed"] is False
        nan_case, other = report["checks"]
        assert nan_case == {"name": "temporal_l2", "tolerance": gradcheck.SMOOTH_TOL,
                            "max_rel_err": None, "instances": 4, "passed": False}
        assert other["passed"] is True and other["max_rel_err"] < gradcheck.KINKED_TOL


class TestLossCheckLengths:
    @pytest.mark.parametrize("lengths,message", [
        ("", "lengths must name at least one"), ("0", "lengths must be >= 1, got 0"),
        ("-4", "lengths must be >= 1, got -4"), ("8,x", "lengths: expected an integer, got 'x'"),
        ("8.5", "lengths: expected an integer, got '8.5'"),
        ("1", "lengths must be even for harmonized_l2_dwt, got 1"),
        ("8,7,32", "lengths must be even for harmonized_l2_dwt, got 7")])
    def test_bad_lengths_exit_1_naming_the_flag(self, lengths, message, capsys, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("loss-check", "--lengths", lengths, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not out.exists()

    def test_odd_length_passes_without_the_dwt_case(self, capsys):
        assert run_cli("loss-check", "--lengths", "7", "--instances", "2",
                       "--losses", "temporal_l2,freq_real_imag_l1") == 0
        assert json.loads(capsys.readouterr().out)["all_passed"] is True

    def test_lengths_without_instances_pass(self, capsys):
        assert run_cli("loss-check", "--instances", "1") == 0
        report = json.loads(capsys.readouterr().out)
        assert [c["instances"] for c in report["checks"]] == [1] * len(report["checks"])

    @pytest.mark.parametrize("lengths", [(), (0,), (8, 8.5), (8, "x"), (True,)])
    def test_library_rejects_by_name(self, lengths):
        with pytest.raises(ValueError, match="lengths"):
            gradcheck.run_gradient_suite(lengths=lengths, instances=3)


@pytest.fixture
def grid_config_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(GRID_CONFIG))
    return str(path)


# non-default grid cores, each with innovation variance 0.25: an AR(2) with Poisson
# innovations and an AR(1) with Student-t innovations at nu = 3
CORES = {"ar2-poisson": {**AR_SPEC, "phi": [0.5, 0.3], "innovation": INNOVATION_DOCS["poisson"]},
         "student-t-nu3": {**AR_SPEC, "innovation": {"kind": "student_t", "nu": 3.0,
                                                     "alpha": math.sqrt(0.25 / 3.0)}}}


class TestSimulate:
    HEADER = "ssnr_x,horizon,replication,mse_actual,mse_relative,mse_opt_rel,inefficiency"

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_fewer_than_one_worker_rejected(self, jobs, grid_config_file, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert run_cli("simulate", "--grid", grid_config_file, "--jobs", jobs,
                       "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "jobs" in captured.err
        assert not out.exists()

    def test_csv_header_and_shape(self, grid_config_file, tmp_path):
        out = tmp_path / "surface.csv"
        assert run_cli("simulate", "--grid", grid_config_file, "--out", str(out),
                       "--jobs", "1") == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == 3  # 2 levels x 1 horizon x 1 rep
        meta = json.loads((tmp_path / "surface.csv.meta.json").read_text())
        assert set(meta) == {"config", "cells", "failures"}
        assert meta["failures"] == []
        assert meta["config"]["loss"] == {**meta["config"]["loss"], **GRID_CONFIG["loss"]}
        assert "loss" not in meta["config"]["train"]
        header = self.HEADER.split(",")
        for line, cell in zip(lines[1:], meta["cells"]):
            assert set(cell) == {"point", "amplitude", "epochs_run", "best_epoch"}
            assert list(cell["point"]) == header
            assert [float(v) for v in line.split(",")] == list(cell["point"].values())
            assert 1 <= cell["best_epoch"] <= cell["epochs_run"] <= 4
        assert meta["cells"][0]["amplitude"] == 0.0 < meta["cells"][1]["amplitude"]

    @pytest.mark.parametrize("loss,core", [
        ({"kind": "temporal", "norm": "l2"}, {}),
        ({"kind": "harmonized", "norm": "l2", "transform": "dwt", "wavelet": "db2", "levels": 2},
         {}),
        ({"kind": "temporal", "norm": "l2"}, {"ar": CORES["ar2-poisson"]}),
        ({"kind": "temporal", "norm": "l2"}, {"ar": CORES["student-t-nu3"]}),
    ], ids=["temporal", "harmonized-dwt", "ar2-poisson", "student-t-nu3"])
    def test_sidecar_config_reproduces_the_csv(self, loss, core, tmp_path):
        doc = {**GRID_CONFIG, "grid": {**GRID_CONFIG["grid"], **core}, "loss": loss}
        src = tmp_path / "grid.json"
        src.write_text(json.dumps(doc))
        first, replay = tmp_path / "first.csv", tmp_path / "replay.csv"
        assert run_cli("simulate", "--grid", str(src), "--out", str(first), "--jobs", "1",
                       "--seed", "3") == 0
        config = json.loads((tmp_path / "first.csv.meta.json").read_text())["config"]
        assert config["grid"]["seed"] == 3
        assert config["grid"]["ar"] == core.get("ar", config["grid"]["ar"])
        assert _parse_experiment_config(config, None) == _parse_experiment_config(doc, 3)
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert run_cli("simulate", "--grid", str(tmp_path / "config.json"), "--out",
                       str(replay), "--jobs", "1") == 0
        assert replay.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("core", CORES.values(), ids=CORES)
    def test_core_csv_identical_across_jobs(self, core, grid_config_file, tmp_path):
        src = tmp_path / "core.json"
        src.write_text(json.dumps({**GRID_CONFIG, "grid": {**GRID_CONFIG["grid"], "ar": core}}))
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        assert run_cli("simulate", "--grid", str(src), "--out", str(serial), "--jobs", "1") == 0
        assert run_cli("simulate", "--grid", str(src), "--out", str(pooled), "--jobs", "2") == 0
        assert serial.read_bytes() == pooled.read_bytes()
        default = tmp_path / "default.csv"
        assert run_cli("simulate", "--grid", grid_config_file, "--out", str(default),
                       "--jobs", "1") == 0
        assert serial.read_bytes() != default.read_bytes()

    def test_deterministic_given_seed(self, grid_config_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("simulate", "--grid", grid_config_file, "--out", str(a), "--jobs", "1")
        run_cli("simulate", "--grid", grid_config_file, "--out", str(b), "--jobs", "1")
        assert a.read_bytes() == b.read_bytes()

    def test_schema_version_enforced(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 2, "grid": {}}))
        assert run_cli("simulate", "--grid", str(bad)) == 1

    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "grid": {"seed": 0},
                                   "surprise": {}}))
        assert run_cli("simulate", "--grid", str(bad)) == 1


# A null det is the spec without sinusoids, so (det, None) is left out.
NON_OBJECT_SECTIONS = [(command, section, value)
                       for command, sections in (("simulate", ("grid", "model", "train", "loss")),
                                                 ("generate", ("ar", "det", "innovation")))
                       for section in sections for value in (None, [1], 5)
                       if (section, value) != ("det", None)]


class TestSchema:
    @pytest.mark.parametrize("command,section,value", NON_OBJECT_SECTIONS)
    def test_non_object_section_exits_1(self, command, section, value, tmp_path, capsys):
        doc = json.loads(json.dumps(GRID_CONFIG if command == "simulate" else PROCESS_SPEC))
        (doc["ar"] if section == "innovation" else doc)[section] = value
        with pytest.raises(ValueError, match=f"^{section}( config)? must be a JSON object"):
            if command == "simulate":
                _parse_experiment_config(doc, None)
            else:
                hybrid_spec_from_dict(doc)
        src = tmp_path / "doc.json"
        src.write_text(json.dumps(doc))
        assert run_cli(command, "--grid" if command == "simulate" else "--spec", str(src)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert section in captured.err and "must be a JSON object" in captured.err

    def test_config_builds_the_specs(self):
        grid, model, cfg = _parse_experiment_config(GRID_CONFIG, None)
        assert grid == GridSpec(ssnr_x_values=(32.0, 96.0), horizons=(16,), history=16,
                                series_length=700, replications=1, seed=0, det_period=32)
        assert model == ModelSpec(kind="linear")
        assert (cfg.lr, cfg.max_epochs, cfg.check_gradients, cfg.loss.kind) == (
            1e-3, 4, False, "temporal")

    def test_model_without_kind_is_linear(self):
        doc = {**GRID_CONFIG, "model": {"hidden": 8}}
        _, model, _ = _parse_experiment_config(doc, None)
        assert model == ModelSpec(kind="linear", hidden=8)
        del doc["model"]
        assert _parse_experiment_config(doc, None)[1] == ModelSpec()

    def test_seed_flag_overrides_the_grid_seed(self):
        grid, _, _ = _parse_experiment_config(GRID_CONFIG, 7)
        assert grid == GridSpec(ssnr_x_values=(32.0, 96.0), horizons=(16,), history=16,
                                series_length=700, replications=1, seed=7, det_period=32)

    # the grid's old core keys are unknown: its core is the "ar" block
    @pytest.mark.parametrize("section,key", [("grid", "bogus"), ("grid", "ssnr_z"),
                                             ("grid", "sigma_eps2"), ("grid", "noise"),
                                             ("model", "input_len"), ("train", "loss"),
                                             ("loss", "bogus")])
    def test_unknown_or_fixed_key_rejected(self, section, key):
        doc = json.loads(json.dumps(GRID_CONFIG))
        doc[section][key] = 1
        with pytest.raises(ValueError, match=rf"unknown field\(s\) in {section} config"):
            _parse_experiment_config(doc, None)


class TestInsightCli:
    def test_writes_report(self, tmp_path):
        out = tmp_path / "insight.json"
        assert run_cli("insight", "--K", "1", "--fmax", "4", "--n", "640",
                       "--seed", "1", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert set(report) == {"tone_freqs", "tone_bins", "leakage",
                               "in_band_amp_error", "dominant_bin"}
        assert set(report["leakage"]) == {"temporal", "harmonized"}


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "eobkit.cli", "eob", "--phi", "0.5",
                           "--T", "3"], capture_output=True, text=True)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["value_nats"] == pytest.approx(-0.5 * math.log(0.5625), rel=1e-10)


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run `python -c code` against this checkout's eobkit, in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(eobkit.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env)


class TestNumpyOnlyRuntime:
    def test_cli_import_loads_no_scipy(self):
        proc = run_python("import sys, eobkit.cli\n"
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_subcommands_run_with_scipy_blocked(self, process_spec_file, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "schema_version": 1, "grid": to_dict(tiny_grid()),
            "train": {"max_epochs": 5, "patience": 5, "check_gradients": False},
            "loss": {"kind": "temporal", "norm": "l2"}}))
        series, surface = str(tmp_path / "series.csv"), str(tmp_path / "surface.csv")
        argvs = [["eob", "--phi", "0.9", "--T", "1000"],
                 ["generate", "--spec", process_spec_file, "--seed", "1", "--out", series],
                 ["diagnose", "--input", series, "--window", "8"],
                 ["loss-check", "--instances", "14"],
                 ["simulate", "--grid", str(grid), "--out", surface, "--jobs", "1"]]
        proc = run_python("import json, sys\n"
                          "sys.modules['scipy'] = None  # any scipy import now fails\n"
                          "from eobkit.cli import main\n"
                          "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
                          "print(json.dumps(codes))", json.dumps(argvs))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1]) == [0] * len(argvs), proc.stderr


class FakeMallopt:
    """Stands in for glibc's mallopt: records its calls and returns `result`."""

    def __init__(self, result: int):
        self.result, self.calls = result, []

    def __call__(self, param: int, value: int) -> int:
        self.calls.append((param, value))
        return self.result


class TestSteadyHeap:
    ARGV = ("loss-check", "--lengths", "128", "--instances", "14")

    @pytest.fixture
    def fresh_helper(self):
        cli._steady_heap.cache_clear()
        yield
        cli._steady_heap.cache_clear()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's")
    def test_repeated_loss_check_faults_few_pages(self, tmp_path):
        # a fresh interpreter: a heap the earlier tests grew hides the faults
        proc = run_python("import resource, sys\n"
                          "from eobkit.cli import main\n"
                          "assert main(sys.argv[1:]) == 0\n"
                          "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                          "assert main(sys.argv[1:]) == 0\n"
                          "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
                          *self.ARGV, "--out", str(tmp_path / "report.json"))
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 1000

    @pytest.mark.parametrize("result,calls", [
        (1, [(-3, 4 << 20), (-1, 8 << 20)]), (0, [(-3, 4 << 20)])])
    def test_sets_fixed_thresholds_once(self, result, calls, monkeypatch, fresh_helper):
        mallopt = FakeMallopt(result)
        monkeypatch.setattr(platform, "libc_ver", lambda: ("glibc", "2.36"))
        monkeypatch.setattr(ctypes, "CDLL", lambda name: type("Libc", (), {"mallopt": mallopt}))
        cli._steady_heap()
        cli._steady_heap()
        assert mallopt.calls == calls

    @pytest.mark.parametrize("libc,library", [
        (("glibc", "2.36"), type("Libc", (), {})), (("", ""), None)],
        ids=["no-mallopt", "other-libc"])
    def test_main_runs_the_same_without_the_policy(self, libc, library, monkeypatch,
                                                   fresh_helper, tmp_path):
        with_policy, without = tmp_path / "with.json", tmp_path / "without.json"
        assert run_cli(*self.ARGV, "--out", str(with_policy)) == 0
        cli._steady_heap.cache_clear()
        monkeypatch.setattr(platform, "libc_ver", lambda: libc)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: library)
        assert run_cli(*self.ARGV, "--out", str(without)) == 0
        assert without.read_bytes() == with_policy.read_bytes()

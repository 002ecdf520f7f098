"""Command-line entry point wiring all modules together.

Subcommands: generate, eob, transform, diagnose, loss-check, simulate,
insight. Exit codes: 0 success, 1 validation error, 2 runtime failure.
Outputs go to the declared file or stdout; logs go to stderr (level from
the EOBKIT_LOG environment variable). All randomness flows from --seed
(or the seed embedded in a config document); absent seeds mean 0, never
wall-clock.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import math
import os
import platform
import sys
from dataclasses import asdict, astuple, fields, replace

import numpy as np

from . import diagnostics, experiments, gradcheck, theory, transforms
from .processes import (_INNOVATION_KINDS, ARSpec, ar_spec_from_dict, from_dict,
                        hybrid_spec_from_dict, synthesize_hybrid, calibrate_innovation)

log = logging.getLogger("eobkit")

SCHEMA_VERSION = 1

# glibc's mallopt parameters, and the fixed values the CLI gives them (see _steady_heap)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD = 8 << 20
_MMAP_THRESHOLD = 4 << 20


@functools.cache
def _steady_heap() -> None:
    """Fix glibc's heap thresholds for this process: blocks under 4 MB come from the heap,
    and free heap is handed back to the kernel only past 8 MB.

    glibc adapts both thresholds as blocks come and go, so the 100-300 kB temporaries of
    a loss call can go back to the kernel after every call and fault their pages in again
    on the next; fixed thresholds keep them in the heap. It is the CLI's choice as the
    owner of the process, made once when `main` first runs and inherited by forked grid
    workers; importing eobkit leaves the allocator alone. Any other libc, or a mallopt
    that is missing or refuses a value, leaves the defaults.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _setup_logging() -> None:
    level_name = os.environ.get("EOBKIT_LOG", "warn").lower()
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise ValueError(f"EOBKIT_LOG must be one of {sorted(levels)}, got {level_name!r}")
    logging.basicConfig(stream=sys.stderr, level=levels[level_name],
                        format="%(levelname)s %(name)s: %(message)s")


def _fmt(value: float) -> str:
    # 17 significant digits round-trip any float bit-exactly
    return format(float(value), ".17g")


def _write_json(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, indent=2, allow_nan=False)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        log.info("wrote %s", path)


def _read_series(path: str) -> np.ndarray:
    """Single-column CSV, optional header row."""
    values = []
    with open(path, newline="", encoding="utf-8") as fh:
        for line, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            try:
                value = float(row[0])
            except ValueError:
                if values:
                    raise ValueError(f"non-numeric value {row[0]!r} in {path}") from None
                continue  # header row
            if not math.isfinite(value):
                raise ValueError(f"non-finite value {row[0]!r} in {path} at row {line}")
            values.append(value)
    if not values:
        raise ValueError(f"no numeric data found in {path}")
    return np.asarray(values)


def _load_json(path: str) -> dict:
    def reject(text: str):
        raise ValueError(f"non-finite number {text} in {path}")

    def parse_float(text: str) -> float:
        value = float(text)
        return value if math.isfinite(value) else reject(text)

    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh, parse_constant=reject, parse_float=parse_float)
    if not isinstance(obj, dict):
        raise ValueError(f"{path} must contain a JSON object")
    return obj


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_generate(args: argparse.Namespace) -> int:
    spec = hybrid_spec_from_dict(_load_json(args.spec))
    series = synthesize_hybrid(spec, seed=args.seed)
    rows = [["value"]] + [[_fmt(v)] for v in series]
    _write_csv(rows, args.out)
    return 0


def _write_csv(rows: list[list[str]], path: str | None) -> None:
    if path is None:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows(rows)
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        log.info("wrote %s", path)


def _cmd_eob(args: argparse.Namespace) -> int:
    if args.estimate:
        if args.input is None:
            raise ValueError("--estimate requires --input series.csv")
        series = _read_series(args.input)
        ssnr = diagnostics.estimate_ssnr(series, order=args.order)
        out = {"ssnr_estimate": ssnr, "order": args.order, "n": int(series.shape[0])}
        if args.T is not None:
            if args.T < 1:
                raise ValueError(f"--T must be >= 1, got {args.T}")
            out["eob_nats_at_T"] = 0.5 * args.T * math.log(ssnr)
        _write_json(out, args.out)
        return 0

    if args.spec is not None:
        spec = ar_spec_from_dict(_load_json(args.spec))
    elif args.phi is not None:
        sigma = args.sigma_eps2
        spec = ARSpec(c=0.0, phi=tuple(args.phi),
                      innovation=calibrate_innovation(args.noise, sigma), sigma_eps2=sigma)
    else:
        raise ValueError("eob requires --spec FILE or --phi ... (or --estimate)")
    if args.T is None:
        raise ValueError("eob requires --T")
    report = theory.eob_ar_closed_form(spec, args.T)
    payload = report.to_dict()
    if args.bits:
        payload["value_bits"] = report.value_bits
    _write_json(payload, args.out)
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    series = _read_series(args.input)
    if args.pad:
        padded, original = transforms.pad_edge_pow2(series)
        if padded.shape[0] != original:
            log.info("padded input from %d to %d samples (edge replication)",
                     original, padded.shape[0])
        series = padded
    if args.kind == "dft":
        spec = transforms.dft_forward(series)
        rows = [["index", "re", "im"]]
        rows += [[str(i), _fmt(r), _fmt(m)] for i, (r, m) in enumerate(zip(spec.real, spec.imag))]
    else:
        coeffs = transforms.dwt_forward(series, args.wavelet, args.levels)
        rows = [["index", "band", "coeff"]]
        i = 0
        for band, block in coeffs.blocks().items():
            for v in block:
                rows.append([str(i), band, _fmt(v)])
                i += 1
    _write_csv(rows, args.out)
    return 0


def _transformed_windows(windows: np.ndarray, kind: str, wavelet: str, levels: int) -> np.ndarray:
    if kind == "none":
        return windows
    if kind == "dft":
        return transforms.real_fourier_coordinates(windows)
    return transforms.dwt_forward(windows, wavelet, levels).coeffs


def _cmd_diagnose(args: argparse.Namespace) -> int:
    series = _read_series(args.input)
    windows = diagnostics.sliding_windows(series, args.window)
    data = _transformed_windows(windows, args.transform, args.wavelet, args.levels)
    report = diagnostics.orthogonality_report(data)
    _write_json(report.to_dict(), args.out)
    return 0


def _int_or_text(text: str) -> int | str:
    try:
        return int(text)
    except ValueError:
        return text


def _cmd_loss_check(args: argparse.Namespace) -> int:
    names = tuple(args.losses.split(",")) if args.losses != "all" else None
    # text that is no integer goes through as it is, for the suite to reject by name
    lengths = tuple(_int_or_text(v) for v in (args.lengths.split(",") if args.lengths else ()))
    reports = gradcheck.run_gradient_suite(lengths=lengths, instances=args.instances,
                                           seed=args.seed, names=names)
    payload = {"checks": [r.to_dict() for r in reports],
               "all_passed": all(r.passed for r in reports)}
    _write_json(payload, args.out)
    if not payload["all_passed"]:
        log.error("gradient check failed for: %s",
                  ", ".join(r.name for r in reports if not r.passed))
        return 2
    return 0


def _parse_experiment_config(obj: dict, seed_override: int | None):
    unknown = set(obj) - {"schema_version", "grid", "model", "train", "loss"}
    if unknown:
        raise ValueError(f"unknown field(s) in experiment config: {sorted(unknown)}")
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"schema_version must be {SCHEMA_VERSION}, got {obj.get('schema_version')!r}")
    if "grid" not in obj:
        raise ValueError("experiment config requires a 'grid' section")

    grid = from_dict(experiments.GridSpec, obj["grid"], "grid config")
    if seed_override is not None:
        grid = replace(grid, seed=seed_override)
    model = from_dict(experiments.ModelSpec, obj.get("model", {}), "model config")
    loss = from_dict(experiments.LossSpec, obj.get("loss", {}), "loss config")
    cfg = from_dict(experiments.TrainConfig, obj.get("train", {}), "train config", loss=loss)
    return grid, model, cfg


def _cmd_simulate(args: argparse.Namespace) -> int:
    grid, model, cfg = _parse_experiment_config(_load_json(args.grid), args.seed)
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    result = experiments.run_grid(grid, model, cfg, jobs=jobs)
    log.info("ran %d grid cells with %d worker(s)",
             len(result.records) + len(result.failures), jobs)
    for label, error in result.failures:
        log.error("cell %s failed: %s", label, error)

    rows = [[f.name for f in fields(diagnostics.SurfacePoint)]]
    rows += [[_fmt(v) if isinstance(v, float) else str(v) for v in astuple(pt)]
             for pt in result.points]
    _write_csv(rows, args.out)

    if args.out is not None:
        # the parsed specs as a config document: `simulate --grid` reads it back to them
        config = {"schema_version": SCHEMA_VERSION, "grid": asdict(grid),
                  "model": asdict(model), "train": asdict(cfg)}
        config["loss"] = config["train"].pop("loss")
        _write_json({"config": config,
                     "cells": [asdict(record) for record in result.records],
                     "failures": [{"cell": c, "error": e} for c, e in result.failures]},
                    args.out + ".meta.json")
    if result.failures and not result.records:
        return 2
    return 0


def _cmd_insight(args: argparse.Namespace) -> int:
    report = experiments.insight_experiment(K=args.K, fmax=args.fmax, n=args.n,
                                            seed=args.seed)
    _write_json(report.to_dict(), args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eobkit",
        description="Optimization-bias calculators, synthetic processes, orthogonal "
                    "transforms, harmonized losses and desk-scale experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a series from a process spec JSON")
    p.add_argument("--spec", required=True, help="process spec JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("eob", help="closed-form bias report for an AR spec")
    p.add_argument("--spec", default=None, help="AR spec JSON file")
    p.add_argument("--phi", type=float, nargs="+", default=None,
                   help="AR coefficients (alternative to --spec)")
    p.add_argument("--sigma-eps2", type=float, default=0.25, dest="sigma_eps2")
    p.add_argument("--noise", default="gaussian", choices=sorted(_INNOVATION_KINDS))
    p.add_argument("--T", type=int, default=None, help="window length")
    p.add_argument("--bits", action="store_true", help="also report the value in bits")
    p.add_argument("--estimate", action="store_true",
                   help="estimate SSNR from a series instead of using a spec")
    p.add_argument("--input", default=None, help="series CSV (with --estimate)")
    p.add_argument("--order", type=int, default=1, help="fit order (with --estimate)")
    p.add_argument("--out", default=None, help="output JSON (default stdout)")
    p.set_defaults(fn=_cmd_eob)

    p = sub.add_parser("transform", help="DFT/DWT coefficients of a series CSV")
    p.add_argument("--input", required=True, help="series CSV")
    p.add_argument("--kind", default="dft", choices=["dft", "dwt"])
    p.add_argument("--wavelet", default="haar", choices=sorted(transforms.WAVELET_FILTERS))
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--pad", action="store_true",
                   help="edge-pad to the next power of two before transforming")
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("diagnose", help="structural-orthogonality report for a series")
    p.add_argument("--input", required=True, help="series CSV")
    p.add_argument("--window", type=int, required=True, help="window length L")
    p.add_argument("--transform", default="none", choices=["dft", "dwt", "none"])
    p.add_argument("--wavelet", default="haar", choices=sorted(transforms.WAVELET_FILTERS))
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--out", default=None, help="output JSON (default stdout)")
    p.set_defaults(fn=_cmd_diagnose)

    p = sub.add_parser("loss-check", help="finite-difference check of loss gradients")
    p.add_argument("--losses", default="all", help="comma-separated case names or 'all'")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--lengths", default="8,32,128")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output JSON (default stdout)")
    p.set_defaults(fn=_cmd_loss_check)

    p = sub.add_parser("simulate", help="run an error-surface grid experiment")
    p.add_argument("--grid", required=True, help="experiment config JSON")
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    p.add_argument("--jobs", type=int, default=None, help="parallel workers (default: cores)")
    p.add_argument("--seed", type=int, default=None, help="override the grid seed")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("insight", help="sinusoid recovery under two loss regimes")
    p.add_argument("--K", type=int, default=3, help="number of tones")
    p.add_argument("--fmax", type=int, default=15, help="maximum tone frequency")
    p.add_argument("--n", type=int, default=3072, help="series length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output JSON (default stdout)")
    p.set_defaults(fn=_cmd_insight)

    return parser


def main(argv: list[str] | None = None) -> int:
    _steady_heap()
    try:
        _setup_logging()
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # argparse exits 0 for --help, 2 for usage errors
            return 0 if exc.code == 0 else 1
        return args.fn(args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 -- CLI boundary
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

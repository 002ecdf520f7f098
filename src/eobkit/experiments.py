"""Desk-scale training experiments on controlled synthetic series.

Small trainable models (linear readout and a one-hidden-layer MLP) with
hand-coded backpropagation, an Adam/SGD loop with early stopping, a grid
runner that sweeps structural signal-to-noise levels and horizons, and the
sinusoid recovery experiment comparing a temporal squared loss against the
magnitude-adaptive spectral loss.

Everything is deterministic given the seeds in the specs: each grid
replication owns a counter-based RNG sub-stream keyed by (grid seed,
replication), so execution order and worker count do not change results,
and the stochastic path is shared across SSNR levels within a replication
(only the deterministic amplitude moves along that axis).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from . import losses, transforms
from .diagnostics import SurfacePoint, _rank_correlation, inefficiency_ratio, sliding_windows
from .gradcheck import central_difference, relative_error
from .processes import (ARSpec, DeterministicSpec, HybridSpec, _cast, make_rng,
                        synthesize_deterministic, synthesize_hybrid)
from .theory import YuleWalkerSolution, solve_yule_walker

__all__ = [
    "CellRecord",
    "GradientCheckError",
    "GridResult",
    "GridSpec",
    "InsightReport",
    "LossSpec",
    "ModelSpec",
    "TrainConfig",
    "TrainResult",
    "TrainingDivergedError",
    "TrendStats",
    "chronological_split",
    "evaluate_mse",
    "insight_experiment",
    "leakage_metrics",
    "make_window_pairs",
    "paradox_trend_test",
    "run_grid",
    "train_model",
]


class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite."""


class GradientCheckError(RuntimeError):
    """Analytic parameter gradients disagree with finite differences."""


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    kind: str = field(default="linear", metadata={"choices": ("linear", "mlp1")})
    hidden: int = field(default=64, metadata={"min": 1})
    activation: str = field(default="tanh", metadata={"choices": ("tanh", "relu")})
    init_seed: int = field(default=0, metadata={"min": 0})

    def __post_init__(self):
        _cast(self)


@dataclass(frozen=True)
class LossSpec(losses.HarmonizedConfig):
    """Training-loss selector, mirroring the JSON loss config: the harmonized
    losses read it as their config, and `beta` drives the magnitude EMA."""

    norm: str = field(default="l2", metadata={"choices": ("l1", "l2")})
    kind: str = field(default="temporal", metadata={"choices": ("temporal", "harmonized")})
    beta: float = field(default=0.3, metadata={"min": 0, "below": 1})


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = field(default="adam", metadata={"choices": ("sgd", "adam")})
    lr: float = field(default=1e-3, metadata={"min": 0})
    max_epochs: int = field(default=150, metadata={"min": 1})
    patience: int = field(default=10, metadata={"min": 1})
    batch_size: int = field(default=128, metadata={"min": 1})
    loss: LossSpec = field(default_factory=LossSpec)
    split: float = field(default=0.7, metadata={"above": 0, "below": 1})
    check_gradients: bool = True

    def __post_init__(self):
        _cast(self)


@dataclass(frozen=True)
class GridSpec:
    ssnr_x_values: tuple[float, ...] = (32.0, 104.0, 176.0, 248.0, 320.0)
    horizons: tuple[int, ...] = field(default=(64, 128), metadata={"min": 1})
    history: int = field(default=64, metadata={"min": 1})
    series_length: int = field(default=5000, metadata={"min": 1})
    replications: int = field(default=3, metadata={"min": 1})
    seed: int = field(default=0, metadata={"min": 0})
    # the stochastic core shared by every cell, and the sinusoid stack over it
    ar: ARSpec = field(default_factory=lambda: ARSpec.ar1_for_ssnr(32.0, 0.25))
    det_harmonics: int = 3
    det_fmax: int = 15
    det_period: int = field(default=128, metadata={"min": 1})

    def __post_init__(self):
        _cast(self)
        for name in ("ssnr_x_values", "horizons"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be non-empty")
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat a value, got {values}")
        below = [v for v in self.ssnr_x_values if v < self.floor.ssnr]
        if below:
            raise ValueError(f"every ssnr_x must be >= the stochastic floor, the ar core's "
                             f"closed-form SSNR {self.floor.ssnr!r}; ssnr_x_values has {below}")
        if not 1 <= self.det_harmonics <= self.det_fmax:
            raise ValueError(f"det_harmonics must lie in [1, det_fmax={self.det_fmax}], "
                             f"got {self.det_harmonics}")
        # DeterministicSpec's alias rule for every tone set drawn from 1..det_fmax
        if not 2 * self.det_fmax < self.det_period:
            raise ValueError(f"det_fmax={self.det_fmax} must stay below det_period/2 = "
                             f"{self.det_period / 2:g}, or its tones alias")

    @cached_property
    def floor(self) -> YuleWalkerSolution:
        """The core's closed-form SSNR and marginal variance sigma_z^2: the stochastic floor
        that each level's tones sit on, and that each cell's MSE is measured against."""
        return solve_yule_walker(self.ar)


# ---------------------------------------------------------------------------
# Models with hand-coded backprop
# ---------------------------------------------------------------------------

class _Model:
    """Parameter dict + forward/backward; subclasses define the wiring."""

    def __init__(self, spec: ModelSpec, input_len: int, output_len: int):
        self.spec = spec
        self.params = self._init_params(make_rng(spec.init_seed), input_len, output_len)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._forward(np.asarray(X, dtype=float))[0]

    def clone_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}


class LinearModel(_Model):
    def _init_params(self, rng: np.random.Generator, n_in: int, n_out: int) -> dict:
        return {"W": rng.normal(0.0, 1.0 / math.sqrt(n_in), size=(n_out, n_in)),
                "b": np.zeros(n_out)}

    def _forward(self, X: np.ndarray):
        return X @ self.params["W"].T + self.params["b"], {"X": X}

    def _backward(self, cache: dict, d_pred: np.ndarray) -> dict[str, np.ndarray]:
        return {"W": d_pred.T @ cache["X"], "b": d_pred.sum(axis=0)}


class Mlp1Model(_Model):
    def _init_params(self, rng: np.random.Generator, n_in: int, n_out: int) -> dict:
        hidden = self.spec.hidden
        return {"W1": rng.normal(0.0, 1.0 / math.sqrt(n_in), size=(hidden, n_in)),
                "b1": np.zeros(hidden),
                "W2": rng.normal(0.0, 1.0 / math.sqrt(hidden), size=(n_out, hidden)),
                "b2": np.zeros(n_out)}

    def _forward(self, X: np.ndarray):
        z1 = X @ self.params["W1"].T + self.params["b1"]
        a1 = np.tanh(z1) if self.spec.activation == "tanh" else np.maximum(z1, 0.0)
        return a1 @ self.params["W2"].T + self.params["b2"], {"X": X, "z1": z1, "a1": a1}

    def _backward(self, cache: dict, d_pred: np.ndarray) -> dict[str, np.ndarray]:
        da1 = d_pred @ self.params["W2"]
        if self.spec.activation == "tanh":
            dz1 = da1 * (1.0 - cache["a1"] ** 2)
        else:
            dz1 = da1 * (cache["z1"] > 0.0)
        return {"W2": d_pred.T @ cache["a1"], "b2": d_pred.sum(axis=0),
                "W1": dz1.T @ cache["X"], "b1": dz1.sum(axis=0)}


def _build_model(spec: ModelSpec, input_len: int, output_len: int) -> _Model:
    return (LinearModel if spec.kind == "linear" else Mlp1Model)(spec, input_len, output_len)


class _Adam:
    def __init__(self, params: dict[str, np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for k in params:
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * grads[k]
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * grads[k] ** 2
            m_hat = self.m[k] / (1.0 - self.beta1**self.t)
            v_hat = self.v[k] / (1.0 - self.beta2**self.t)
            params[k] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class _Sgd:
    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.lr = lr

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for k in params:
            params[k] -= self.lr * grads[k]


# ---------------------------------------------------------------------------
# Training loss adapter
# ---------------------------------------------------------------------------

class _TrainingLoss:
    """Batch evaluator for a LossSpec; owns the magnitude EMA when needed."""

    def __init__(self, spec: LossSpec, output_len: int):
        self.spec = spec
        self.ema = (losses.EmaMagnitudes.zeros(output_len, spec.beta)
                    if spec.kind == "harmonized" else None)
        self._target_mags: np.ndarray | None = None

    def start_epoch(self, Y_train: np.ndarray) -> None:
        if self.ema is None:
            return
        if self._target_mags is None:
            self._target_mags = losses.coefficient_magnitudes(Y_train, self.spec).mean(axis=0)
        self.ema = losses.update_ema(self.ema, self._target_mags)

    def evaluate(self, Y: np.ndarray, P: np.ndarray) -> tuple[float, losses.LossEval]:
        """Mean loss over the rows of Y, and the evaluation (gradient read on demand)."""
        if self.spec.kind == "temporal":
            ev = losses.temporal_l2(Y, P) if self.spec.norm == "l2" else losses.temporal_l1(Y, P)
        elif self.spec.norm == "l2":
            ev = losses.harmonized_l2(Y, P, self.ema, self.spec)
        else:
            ev = losses.harmonized_l1(Y, P, self.ema, self.spec)
        return float(np.sum(ev.value)) / Y.shape[0], ev


# ---------------------------------------------------------------------------
# Windowing and training
# ---------------------------------------------------------------------------

def chronological_split(series: np.ndarray, train_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    series = np.asarray(series, dtype=float)
    cut = int(round(len(series) * train_fraction))
    return series[:cut], series[cut:]


def make_window_pairs(series: np.ndarray, history: int,
                      horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Stride-1 (input, target) pairs: X[i] = s[i:i+H], Y[i] = s[i+H:i+H+h]."""
    both = sliding_windows(series, history + horizon)
    return both[:, :history], both[:, history:]


# the backprop check at init: coordinates drawn per parameter tensor, and the largest
# relative error it accepts
GRAD_CHECK_COORDS = 32
GRAD_CHECK_TOL = 1e-4


def _grad_check_at_init(model: _Model, X: np.ndarray, Y: np.ndarray) -> float:
    """FD-verify the backprop under the squared loss at init, GRAD_CHECK_COORDS per tensor."""
    Xb, Yb = X[:16], Y[:16]
    pred, cache = model._forward(Xb)
    grads = model._backward(cache, -2.0 * (Yb - pred))
    rng = make_rng(12345)
    worst = 0.0
    for name in sorted(grads):
        flat = model.params[name].reshape(-1)
        idx = rng.choice(flat.size, size=min(GRAD_CHECK_COORDS, flat.size), replace=False)
        keep = flat[idx].copy()

        def objective(probes: np.ndarray) -> np.ndarray:
            values = np.empty(probes.shape[0])
            for i, probe in enumerate(probes):
                flat[idx] = probe
                values[i] = np.sum((Yb - model._forward(Xb)[0]) ** 2)
            flat[idx] = keep
            return values

        fd = central_difference(objective, keep)
        worst = np.maximum(worst, relative_error(grads[name].reshape(-1)[idx], fd))  # NaN wins
    if not worst <= GRAD_CHECK_TOL:
        raise GradientCheckError(
            f"analytic gradient disagrees with finite differences "
            f"(max rel err {worst:.3e} > {GRAD_CHECK_TOL:g})")
    return float(worst)


@dataclass
class TrainResult:
    model: _Model
    train_curve: list[float]
    val_curve: list[float]
    epochs_run: int
    best_epoch: int
    grad_check_err: float | None


def train_model(spec: ModelSpec, X: np.ndarray, Y: np.ndarray, cfg: TrainConfig,
                seed: int | np.random.SeedSequence | None = None) -> TrainResult:
    """Mini-batch training with early stopping on a held-out validation tail.

    The model maps the columns of X to those of Y. The last 20% of the windows
    serve as the validation set; the best-validation parameters are restored
    at the end. Deterministic for fixed seeds. A non-finite training loss
    aborts with a diagnostic.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError(f"X and Y must be matrices with equal row counts, "
                         f"got {X.shape} and {Y.shape}")
    for name, a in (("X", X), ("Y", Y)):
        if a.shape[1] == 0:
            raise ValueError(f"{name} must have at least one column")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name} must be finite (found nan or inf)")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 window pairs to train")

    n_val = max(1, int(round(0.2 * X.shape[0])))
    X_tr, Y_tr = X[:-n_val], Y[:-n_val]
    X_val, Y_val = X[-n_val:], Y[-n_val:]

    model = _build_model(spec, X.shape[1], Y.shape[1])
    loss = _TrainingLoss(cfg.loss, Y.shape[1])
    check_err = _grad_check_at_init(model, X_tr, Y_tr) if cfg.check_gradients else None
    opt = (_Adam(model.params, cfg.lr) if cfg.optimizer == "adam"
           else _Sgd(model.params, cfg.lr))
    rng = make_rng(seed if seed is not None else spec.init_seed + 1)

    best_val = math.inf
    best_params = model.clone_params()
    best_epoch = 0
    train_curve: list[float] = []
    val_curve: list[float] = []
    stale = 0
    epoch = 0
    for epoch in range(1, cfg.max_epochs + 1):
        loss.start_epoch(Y_tr)
        order = rng.permutation(X_tr.shape[0])
        epoch_loss = 0.0
        for start in range(0, order.size, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            pred, cache = model._forward(X_tr[batch])
            value, ev = loss.evaluate(Y_tr[batch], pred)
            if not math.isfinite(value):
                raise TrainingDivergedError(
                    f"training loss became non-finite at epoch {epoch} "
                    f"(batch starting {start}); try a smaller learning rate")
            epoch_loss += value * batch.size
            opt.step(model.params, model._backward(cache, ev.grad_wrt_prediction / batch.size))
        train_curve.append(epoch_loss / order.size)

        val_value = loss.evaluate(Y_val, model.predict(X_val))[0]  # gradient never read
        val_curve.append(val_value)
        if val_value < best_val - 1e-12:
            best_val = val_value
            best_params = model.clone_params()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    model.params = best_params  # a private copy from clone_params
    return TrainResult(model=model, train_curve=train_curve, val_curve=val_curve,
                       epochs_run=epoch, best_epoch=best_epoch, grad_check_err=check_err)


def evaluate_mse(model: _Model, X: np.ndarray, Y: np.ndarray) -> float:
    """Per-point mean squared prediction error."""
    pred = model.predict(X)
    return float(np.mean((np.asarray(Y, dtype=float) - pred) ** 2))


# ---------------------------------------------------------------------------
# Error-surface grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellRecord:
    """One grid cell: its CSV row, its tone amplitude and its training telemetry."""

    point: SurfacePoint
    amplitude: float
    epochs_run: int
    best_epoch: int


@dataclass(frozen=True)
class GridResult:
    records: list[CellRecord]
    failures: list[tuple[str, str]]

    @property
    def points(self) -> list[SurfacePoint]:
        return [record.point for record in self.records]


def _cell_spec(grid: GridSpec, ssnr_x: float, rng: np.random.Generator) -> HybridSpec:
    ssnr_v = ssnr_x - grid.floor.ssnr
    if ssnr_v <= 0.0:
        det = None
    else:
        freqs = tuple(int(k) for k in
                      rng.choice(np.arange(1, grid.det_fmax + 1),
                                 size=grid.det_harmonics, replace=False))
        phases = tuple(rng.uniform(0.0, 2.0 * math.pi, size=grid.det_harmonics))
        det = DeterministicSpec.for_ssnr(ssnr_v, grid.ar.sigma_eps2, freqs, phases,
                                         grid.det_period)
    return HybridSpec(ar=grid.ar, det=det, length=grid.series_length)


def _run_cell(args: tuple) -> CellRecord:
    grid, model, cfg, ssnr_x, horizon, rep = args
    # One replication = one stochastic path and one tone layout, shared by
    # every SSNR_x level; only the deterministic amplitude moves along the
    # level axis. Differences across levels then isolate the effect of the
    # deterministic share instead of resampling noise.
    seed_seq = np.random.SeedSequence(grid.seed, spawn_key=(rep,))
    spec_seed, data_seed, train_seed = seed_seq.spawn(3)
    spec = _cell_spec(grid, ssnr_x, make_rng(spec_seed))
    series = synthesize_hybrid(spec, seed=data_seed)

    train_series, test_series = chronological_split(series, cfg.split)
    X_tr, Y_tr = make_window_pairs(train_series, grid.history, horizon)
    X_te, Y_te = make_window_pairs(test_series, grid.history, horizon)

    result = train_model(model, X_tr, Y_tr, cfg, seed=train_seed)
    mse_actual = evaluate_mse(result.model, X_te, Y_te)

    sigma_z2 = grid.floor.sigma_z2
    sigma_x2 = sigma_z2 + (spec.det.variance if spec.det is not None else 0.0)
    mse_relative = mse_actual / sigma_x2
    mse_opt_rel = sigma_z2 / sigma_x2  # asymptotic optimum: SSNR_z / SSNR_x
    point = SurfacePoint(ssnr_x=ssnr_x, horizon=horizon, replication=rep,
                         mse_actual=mse_actual, mse_relative=mse_relative,
                         mse_opt_rel=mse_opt_rel,
                         inefficiency=inefficiency_ratio(mse_relative, mse_opt_rel))
    return CellRecord(point=point,
                      amplitude=spec.det.base_amplitude if spec.det is not None else 0.0,
                      epochs_run=result.epochs_run, best_epoch=result.best_epoch)


def run_grid(grid: GridSpec, model: ModelSpec, cfg: TrainConfig,
             jobs: int = 1) -> GridResult:
    """Train one model per (SSNR_x, horizon, replication) cell.

    Each cell owns an RNG sub-stream keyed by its index, so the output is
    identical whatever the worker count; the pool has at most one worker per
    cell, and each runs numpy's OpenBLAS on one thread. Cell failures are
    recorded and the sweep continues. A worker count below 1, a DWT loss whose
    2^levels does not divide a horizon, or a split of series_length too short
    for two training windows or one test window of history + horizon samples,
    fails up front.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if cfg.loss.kind == "harmonized":
        for horizon in grid.horizons:
            try:
                transforms._basis(cfg.loss.transform, horizon, cfg.loss.wavelet, cfg.loss.levels)
            except ValueError as exc:
                raise ValueError(f"a {cfg.loss.transform.upper()} loss with levels="
                                 f"{cfg.loss.levels} cannot read horizon {horizon}: {exc}") from None
    window = grid.history + max(grid.horizons)
    train, test = (len(part) for part in chronological_split(np.empty(grid.series_length),
                                                             cfg.split))
    if train < window + 1 or test < window:
        raise ValueError(f"series_length={grid.series_length} at split={cfg.split} leaves "
                         f"{train} training and {test} test samples; history + max(horizons) "
                         f"= {window} needs at least {window + 1} and {window}")
    tasks = [(grid, model, cfg, ssnr_x, horizon, rep) for ssnr_x in grid.ssnr_x_values
             for horizon in grid.horizons for rep in range(grid.replications)]

    records: list[CellRecord] = []
    failures: list[tuple[str, str]] = []
    # the pool forks all of its workers at the first submit, so never more than one per cell
    workers = min(jobs, len(tasks))
    with (ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) if workers > 1
          else nullcontext()) as pool:
        outcomes = (pool.map if pool else map)(_run_cell_safe, tasks)
        for task, (record, error) in zip(tasks, outcomes):
            if record is not None:
                records.append(record)
            else:
                failures.append((f"ssnr_x={task[3]:g},h={task[4]},rep={task[5]}", error))
    records.sort(key=lambda r: (r.point.ssnr_x, r.point.horizon, r.point.replication))
    return GridResult(records=records, failures=failures)


def _one_blas_thread() -> None:
    """Pool initializer: numpy's OpenBLAS runs one thread in each grid worker.

    A worker trains one cell at a time, so BLAS threads of its own only contend with the
    other workers for the cores. The setter is looked up through the handle of numpy's
    linalg extension, which reaches the OpenBLAS it links: the scipy-openblas64 bundled
    in numpy's wheels, or a plain OpenBLAS. Any other BLAS is left as it is, and so is
    the parent's.
    """
    import ctypes

    from numpy.linalg import _umath_linalg

    blas = ctypes.CDLL(_umath_linalg.__file__)
    for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
        setter = getattr(blas, name, None)
        if setter is not None:
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            setter(1)
            return


def _run_cell_safe(args: tuple):
    try:
        return _run_cell(args), ""
    except Exception as exc:  # noqa: BLE001 -- cell isolation is the point
        return None, f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class TrendStats:
    horizon: int
    n_levels: int
    spearman_ssnr_eta: float
    mse_rel_violations: int
    eta_by_ssnr: dict[float, float]
    mse_rel_by_ssnr: dict[float, float]


def paradox_trend_test(points: list[SurfacePoint]) -> list[TrendStats]:
    """Monotonicity statistics per horizon on replication-averaged cells.

    Reports the Spearman rank correlation between SSNR_x and the
    inefficiency ratio (expected strongly positive), and the number of
    increases in the relative MSE along SSNR_x (expected ~0).
    """
    out = []
    for horizon in sorted({pt.horizon for pt in points}):
        rows = [pt for pt in points if pt.horizon == horizon]
        levels = sorted({pt.ssnr_x for pt in rows})
        if len(levels) < 4:
            raise ValueError(
                f"need >= 4 distinct ssnr_x levels at horizon {horizon}, got {len(levels)}")
        eta = {lv: float(np.mean([pt.inefficiency for pt in rows if pt.ssnr_x == lv]))
               for lv in levels}
        rel = {lv: float(np.mean([pt.mse_relative for pt in rows if pt.ssnr_x == lv]))
               for lv in levels}
        # a constant eta series carries no trend: its rank correlation is 0
        rho = _rank_correlation(np.column_stack([levels, [eta[lv] for lv in levels]]))
        violations = sum(1 for a, b in zip(levels, levels[1:]) if rel[b] > rel[a])
        out.append(TrendStats(horizon=horizon, n_levels=len(levels),
                              spearman_ssnr_eta=float(rho[0, 1]), mse_rel_violations=violations,
                              eta_by_ssnr=eta, mse_rel_by_ssnr=rel))
    return out


# ---------------------------------------------------------------------------
# Sinusoid recovery (insight) experiment
# ---------------------------------------------------------------------------

def leakage_metrics(pred_windows: np.ndarray, true_windows: np.ndarray,
                    tone_bins: tuple[int, ...]) -> tuple[float, float]:
    """(out-of-band leakage, in-band amplitude error) of predictions.

    Leakage is the spectral energy of the predictions outside the tone
    bins, relative to the total spectral energy of the truth. The in-band
    error is the summed absolute amplitude gap on the tone bins, relative
    to the true in-band amplitude mass.
    """
    pred_spec = transforms.dft_forward(np.atleast_2d(pred_windows))
    true_spec = transforms.dft_forward(np.atleast_2d(true_windows))
    L = pred_spec.shape[-1]
    in_band = np.zeros(L, dtype=bool)
    in_band[list(tone_bins)] = True
    out_energy = float(np.sum(np.abs(pred_spec[:, ~in_band]) ** 2))
    total_true = float(np.sum(np.abs(true_spec) ** 2))
    amp_gap = float(np.sum(np.abs(np.abs(pred_spec[:, in_band]) - np.abs(true_spec[:, in_band]))))
    amp_mass = float(np.sum(np.abs(true_spec[:, in_band])))
    return out_energy / total_true, amp_gap / amp_mass


@dataclass(frozen=True)
class InsightReport:
    tone_freqs: tuple[int, ...]
    tone_bins: tuple[int, ...]
    leakage: dict[str, float]
    in_band_amp_error: dict[str, float]
    dominant_bin: dict[str, int]

    def to_dict(self) -> dict:
        return asdict(self)


def insight_experiment(K: int = 3, fmax: int = 15, n: int = 3072,
                       model: ModelSpec | None = None,
                       cfg_temporal: TrainConfig | None = None,
                       cfg_harmonized: TrainConfig | None = None,
                       history: int = 64, horizon: int = 128,
                       seed: int = 0) -> InsightReport:
    """Train the same model on pure sinusoids under both loss regimes.

    K random tones with frequencies in 1..fmax (integer cycles per
    horizon-length window, so the truth occupies exactly the tone bins and
    their mirrors) are forecast with a temporal squared loss and with the
    magnitude-adaptive l1 loss over the spectrum; the report compares
    out-of-band leakage and in-band amplitude error of the two runs.
    """
    if not 1 <= K <= fmax:
        raise ValueError(f"K must lie in 1..fmax, got K={K}, fmax={fmax}")
    if fmax >= horizon // 2:
        raise ValueError(f"fmax={fmax} must stay below horizon/2={horizon // 2}")
    rng = make_rng(seed)
    if model is None:
        model = ModelSpec(kind="mlp1", hidden=64, activation="tanh", init_seed=seed)
    if cfg_temporal is None:
        cfg_temporal = TrainConfig(loss=LossSpec(kind="temporal", norm="l2"))
    if cfg_harmonized is None:
        cfg_harmonized = TrainConfig(loss=LossSpec(kind="harmonized", norm="l1",
                                                   gamma=0.5, beta=0.3, transform="dft"))

    freqs = tuple(int(k) for k in rng.choice(np.arange(1, fmax + 1), size=K, replace=False))
    phases = tuple(rng.uniform(0.0, 2.0 * math.pi, size=K))
    det = DeterministicSpec(base_amplitude=math.sqrt(2.0), freqs=freqs, phases=phases,
                            period=horizon)
    series = synthesize_deterministic(det, n)
    tone_bins = tuple(sorted({k for f in freqs for k in (f, horizon - f)}))

    leakage: dict[str, float] = {}
    amp_err: dict[str, float] = {}
    dominant: dict[str, int] = {}
    for name, cfg in (("temporal", cfg_temporal), ("harmonized", cfg_harmonized)):
        train_series, test_series = chronological_split(series, cfg.split)
        X_tr, Y_tr = make_window_pairs(train_series, history, horizon)
        X_te, Y_te = make_window_pairs(test_series, history, horizon)
        result = train_model(model, X_tr, Y_tr, cfg, seed=seed + 1)
        pred = result.model.predict(X_te)
        leak, gap = leakage_metrics(pred, Y_te, tone_bins)
        leakage[name] = leak
        amp_err[name] = gap
        mean_amp = np.abs(transforms.dft_forward(pred)).mean(axis=0)
        mean_amp[0] = 0.0  # ignore any DC offset when ranking tone bins
        dominant[name] = int(np.argmax(mean_amp[:horizon // 2 + 1]))
    return InsightReport(tone_freqs=freqs, tone_bins=tone_bins, leakage=leakage,
                         in_band_amp_error=amp_err, dominant_bin=dominant)

"""Structural-orthogonality metrics and error-surface bookkeeping.

Four scalar diagnostics summarize how close a representation's sample
correlation matrix R is to the identity (total statistical independence):

* ODE ratio      sum_{i!=j} R_ij^2 / ||R||_F^2          -> 0 when diagonal
* Spearman mean  mean of |rank correlation| over pairs  -> 0 when independent
* eigen-entropy  normalized entropy of R's eigenvalues  -> 1 when flat
* dist-identity  ||R - I||_F                            -> 0 when identity

Also houses the optimal forecast-error baselines that calibrate training
results: the asymptotic marginal-variance bound and the exact cumulative
moving-average form, plus the inefficiency ratio that compares a trained
model against them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .processes import ARSpec, psi_weights
from .theory import CorrMatrix, _levinson, solve_yule_walker

__all__ = [
    "OrthoReport",
    "SurfacePoint",
    "ZeroVarianceWarning",
    "dist_identity",
    "eigen_entropy",
    "estimate_ssnr",
    "inefficiency_ratio",
    "ode_ratio",
    "optimal_mse_baseline",
    "orthogonality_report",
    "psi_weights",
    "sample_correlation",
    "sliding_windows",
    "spearman_mean",
]


class ZeroVarianceWarning(UserWarning):
    """A column had zero sample variance; its correlations were set to 0."""


@dataclass(frozen=True)
class OrthoReport:
    ode_ratio: float
    spearman_mean: float
    eigen_entropy: float
    dist_identity: float
    dim: int
    n_samples: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SurfacePoint:
    """One cell of an error surface grid; its fields are the `simulate` CSV columns."""

    ssnr_x: float
    horizon: int
    replication: int
    mse_actual: float
    mse_relative: float
    mse_opt_rel: float
    inefficiency: float

    def __post_init__(self):
        if min(self.mse_actual, self.mse_relative, self.mse_opt_rel, self.inefficiency) < 0.0:
            raise ValueError("surface point metrics must be non-negative")


def sliding_windows(series: np.ndarray, window: int) -> np.ndarray:
    """Stack the stride-1 windows of the series as matrix rows."""
    series = np.asarray(series, dtype=float)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if series.shape[0] < window:
        raise ValueError(f"series of length {series.shape[0]} has no windows of length {window}")
    return np.lib.stride_tricks.sliding_window_view(series, window).copy()


def sample_correlation(windows: np.ndarray) -> CorrMatrix:
    """Pearson correlation across sample rows, per coordinate pair.

    Zero-variance coordinates get correlation 0 against everything (and 1
    with themselves); a ZeroVarianceWarning is issued when that happens.
    """
    w = np.asarray(windows, dtype=float)
    if w.ndim != 2:
        raise ValueError(f"windows must be a 2-d (n_samples x L) matrix, got shape {w.shape}")
    n, L = w.shape
    if n < 2:
        raise ValueError(f"need at least 2 samples to estimate correlation, got {n}")
    if not np.all(np.isfinite(w)):
        raise ValueError("windows must be finite (found nan or inf)")
    centered = w - w.mean(axis=0)
    std = centered.std(axis=0)
    dead = std == 0.0
    if np.any(dead):
        warnings.warn(
            f"{int(np.sum(dead))} zero-variance column(s); their correlations are set to 0",
            ZeroVarianceWarning, stacklevel=2)
    safe_std = np.where(dead, 1.0, std)
    normed = centered / safe_std
    corr = normed.T @ normed / n
    corr[dead, :] = 0.0
    corr[:, dead] = 0.0
    corr = np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return CorrMatrix(corr)  # CorrMatrix symmetrizes it


def ode_ratio(R: CorrMatrix) -> float:
    """Off-diagonal energy fraction of the correlation matrix."""
    total = float(np.sum(R.values**2))
    off = total - float(np.sum(np.diag(R.values) ** 2))
    return off / total


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n down each column of an (n, L) array; tied values share their mean rank.

    Each column is ranked as a contiguous row of one transposed copy, with
    numpy's default (unstable) sort. The order inside a tied run is lost, but
    the run's shared rank depends only on its first and last positions, so any
    sort gives the same ranks, bit for bit.
    """
    rows = np.ascontiguousarray(x.T)
    n = rows.shape[-1]
    order = np.argsort(rows, axis=-1)
    srt = np.take_along_axis(rows, order, axis=-1)
    pos = np.broadcast_to(np.arange(n, dtype=float), rows.shape)
    tie = srt[:, 1:] == srt[:, :-1]
    if tie.any():  # a tied run of positions first..last gets (first + last) / 2
        starts = np.ones(rows.shape, dtype=bool)
        starts[:, 1:] = ~tie
        ends = np.ones(rows.shape, dtype=bool)
        ends[:, :-1] = ~tie
        first = np.maximum.accumulate(np.where(starts, pos, 0.0), axis=-1)
        last = np.minimum.accumulate(np.where(ends, pos, n)[:, ::-1], axis=-1)[:, ::-1]
        pos = 0.5 * (first + last)
    ranks = np.empty(rows.shape)
    np.put_along_axis(ranks, order, pos + 1.0, axis=-1)
    return ranks.T


def _rank_correlation(x: np.ndarray) -> np.ndarray:
    """Spearman correlation matrix of the columns of an (n, L) array, with average ranks
    for ties; a constant column carries no rank signal and correlates 0 with every other."""
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.corrcoef(_average_ranks(x), rowvar=False)
    return np.nan_to_num(rho, nan=0.0)


def spearman_mean(windows: np.ndarray) -> float:
    """Mean absolute Spearman rank correlation over ordered pairs i != j.

    Ties are handled by average ranks.
    """
    w = np.asarray(windows, dtype=float)
    if w.ndim != 2:
        raise ValueError(f"windows must be a 2-d matrix, got shape {w.shape}")
    n, L = w.shape
    if L < 2:
        raise ValueError("need at least 2 coordinates to form pairs")
    if n < 3:
        raise ValueError(f"need at least 3 samples for rank correlation, got {n}")
    if not np.all(np.isfinite(w)):
        raise ValueError("windows must be finite (found nan or inf)")
    rho = _rank_correlation(w)
    abs_sum = float(np.sum(np.abs(rho))) - float(np.sum(np.abs(np.diag(rho))))
    return abs_sum / (L**2 - L)


def eigen_entropy(R: CorrMatrix) -> float:
    """Normalized entropy of the eigenvalue distribution, in [0, 1].

    Eigenvalues below 1e-12 are clamped to zero and 0*log 0 = 0. For a
    1 x 1 matrix the spectrum is a single point; the normalization
    degenerates, so the value is defined as 1.
    """
    if R.dim == 1:
        return 1.0
    eig = np.linalg.eigvalsh(R.values)
    eig = np.where(eig < 1e-12, 0.0, eig)
    p = eig / np.sum(eig)
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz)) / math.log2(R.dim))


def dist_identity(R: CorrMatrix) -> float:
    """Frobenius distance to the identity matrix."""
    return float(np.linalg.norm(R.values - np.eye(R.dim)))


def orthogonality_report(windows: np.ndarray) -> OrthoReport:
    """All four diagnostics for a sample matrix of windows."""
    w = np.asarray(windows, dtype=float)
    R = sample_correlation(w)
    return OrthoReport(ode_ratio=ode_ratio(R),
                       spearman_mean=spearman_mean(w),
                       eigen_entropy=eigen_entropy(R),
                       dist_identity=dist_identity(R),
                       dim=R.dim, n_samples=w.shape[0])


# ---------------------------------------------------------------------------
# Optimal forecast-error baselines
# ---------------------------------------------------------------------------

def optimal_mse_baseline(spec: ARSpec, horizon: int, mode: str = "asymptotic",
                         per_point: bool = True) -> float:
    """Best achievable forecast MSE for the stochastic component.

    mode="asymptotic" returns the marginal variance sigma_z^2, the upper
    bound any h-step error converges to -- a conservative proxy.
    mode="psi_weights" evaluates the cumulative form
    sigma_eps^2 * sum_{j=0}^{h-1} (h-j) psi_j^2, which totals the per-step
    error variances over the whole horizon; per_point=True divides by h so
    the result is comparable with a per-point MSE. The cumulative total
    with the (h-j) factor and the per-point average differ only by that
    normalization; both are exposed because conventions vary.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    yw = solve_yule_walker(spec)
    if mode == "asymptotic":
        return yw.sigma_z2
    if mode == "psi_weights":
        psi = psi_weights(spec, horizon)
        weights = horizon - np.arange(horizon)
        total = spec.sigma_eps2 * float(np.dot(weights, psi**2))
        return total / horizon if per_point else total
    raise ValueError(f"mode must be 'asymptotic' or 'psi_weights', got {mode!r}")


def inefficiency_ratio(mse_actual: float, mse_opt: float) -> float:
    """Actual MSE over the theoretically optimal MSE."""
    if mse_opt <= 0.0:
        raise ValueError(f"mse_opt must be positive, got {mse_opt}")
    if mse_actual < 0.0:
        raise ValueError(f"mse_actual must be >= 0, got {mse_actual}")
    return mse_actual / mse_opt


def estimate_ssnr(series: np.ndarray, order: int = 1) -> float:
    """Sample estimate of marginal-to-innovation variance ratio.

    Runs Durbin's recursion over the sample autocorrelations rho_hat_0..rho_hat_p
    (the sample analogue of the Yule-Walker system) and returns 1 / v_p, the
    inverse order-p prediction variance, which equals
    1 / (1 - sum_i phi_hat_i rho_hat_i). Order 1 suffices for first-order
    stochastic cores; periodic components need roughly two lags per tone
    to be counted as structure.
    """
    x = np.asarray(series, dtype=float)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if x.shape[0] < 10 * (order + 1):
        raise ValueError(f"series too short ({x.shape[0]}) for order {order}")
    if not np.all(np.isfinite(x)):
        raise ValueError("series must be finite (found nan or inf)")
    x = x - x.mean()
    n = x.shape[0]
    gamma = np.array([float(np.dot(x[:n - k], x[k:])) / n for k in range(order + 1)])
    if gamma[0] <= 0.0:
        raise ValueError("series has zero variance")
    return 1.0 / float(_levinson(gamma / gamma[0], (), order + 1)[1][order])

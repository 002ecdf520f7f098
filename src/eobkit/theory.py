"""Closed-form expectation of optimization bias for stationary processes.

A point-wise loss implicitly factorizes the joint density of a length-T
window into a product of marginals. For a Gaussian stationary process the
expected log-likelihood gap between the true joint and that factorization
has two equivalent closed forms:

* correlation-determinant form:  E[B] = -1/2 * log det(R)
  with R the T x T autocorrelation matrix;
* AR(p) form:  E[B] = (T-p)/2 * log(SSNR) - 1/2 * log det(R_p)
  where SSNR = sigma_z^2 / sigma_eps^2 = 1 / (1 - sum_i phi_i rho_i)
  comes from the Yule-Walker equations and R_p is the p x p correlation
  matrix of the first p observations.

The two agree exactly through the determinant decomposition
det(R) = det(R_p) * SSNR^{-(T-p)}, and det(R)^{1/T} -> 1/SSNR as T grows
(Szegő limit). All logarithms are natural, so values are in nats.

One Levinson recursion (`_levinson`) gives Yule-Walker, the autocorrelations, the
Szegő curve and the closed form, whose SSNR = 1 / v_p and transient
-1/2 * sum_{k<p} log v_k it reads from the prediction variances v_k without building a
matrix. `eob_mgm` and `verify_determinant_decomposition` read log det(R) from the dense
Cholesky factor that validates a `CorrMatrix`, the independent check of every v_k.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .processes import ARSpec, reflection_coefficients

__all__ = [
    "CorrMatrix",
    "EobReport",
    "NotPositiveDefiniteError",
    "YuleWalkerSolution",
    "autocorrelations",
    "corr_matrix_from_ar",
    "eob_ar_closed_form",
    "eob_gmm_lower_bound",
    "eob_mgm",
    "mixture_entropy",
    "snr_to_ssnr",
    "solve_yule_walker",
    "ssnr_to_snr",
    "szego_convergence_curve",
    "verify_determinant_decomposition",
]

NATS_TO_BITS = 1.0 / math.log(2.0)


class NotPositiveDefiniteError(ValueError):
    """Matrix is not positive definite; carries the offending min eigenvalue."""

    def __init__(self, min_eigenvalue: float):
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"correlation matrix is not positive definite "
            f"(min eigenvalue {min_eigenvalue:.3e})")


@dataclass(frozen=True)
class YuleWalkerSolution:
    """Autocorrelations rho_1..rho_p with the implied variance and SSNR."""

    rho: np.ndarray
    sigma_z2: float
    ssnr: float

    def __post_init__(self):
        rho = np.array(self.rho, dtype=float)
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class CorrMatrix:
    """Symmetric PSD matrix with unit diagonal, immutable after construction."""

    values: np.ndarray
    _chol: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)

    # diagonal must be exactly 1; PSD up to -1e-10 * dim (eigvalsh only when Cholesky fails)
    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"correlation matrix must be square, got shape {values.shape}")
        if values.shape[0] == 0:
            raise ValueError("correlation matrix must have dim >= 1")
        if not np.all(np.isfinite(values)):
            raise ValueError("correlation matrix entries must be finite (found nan or inf)")
        if not np.array_equal(np.diag(values), np.ones(values.shape[0])):
            raise ValueError("correlation matrix diagonal must be exactly 1")
        _symmetrize(values)
        values.flags.writeable = False
        try:
            object.__setattr__(self, "_chol", np.linalg.cholesky(values))
        except np.linalg.LinAlgError:
            min_eig = float(np.linalg.eigvalsh(values)[0])
            if min_eig < -1e-10 * values.shape[0]:
                raise NotPositiveDefiniteError(min_eig) from None
        object.__setattr__(self, "values", values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CorrMatrix):
            return NotImplemented
        return bool(np.array_equal(self.values, other.values))

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "CorrMatrix":
        return cls(np.eye(dim))

    def log_det(self) -> float:
        """log det from the Cholesky factor; rejects a singular matrix with a diagnostic."""
        if self._chol is None:
            raise NotPositiveDefiniteError(float(np.linalg.eigvalsh(self.values)[0]))
        return 2.0 * float(np.sum(np.log(np.diag(self._chol))))


# side of the square tiles that _symmetrize compares with their mirror images
_SYMMETRY_TILE = 64


def _symmetrize(values: np.ndarray) -> None:
    """Replace square `values` in place by 0.5 * (values + values.T), bit for bit, after
    checking max |values - values.T| <= 1e-12.

    One pass over tile pairs, upper against the transposed lower: a pair whose bits
    already agree is its own mean and stays as it is; only the others are averaged. No
    temporary is larger than a tile.
    """
    n = values.shape[0]
    for i in range(0, n, _SYMMETRY_TILE):
        for j in range(i, n, _SYMMETRY_TILE):
            upper = values[i:i + _SYMMETRY_TILE, j:j + _SYMMETRY_TILE]
            lower = values[j:j + _SYMMETRY_TILE, i:i + _SYMMETRY_TILE].T
            if np.array_equal(upper.view(np.uint64), lower.view(np.uint64)):
                continue
            if np.max(np.abs(upper - lower)) > 1e-12:
                raise ValueError("correlation matrix must be symmetric")
            mean = 0.5 * (upper + lower)
            upper[...] = mean
            lower[...] = mean


@dataclass(frozen=True)
class EobReport:
    """Expected optimization bias in nats, with its steady/transient split."""

    value_nats: float
    ssnr: float
    T: int
    p: int
    steady_term: float
    transient_term: float
    method: str

    @property
    def value_bits(self) -> float:
        return self.value_nats * NATS_TO_BITS

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Yule-Walker and correlation structure
# ---------------------------------------------------------------------------

def solve_yule_walker(spec: ARSpec) -> YuleWalkerSolution:
    """rho_1..rho_p stepped up from the reflection coefficients; SSNR = 1 / v_p, where
    v_p = prod_j (1 - kappa_j^2) = 1 - sum_i phi_i rho_i, and sigma_z^2 = sigma_eps^2 / v_p."""
    rho, v = _levinson((1.0,), reflection_coefficients(spec.phi), spec.p + 1)
    v_p = float(v[spec.p])
    return YuleWalkerSolution(rho=rho[1:], sigma_z2=spec.sigma_eps2 / v_p, ssnr=1.0 / v_p)


def autocorrelations(spec: ARSpec, max_lag: int) -> np.ndarray:
    """rho_0..rho_max_lag, extended beyond lag p by rho_k = sum_i phi_i rho_{k-i}."""
    if max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    return _levinson((1.0,), reflection_coefficients(spec.phi), max_lag + 1)[0]


def _levinson(rho, kappa, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Levinson-Durbin over lags 0..n-1: autocorrelations rho_k and prediction variances v_k.

    Where `rho` gives lag k, kappa_k is solved for (Durbin) and must lie in (-1, 1);
    past that it is read from `kappa`, or zero once that runs out (the maximum-entropy
    extension), and rho_k is written (step-up). v_0 = rho_0 = 1, v_k = v_{k-1} (1 - kappa_k^2)
    and log det R_T = sum_{k<T} log v_k. A zero kappa does not grow the predictor: O(p) a lag.
    """
    out, v, a = np.ones(n), np.ones(n), np.empty(0)
    for k in range(1, n):
        pred = float(a @ out[k - a.size:k][::-1])
        if k < len(rho):
            kap = (rho[k] - pred) / v[k - 1]
            if not abs(kap) < 1.0:
                raise ValueError(f"autocorrelations are not positive definite at lag {k} "
                                 f"(reflection coefficient {kap:.6g})")
            out[k] = rho[k]
        elif k <= len(kappa):
            kap = kappa[k - 1]
            out[k] = pred + kap * v[k - 1]
        else:
            out[k], v[k] = pred, v[k - 1]
            continue
        a = np.concatenate([a - kap * a[::-1], [kap]])
        v[k] = v[k - 1] * (1.0 - kap * kap)
    return out, v


def corr_matrix_from_ar(spec: ARSpec, T: int) -> CorrMatrix:
    """Toeplitz matrix R_ij = rho_{|i-j|} for a window of length T."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    rho = autocorrelations(spec, T - 1)
    return CorrMatrix(_toeplitz(rho))


def _toeplitz(rho: np.ndarray) -> np.ndarray:
    """Symmetric Toeplitz matrix R_ij = rho_{|i-j|}.

    Row i is the length-n window of (rho_{n-1}, ..., rho_1, rho_0, ..., rho_{n-1})
    that starts at n-1-i: the windows of a sliding view in reverse order. The result
    is that read-only view; `CorrMatrix` makes the one copy.
    """
    mirrored = np.concatenate([rho[:0:-1], rho])
    return np.lib.stride_tricks.sliding_window_view(mirrored, rho.size)[::-1]


# ---------------------------------------------------------------------------
# Bias formulas
# ---------------------------------------------------------------------------

def eob_ar_closed_form(spec: ARSpec, T: int) -> EobReport:
    """Closed-form bias: (T-p)/2 * log(SSNR) plus the transient constant.

    The transient constant is -1/2 * log det(R_p) = -1/2 * sum_{k<p} log v_k, the
    contribution of the first p observations; SSNR = 1 / v_p. Both come from one
    Levinson pass over the reflection coefficients; no matrix is built. The total
    equals -1/2 * log det(R) exactly.
    """
    if T <= spec.p:
        raise ValueError(f"T must exceed the AR order p={spec.p}, got T={T}")
    v = _levinson((1.0,), reflection_coefficients(spec.phi), spec.p + 1)[1]
    ssnr = 1.0 / float(v[spec.p])
    steady = 0.5 * (T - spec.p) * math.log(ssnr)
    transient = -0.5 * float(np.sum(np.log(v[:spec.p]))) + 0.0  # -0.0 -> 0.0 at p <= 1
    return EobReport(value_nats=steady + transient, ssnr=ssnr, T=T, p=spec.p,
                     steady_term=steady, transient_term=transient,
                     method="ar_closed_form")


def eob_mgm(R: CorrMatrix) -> EobReport:
    """Bias from the correlation determinant: -1/2 * log det(R).

    No steady/transient split is available from a bare matrix; the whole
    value sits in steady_term. The reported SSNR is the geometric-mean
    implied value det(R)^{-1/T}.
    """
    log_det = R.log_det()
    value = -0.5 * log_det
    return EobReport(value_nats=value, ssnr=math.exp(-log_det / R.dim), T=R.dim, p=0,
                     steady_term=value, transient_term=0.0, method="mgm_determinant")


def verify_determinant_decomposition(spec: ARSpec, T: int) -> float:
    """Relative residual of det(R) = det(R_p) * SSNR^{-(T-p)}.

    Computed in the log domain as |expm1(delta)| so tiny determinants at
    large T do not underflow.
    """
    if T <= spec.p:
        raise ValueError(f"T must exceed the AR order p={spec.p}, got T={T}")
    yw = solve_yule_walker(spec)
    log_det_T = corr_matrix_from_ar(spec, T).log_det()
    log_det_p = corr_matrix_from_ar(spec, spec.p).log_det() if spec.p > 0 else 0.0
    delta = log_det_T - (log_det_p - (T - spec.p) * math.log(yw.ssnr))
    return abs(math.expm1(delta))


def szego_convergence_curve(spec: ARSpec, T_values) -> list[tuple[int, float]]:
    """(T, det(R)^{1/T}) pairs, tending to 1/SSNR. log det(R_T) = sum_{k<T} log v_k, read
    from one Levinson pass over the reflection coefficients up to lag p, no matrix: past
    lag p the prediction variance holds at v_p, so the pass stops there."""
    T_values = [int(T) for T in T_values]
    if min(T_values, default=1) < 1:
        raise ValueError(f"T must be >= 1, got {min(T_values)}")
    n = max(T_values, default=1)
    v = _levinson((1.0,), reflection_coefficients(spec.phi), min(n, spec.p + 1))[1]
    log_dets = np.cumsum(np.log(np.concatenate([v, np.full(n - v.size, v[-1])])))
    return [(T, math.exp(log_dets[T - 1] / T)) for T in T_values]


def eob_gmm_lower_bound(weights, component_eobs) -> float:
    """Mixture lower bound: sum_k pi_k * B_k - H(pi).

    H(pi) is the Shannon entropy of the weights (nats, 0*log 0 = 0). The
    bound may be negative; it is not clamped. Component values are assumed
    to share the same window length.
    """
    pi = np.asarray(weights, dtype=float)
    eobs = np.asarray(component_eobs, dtype=float)
    if pi.shape != eobs.shape or pi.ndim != 1:
        raise ValueError(
            f"weights and component_eobs must be 1-d and equal length, "
            f"got {pi.shape} vs {eobs.shape}")
    if np.any(pi < 0.0):
        raise ValueError(f"mixture weights must be non-negative, got {pi}")
    if abs(float(np.sum(pi)) - 1.0) > 1e-12:
        raise ValueError(f"mixture weights must sum to 1 within 1e-12, got sum={np.sum(pi)!r}")
    return float(np.dot(pi, eobs)) - mixture_entropy(pi)


def mixture_entropy(weights) -> float:
    """Shannon entropy of a probability vector in nats, with 0*log 0 = 0."""
    pi = np.asarray(weights, dtype=float)
    nz = pi[pi > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def ssnr_to_snr(ssnr: float) -> float:
    if ssnr < 1.0:
        raise ValueError(f"ssnr must be >= 1, got {ssnr}")
    return ssnr - 1.0


def snr_to_ssnr(snr: float) -> float:
    if snr < 0.0:
        raise ValueError(f"snr must be >= 0, got {snr}")
    return snr + 1.0

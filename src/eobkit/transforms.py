"""Unitary DFT and orthogonal DWT with exact inverses.

Both act on the last axis of (..., L) arrays, so one call transforms a
batch of windows. The DFT returns complex coefficients with the unitary
normalization 1/sqrt(L), so energy is preserved (Parseval); its inverse
keeps the real part, which is also the adjoint that pulls coefficient
gradients back to real signals. The public DFT stays full (all L bins); the
losses read the half spectrum (bins 0..L//2, `_rdft_analysis`) of their
real residuals and pull gradients back with its adjoint, `_rdft_synthesis`.

The DWT is the pyramidal filter-bank scheme with periodic boundary
extension, which keeps the analysis matrix W strictly orthogonal
(W^T W = I) at every level, so synthesis is plain transposition and
round-trips are exact to rounding; one rule, `_check_dwt`, says what it
accepts. Window lengths (L <= 256) are multiplied on their last axis by a
cached orthogonal L x L matrix, long series go through the O(L) filter bank.

Spectral truncation keeps the first `keep` DFT bins as a compact
optimization target: it returns the zero-filled spectrum, which is exactly
invertible on inputs whose spectrum is supported there, and the energy it
discarded.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WaveletCoeffs",
    "WAVELET_FILTERS",
    "dft_forward",
    "dft_inverse",
    "dwt_forward",
    "dwt_inverse",
    "dwt_matrix",
    "pad_edge_pow2",
    "real_fourier_coordinates",
    "truncate_spectrum",
]


def dft_forward(x: np.ndarray) -> np.ndarray:
    """Unitary DFT of the last axis of (..., L): f_k = (1/sqrt(L)) sum_l x_l exp(-2i*pi*k*l/L)."""
    x = np.asarray(x, dtype=float)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ValueError(f"input shape {x.shape} must end in a positive length")
    return np.fft.fft(x, norm="ortho", axis=-1)


def dft_inverse(f: np.ndarray) -> np.ndarray:
    """Real part of the inverse unitary DFT of the last axis.

    On spectra of real signals (conjugate symmetric) this is the exact
    inverse, with an imaginary residue at rounding level. For any complex f
    it is also the adjoint of dft_forward on real inputs,
    Re<dft_forward(x), f> = <x, dft_inverse(f)>, so it pulls coefficient
    gradients (d/dRe + j*d/dIm) back to the temporal domain.
    """
    return np.fft.ifft(f, norm="ortho", axis=-1).real


# The losses read the half spectrum of a real signal, bins 0..L//2: the rest are
# conjugate mirrors. Bin k stands for m_k bins of the full spectrum, m_k = 1 at DC
# and at Nyquist (even L) and 2 elsewhere, so that for real x and any half spectrum g
#     Re<_rdft_analysis(x), m * g> = <x, _rdft_synthesis(g, L)>:
# the synthesis, which drops the imaginary parts of the DC and Nyquist bins, is the
# pullback of a sum over half-spectrum bins weighted by m.

def _rdft_analysis(x: np.ndarray) -> np.ndarray:
    """Bins 0..L//2 of the unitary DFT of the real last axis of (..., L)."""
    return np.fft.rfft(x, norm="ortho", axis=-1)


def _rdft_synthesis(g: np.ndarray, L: int) -> np.ndarray:
    """Real signals of length L from half spectra g (L//2 + 1 bins on the last axis):
    the adjoint of _rdft_analysis under the multiplicity-weighted inner product."""
    return np.fft.irfft(g, n=L, norm="ortho", axis=-1)


@functools.lru_cache(maxsize=64)
def _rdft_bins(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only multiplicities m_k and mirror bins (L - k) mod L of the half spectrum."""
    k = np.arange(L // 2 + 1)
    multiplicity = np.where((k == 0) | (2 * k == L), 1.0, 2.0)
    mirror = -k % L
    multiplicity.flags.writeable = False
    mirror.flags.writeable = False
    return multiplicity, mirror


def real_fourier_coordinates(x: np.ndarray) -> np.ndarray:
    """Orthonormal real trigonometric coordinates of real rows.

    Re-expresses each length-L row in the real Fourier basis (DC, then the
    scaled cosine and sine coefficients), keeping the dimension at L and
    the energy unchanged. Unlike stacking raw re/im parts of the full
    spectrum, this drops no axes and duplicates none, so correlation
    diagnostics of raw and transformed windows are directly comparable.
    """
    f = dft_forward(x)
    L = f.shape[-1]
    upper = (L + 1) // 2
    nyquist = f.real[..., L // 2:L // 2 + 1 - L % 2]  # empty for odd L
    return np.concatenate([f.real[..., :1], _SQRT2 * f.real[..., 1:upper], nyquist,
                           _SQRT2 * f.imag[..., 1:upper]], axis=-1)


# ---------------------------------------------------------------------------
# Discrete wavelet transform (periodized, orthogonal)
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

# Orthonormal scaling (lowpass) filters; highpass is the quadrature mirror
# g[n] = (-1)^n h[N-1-n].
WAVELET_FILTERS = {
    "haar": np.array([1.0, 1.0]) / _SQRT2,
    "db2": np.array([1.0 + _SQRT3, 3.0 + _SQRT3, 3.0 - _SQRT3, 1.0 - _SQRT3]) / (4.0 * _SQRT2),
}


def _check_dwt(wavelet: object, levels: int, shape: tuple[int, ...] | None = None) -> None:
    """The DWT's one rule: a known wavelet name, levels >= 1 and, for a shape, a last
    axis of positive length divisible by 2^levels. Every path to _filters passes it."""
    if not (isinstance(wavelet, str) and wavelet in WAVELET_FILTERS):
        raise ValueError(f"wavelet must be one of {sorted(WAVELET_FILTERS)}, got {wavelet!r}")
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if shape is not None and (not shape or shape[-1] < 1 or shape[-1] % (1 << levels)):
        raise ValueError(f"shape {shape} must end in a positive length divisible by "
                         f"2^levels = {1 << levels}")


@functools.lru_cache(maxsize=None)
def _filters(wavelet: str) -> tuple[np.ndarray, np.ndarray]:
    h = WAVELET_FILTERS[wavelet]
    g = (h[::-1] * np.where(np.arange(h.size) % 2 == 0, 1.0, -1.0))
    return h, g


@dataclass(frozen=True)
class WaveletCoeffs:
    """Coefficients on the last axis of (..., L): approximation, then details coarse to fine."""

    coeffs: np.ndarray
    levels: int
    wavelet: str

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        _check_dwt(self.wavelet, self.levels, coeffs.shape)

    @classmethod
    def _wrap(cls, coeffs: np.ndarray, levels: int, wavelet: str) -> "WaveletCoeffs":
        """Coefficients from an analysis that checked its input: no copy and no second check.
        The array must be fresh and read-only, so that no other reference can change it."""
        w = object.__new__(cls)
        object.__setattr__(w, "coeffs", coeffs)
        object.__setattr__(w, "levels", levels)
        object.__setattr__(w, "wavelet", wavelet)
        return w

    @property
    def length(self) -> int:
        return self.coeffs.shape[-1]

    def blocks(self) -> dict[str, np.ndarray]:
        """Named bands along the last axis: a{J}, d{J}, d{J-1}, ..., d1."""
        out = {}
        size = self.length >> self.levels
        out[f"a{self.levels}"] = self.coeffs[..., :size]
        start = size
        for level in range(self.levels, 0, -1):
            out[f"d{level}"] = self.coeffs[..., start:start + size]
            start += size
            size *= 2
        return out

    def energy(self) -> float | np.ndarray:
        return np.sum(self.coeffs**2, axis=-1)


@functools.lru_cache(maxsize=64)
def _level_indices(L: int, taps: int) -> tuple[np.ndarray, np.ndarray]:
    """Gathers of one filter-bank level: (2j + n) mod L and (m - k) mod L/2."""
    M = L // 2
    return ((2 * np.arange(M)[:, None] + np.arange(taps)[None, :]) % L,
            (np.arange(M)[None, :] - np.arange(taps // 2)[:, None]) % M)


def _analysis_step(x: np.ndarray, h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # a[..., j] = sum_n x[..., (2j + n) mod L] h[n]; all rows share one matrix-vector
    # product, so each row gets the arithmetic of a 1-d call
    L = x.shape[-1]
    windows = x.reshape(-1, L)[:, _level_indices(L, h.size)[0]].reshape(-1, h.size)
    shape = x.shape[:-1] + (L // 2,)
    return (windows @ h).reshape(shape), (windows @ g).reshape(shape)


def _synthesis_step(a: np.ndarray, d: np.ndarray, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    # transpose of the analysis gather, with terms laid out (..., k, r, m):
    # x[..., 2m + r] = sum_k a[..., (m - k) mod M] h[2k + r] + d[..., (m - k) mod M] g[2k + r]
    M = a.shape[-1]
    idx = _level_indices(2 * M, h.size)[1]
    terms = (a[..., idx][..., None, :] * h.reshape(-1, 2, 1)
             + d[..., idx][..., None, :] * g.reshape(-1, 2, 1))
    return np.swapaxes(terms.sum(axis=-3), -1, -2).reshape(a.shape[:-1] + (2 * M,))


def _filter_bank_forward(x: np.ndarray, wavelet: str, levels: int) -> np.ndarray:
    """Pyramidal analysis of the last axis, O(L) per level: approximation, then details."""
    h, g = _filters(wavelet)
    approx = x
    details: list[np.ndarray] = []
    for _ in range(levels):
        approx, detail = _analysis_step(approx, h, g)
        details.append(detail)
    return np.concatenate([approx] + details[::-1], axis=-1)


def _filter_bank_inverse(coeffs: np.ndarray, wavelet: str, levels: int) -> np.ndarray:
    """Pyramidal synthesis of the last axis, the bands laid out as _filter_bank_forward's."""
    h, g = _filters(wavelet)
    size = coeffs.shape[-1] >> levels
    approx = coeffs[..., :size]
    for _ in range(levels):
        approx = _synthesis_step(approx, coeffs[..., size:2 * size], h, g)
        size *= 2
    return approx


# Lengths up to this go through one product with the cached L x L operator, longer
# ones through the filter bank, whose memory stays O(L); the measured crossover
# (bench/transforms.py).
_DENSE_MAX_LENGTH = 256


@functools.lru_cache(maxsize=32)
def _dwt_operator(length: int, wavelet: str, levels: int) -> np.ndarray:
    """Read-only W^T, so that x @ op is the analysis of x: the filter bank applied to eye(L)."""
    op = _filter_bank_forward(np.eye(length), wavelet, levels)
    op.flags.writeable = False
    return op


def _dwt_analysis(x: np.ndarray, wavelet: str, levels: int) -> np.ndarray:
    """Coefficients of the last axis of (..., L) as a fresh read-only array: one cached
    matrix product for window lengths, the O(L)-per-level filter bank for long series.

    Only the filter bank promises each row the arithmetic of its one-row call. The
    dense product of a batch runs as a GEMM, whose multiply-adds run in another order
    than the one-row GEMV, so its rows can differ from one-row calls in the last bits.
    """
    x = np.asarray(x, dtype=float)
    _check_dwt(wavelet, levels, x.shape)
    L = x.shape[-1]
    coeffs = (x @ _dwt_operator(L, wavelet, levels) if L <= _DENSE_MAX_LENGTH
              else _filter_bank_forward(x, wavelet, levels))
    coeffs.flags.writeable = False
    return coeffs


def _dwt_synthesis(coeffs: np.ndarray, wavelet: str, levels: int) -> np.ndarray:
    """Inverse of _dwt_analysis on coefficients of a length it accepted: the transpose of
    the orthogonal analysis, shaped like coeffs."""
    L = coeffs.shape[-1]
    if L <= _DENSE_MAX_LENGTH:
        return coeffs @ _dwt_operator(L, wavelet, levels).T
    return _filter_bank_inverse(coeffs, wavelet, levels)


def dwt_forward(x: np.ndarray, wavelet: str = "haar", levels: int = 1) -> WaveletCoeffs:
    """Periodized analysis of the last axis of (..., L); the coefficients are read-only."""
    return WaveletCoeffs._wrap(_dwt_analysis(x, wavelet, levels), levels, wavelet)


def dwt_inverse(w: WaveletCoeffs) -> np.ndarray:
    """Synthesis by transposition of the orthogonal analysis; exact inverse, shaped like w."""
    return _dwt_synthesis(w.coeffs, w.wavelet, w.levels)


def dwt_matrix(length: int, wavelet: str = "haar", levels: int = 1) -> np.ndarray:
    """Materialize the analysis matrix W (rows map x to coefficients) as a writable copy."""
    return dwt_forward(np.eye(length), wavelet, levels).coeffs.T.copy()


def pad_edge_pow2(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Pad with edge replication up to the next power of two.

    Returns (padded, original_length) so the caller can undo the padding.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot pad an empty vector")
    target = 1 << max(0, (n - 1).bit_length())
    if target == n:
        return x, n
    return np.concatenate([x, np.full(target - n, x[-1])]), n


# ---------------------------------------------------------------------------
# Spectral truncation (compact optimization targets)
# ---------------------------------------------------------------------------

def truncate_spectrum(f: np.ndarray, keep: int) -> tuple[np.ndarray, np.ndarray]:
    """Keep the first `keep` bins of the last axis and zero the rest.

    Returns the zero-filled spectrum and the energy of the dropped bins (per
    row, a float for 1-d input), which is the squared distance between the
    two spectra: zero exactly when the spectrum is supported on the kept
    bins. A real signal's bin L-k mirrors its bin k, so on real input the
    truncation is exact only when it keeps every nonzero bin and its mirror.
    """
    f = np.asarray(f)
    bins = f.shape[-1] if f.ndim else 0
    if not 1 <= keep <= bins:
        raise ValueError(f"keep must lie in 1..{bins} (the spectrum's bins), got {keep}")
    kept = np.zeros_like(f)
    kept[..., :keep] = f[..., :keep]
    dropped = f[..., keep:]
    return kept, np.sum(dropped.real**2 + dropped.imag**2, axis=-1)

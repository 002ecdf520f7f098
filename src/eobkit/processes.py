"""Synthetic time-series generators with exactly controlled structure.

The hybrid process is x_t = v_t + z_t where

* v_t is a sum of K sinusoids with amplitude-adjusted harmonics
  A_i = A*sqrt(K) / (k_i * sqrt(sum_j 1/k_j^2)), so that sum_i A_i^2 = K*A^2
  and var(v) = K*A^2 / 2 exactly over whole periods;
* z_t is a stationary AR(p) process z_t = c + sum_i phi_i z_{t-i} + eps_t
  driven by one of six innovation families, each mean-centered so the
  innovation is zero-mean with variance sigma_eps2.

Everything here is a pure function of (spec, seed): generators use a
counter-based Philox stream keyed by the seed, so identical inputs give
bit-identical output and independent sub-streams can be spawned for
parallel grids.

A spec field here, in `losses` or in `experiments` declares its type by its annotation and
its range in its `dataclasses.field` metadata: "min" (>=), "above" (>), "max" (<=), "below"
(<) or "choices". `_cast` enforces both, and each error it raises reads
`<Class>.<JSON key>: <cause>`, as in `Binomial.n: must be >= 1, got 0`.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import MISSING, Field, dataclass, field, fields, is_dataclass
from typing import Union

import numpy as np


class NonStationaryError(ValueError):
    """AR coefficients define a non-stationary (or explosive) process."""


SeedLike = Union[int, np.random.SeedSequence]


def _int(value) -> int:
    """Cast for integer fields that never rounds: 16 and 16.0 pass; 16.5, inf, nan, "16"
    and booleans raise."""
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value != int(value)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _bool(value) -> bool:
    """Cast for boolean fields: true and false pass; 0, 1, "no" and null raise."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"expected a boolean, got {value!r}")
    return bool(value)


def _float(value) -> float:
    """Cast for float fields: 0.5 and 1 pass; nan, inf, "0.5" and booleans raise."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"expected a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value!r}")
    return float(value)


def _items(cast):
    """Cast for tuple fields, item by item: a string or a JSON object is one bad item,
    not a sequence (iterated, "" and {} would pass as an empty tuple)."""
    return lambda value: tuple(map(cast, [value] if isinstance(value, (str, dict)) else value))


# a field's annotation, the string that `from __future__ import annotations` keeps, to its cast
_CASTS = {"int": _int, "float": _float, "bool": _bool,
          "tuple[int, ...]": _items(_int), "tuple[float, ...]": _items(_float)}


# what a field's metadata may require of its value, or of each item of a tuple field
_RANGE = {"min": (operator.ge, ">="), "above": (operator.gt, ">"), "max": (operator.le, "<="),
          "below": (operator.lt, "<"), "choices": (lambda v, allowed: v in allowed, "one of")}


def _cast(spec) -> None:
    """Coerce each field of a frozen dataclass whose annotation is in _CASTS, in place
    (JSON numbers come as int or float), then check its metadata's "min", "above", "max",
    "below" or "choices"; a failure reads `<Class>.<JSON key>: <cause>`."""
    for f in fields(spec):
        cast = _CASTS.get(f.type)
        try:
            value = cast(getattr(spec, f.name)) if cast else getattr(spec, f.name)
            for key, (holds, relation) in _RANGE.items():
                if key in f.metadata:
                    bad = [v for v in (value if f.type.startswith("tuple") else (value,))
                           if not holds(v, f.metadata[key])]
                    if bad:
                        raise ValueError(f"must be {relation} {f.metadata[key]!r}, got {bad[0]!r}")
        except (TypeError, ValueError, OverflowError) as exc:  # an int beyond float range
            raise ValueError(f"{type(spec).__name__}.{_json_key(f)}: {exc}") from None
        object.__setattr__(spec, f.name, value)


def seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """The SeedSequence of a seed: a SeedSequence as it is, or a non-negative integer."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (bool, np.bool_)) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.SeedSequence(int(seed))


def make_rng(seed: SeedLike) -> np.random.Generator:
    """Philox generator keyed by an integer seed or a SeedSequence."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed)))


# ---------------------------------------------------------------------------
# Innovation distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Binomial:
    n: int = field(metadata={"min": 1})
    p: float = field(metadata={"above": 0, "max": 1})

    def __post_init__(self):
        _cast(self)

    @property
    def mean(self) -> float:
        return self.n * self.p

    @property
    def variance(self) -> float:
        return self.n * self.p * (1.0 - self.p)

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.binomial(self.n, self.p, size=size).astype(float)


@dataclass(frozen=True)
class Geometric:
    p: float = field(metadata={"above": 0, "max": 1})

    def __post_init__(self):
        _cast(self)

    @property
    def mean(self) -> float:
        # support {1, 2, ...}
        return 1.0 / self.p

    @property
    def variance(self) -> float:
        return (1.0 - self.p) / self.p**2

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.geometric(self.p, size=size).astype(float)


@dataclass(frozen=True)
class Gaussian:
    mu: float
    sigma: float = field(metadata={"above": 0})

    def __post_init__(self):
        _cast(self)

    @property
    def mean(self) -> float:
        return self.mu

    @property
    def variance(self) -> float:
        return self.sigma**2

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.normal(self.mu, self.sigma, size=size)


@dataclass(frozen=True)
class Poisson:
    lam: float = field(metadata={"json_key": "lambda", "above": 0})

    def __post_init__(self):
        _cast(self)

    @property
    def mean(self) -> float:
        return self.lam

    @property
    def variance(self) -> float:
        return self.lam

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.poisson(self.lam, size=size).astype(float)


@dataclass(frozen=True)
class StudentT:
    nu: float = field(metadata={"above": 2})  # a finite variance
    alpha: float = field(metadata={"above": 0})

    def __post_init__(self):
        _cast(self)

    @property
    def mean(self) -> float:
        return 0.0

    @property
    def variance(self) -> float:
        return self.alpha**2 * self.nu / (self.nu - 2.0)

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.alpha * rng.standard_t(self.nu, size=size)


@dataclass(frozen=True)
class Uniform:
    a: float
    b: float

    def __post_init__(self):
        _cast(self)
        if not self.b > self.a:
            raise ValueError(f"uniform requires b > a, got a={self.a}, b={self.b}")

    @property
    def mean(self) -> float:
        return 0.5 * (self.a + self.b)

    @property
    def variance(self) -> float:
        return (self.b - self.a) ** 2 / 12.0

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.a, self.b, size=size)


InnovationDist = Union[Binomial, Geometric, Gaussian, Poisson, StudentT, Uniform]

_INNOVATION_KINDS = {
    "binomial": Binomial,
    "geometric": Geometric,
    "gaussian": Gaussian,
    "poisson": Poisson,
    "student_t": StudentT,
    "uniform": Uniform,
}


def calibrate_innovation(kind: str, sigma_eps2: float, nu: float = 5.0) -> InnovationDist:
    """Build an innovation of the given family with variance sigma_eps2.

    Uses the standard calibrations:
      binomial  n=1, p = (1 - sqrt(1 - 4*s2)) / 2        (needs s2 <= 1/4)
      geometric p = (-1 + sqrt(1 + 4*s2)) / (2*s2)
      gaussian  mu=0, sigma = sqrt(s2)
      poisson   lambda = s2  (variance of Poisson equals its rate)
      student_t alpha = sqrt(s2 * (nu-2)/nu)
      uniform   b = -a = sqrt(3*s2)
    """
    if not 0.0 < sigma_eps2 < math.inf:
        raise ValueError(f"sigma_eps2 must be positive and finite, got {sigma_eps2}")
    s = math.sqrt(sigma_eps2)
    if kind == "binomial":
        if sigma_eps2 > 0.25:
            raise ValueError("binomial with n=1 cannot exceed variance 0.25")
        return Binomial(n=1, p=(1.0 - math.sqrt(1.0 - 4.0 * sigma_eps2)) / 2.0)
    if kind == "geometric":
        return Geometric(p=(-1.0 + math.sqrt(1.0 + 4.0 * sigma_eps2)) / (2.0 * sigma_eps2))
    if kind == "gaussian":
        return Gaussian(mu=0.0, sigma=s)
    if kind == "poisson":
        return Poisson(lam=sigma_eps2)
    if kind == "student_t":
        return StudentT(nu=nu, alpha=s * math.sqrt((nu - 2.0) / nu))
    if kind == "uniform":
        return Uniform(a=-math.sqrt(3.0) * s, b=math.sqrt(3.0) * s)
    raise ValueError(f"unknown innovation kind {kind!r}; expected one of {sorted(_INNOVATION_KINDS)}")


def sample_innovation(dist: InnovationDist, n: int, seed: SeedLike) -> np.ndarray:
    """Draw n i.i.d. innovations, centered by the analytic mean of the variant."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return np.empty(0, dtype=float)
    rng = make_rng(seed)
    return dist._draw(rng, n) - dist.mean


# ---------------------------------------------------------------------------
# Process specifications
# ---------------------------------------------------------------------------

def _companion(phi: tuple[float, ...]) -> np.ndarray:
    """Companion matrix C: (z_t, ..., z_{t-p+1}) = C (z_{t-1}, ..., z_{t-p}) without input."""
    p = len(phi)
    comp = np.zeros((p, p))
    comp[0, :] = phi
    comp[1:, :-1] = np.eye(p - 1)
    return comp


def reflection_coefficients(phi) -> np.ndarray:
    """kappa_1..kappa_p of phi by the step-down (Schur-Cohn) recursion. phi is stationary
    iff every |kappa_j| < 1; the first one found outside raises NonStationaryError."""
    a, kappa = np.array(phi, dtype=float), np.empty(len(phi))
    for j in range(kappa.size, 0, -1):
        kappa[j - 1] = k = a[-1]
        if not abs(k) < 1.0:
            raise NonStationaryError(
                f"AR coefficients {tuple(map(float, phi))} are non-stationary "
                f"(reflection coefficient kappa_{j} = {k:.6f}, |kappa| >= 1)")
        a = (a[:-1] + k * a[-2::-1]) / (1.0 - k * k)
    return kappa


@dataclass(frozen=True)
class ARSpec:
    """Stationary AR(p) definition: z_t = c + sum_i phi_i z_{t-i} + eps_t."""

    c: float
    phi: tuple[float, ...]
    innovation: InnovationDist
    sigma_eps2: float = field(metadata={"above": 0})

    def __post_init__(self):
        _cast(self)
        if not math.isclose(self.innovation.variance, self.sigma_eps2,
                            rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError(
                f"innovation variance {self.innovation.variance:.12g} does not match "
                f"sigma_eps2={self.sigma_eps2:.12g}")
        reflection_coefficients(self.phi)

    @property
    def p(self) -> int:
        return len(self.phi)

    @property
    def mean(self) -> float:
        return self.c / (1.0 - sum(self.phi))

    @classmethod
    def white_noise(cls, sigma_eps2: float = 0.25, kind: str = "gaussian") -> "ARSpec":
        return cls(c=0.0, phi=(), innovation=calibrate_innovation(kind, sigma_eps2),
                   sigma_eps2=sigma_eps2)

    @classmethod
    def ar1_for_ssnr(cls, ssnr_z: float, sigma_eps2: float = 0.25,
                     kind: str = "gaussian") -> "ARSpec":
        """AR(1) whose marginal-to-innovation variance ratio equals ssnr_z.

        Inverts ssnr_z = 1/(1 - phi1^2), i.e. phi1 = sqrt((ssnr_z - 1)/ssnr_z).
        ssnr_z = 1 gives white noise.
        """
        if ssnr_z < 1.0:
            raise ValueError(f"ssnr_z must be >= 1, got {ssnr_z}")
        if ssnr_z == 1.0:
            return cls.white_noise(sigma_eps2, kind)
        phi1 = math.sqrt((ssnr_z - 1.0) / ssnr_z)
        return cls(c=0.0, phi=(phi1,), innovation=calibrate_innovation(kind, sigma_eps2),
                   sigma_eps2=sigma_eps2)


@dataclass(frozen=True)
class DeterministicSpec:
    """Sum of K sinusoids with amplitude-adjusted harmonics over period T."""

    base_amplitude: float = field(metadata={"min": 0})
    freqs: tuple[int, ...]
    phases: tuple[float, ...] = field(metadata={"min": 0, "below": 2 * math.pi})
    period: int = field(metadata={"min": 1})

    def __post_init__(self):
        _cast(self)
        if len(self.freqs) == 0:
            raise ValueError("at least one harmonic frequency is required")
        if len(self.freqs) != len(self.phases):
            raise ValueError(
                f"freqs and phases length mismatch: {len(self.freqs)} vs {len(self.phases)}")
        # sampled at integer t, a tone at k cycles per period shows at min(k mod P, -k mod P):
        # a zero there is a constant, P/2 a tone whose variance rides on its phase, and two
        # equal ones one tone, so that K*A^2/2 would not be the variance
        reduced = [min(k % self.period, -k % self.period) for k in self.freqs]
        if 0 in reduced or 2 * max(reduced) == self.period or len(set(reduced)) < self.K:
            raise ValueError(f"freqs {self.freqs} alias at period {self.period}: each frequency "
                             f"must reduce to a distinct bin strictly between 0 and period/2")

    @property
    def K(self) -> int:
        return len(self.freqs)

    def amplitudes(self) -> np.ndarray:
        """Per-harmonic amplitudes A_i = A*sqrt(K) / (k_i * sqrt(sum 1/k_j^2))."""
        k = np.asarray(self.freqs, dtype=float)
        norm = math.sqrt(float(np.sum(1.0 / k**2)))
        return self.base_amplitude * math.sqrt(self.K) / (np.abs(k) * norm)

    @property
    def variance(self) -> float:
        """Exact variance over whole periods: (1/2) * sum A_i^2 = K*A^2/2."""
        return 0.5 * self.K * self.base_amplitude**2

    @classmethod
    def for_ssnr(cls, ssnr_v: float, sigma_eps2: float, freqs: tuple[int, ...],
                 phases: tuple[float, ...], period: int) -> "DeterministicSpec":
        """Choose the base amplitude so that K*A^2/(2*sigma_eps2) = ssnr_v."""
        if ssnr_v < 0.0:
            raise ValueError(f"ssnr_v must be >= 0, got {ssnr_v}")
        amp = math.sqrt(2.0 * sigma_eps2 * ssnr_v / len(freqs))
        return cls(base_amplitude=amp, freqs=freqs, phases=phases, period=period)


@dataclass(frozen=True)
class HybridSpec:
    """Deterministic sinusoid stack plus stochastic AR core; x = v + z."""

    ar: ARSpec
    det: DeterministicSpec | None = field(default=None, kw_only=True)
    length: int = field(metadata={"min": 0})

    def __post_init__(self):
        _cast(self)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def default_burn_in(p: int) -> int:
    return 10 * p + 100


def psi_weights(spec: ARSpec, count: int) -> np.ndarray:
    """First `count` moving-average weights: psi_0 = 1, psi_j = sum phi_i psi_{j-i}."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    psi = np.zeros(count)
    psi[0] = 1.0
    phi = np.asarray(spec.phi)
    for j in range(1, count):
        m = min(j, spec.p)
        psi[j] = float(np.dot(phi[:m], psi[j - m:j][::-1]))
    return psi


# Samples per block of the AR recursion: at least _AR_BLOCK, so that the carry
# between blocks is a short scan, and at most _AR_BLOCK_MAX, so that the
# B x B product stays cheap.
_AR_BLOCK, _AR_BLOCK_MAX = 64, 2048


def _ar_recursion(spec: ARSpec, eps: np.ndarray) -> np.ndarray:
    """z_t = sum_i phi_i z_{t-i} + eps_t from a zero state, run in blocks of B samples.

    Within block b the output is Psi @ e_b + H @ s_b: the zero-state response
    (Psi the lower-triangular Toeplitz matrix of psi-weights) plus the
    response to the block's state s_b = (z_{t0-1}, ..., z_{t0-p}). The states
    obey s_{b+1} = M s_b + c_b, with M = C^B (C the companion matrix) and c_b
    the last p entries of Psi @ e_b in reverse; a doubling scan over blocks
    solves that recurrence in log2(blocks) small products. One product of
    the rows [e_b | s_b] with [Psi^T; H^T] then gives every block's output.

    Rounding in the carry grows with ||M||, which exceeds 1 when C is far
    from normal (nearly repeated roots close to the unit circle), so B
    doubles until ||C^B|| <= 1 or one block spans the series, up to
    _AR_BLOCK_MAX.
    """
    p, n = spec.p, eps.shape[0]
    B = max(_AR_BLOCK, p)
    power = np.linalg.matrix_power(_companion(spec.phi), B)
    while B < min(n, _AR_BLOCK_MAX) and np.linalg.norm(power, np.inf) > 1.0:
        B, power = 2 * B, power @ power
    nb, full = -(-n // B), n // B
    rows = np.zeros((nb, B + p))  # [e_b | s_b], zero-padded after the last sample
    rows[:full, :B] = eps[:full * B].reshape(full, B)
    rows[full:, :n - full * B] = eps[full * B:]
    # W[s, t] = psi_{t-s} (zero for s > t): row b of e @ W is (Psi @ e_b)^T
    psi = np.concatenate([np.zeros(B - 1), psi_weights(spec, B)])
    W = np.lib.stride_tricks.sliding_window_view(psi, B)[::-1]
    # H[t, i] = sum_j psi_{t-j} phi_{i+j+1}: response at t to z_{t0-1-i}
    k = np.arange(p)[:, None] + np.arange(p)[None, :]
    phi = np.asarray(spec.phi)
    H = W[:p].T @ np.where(k < p, phi[np.minimum(k, p - 1)], 0.0)
    X = rows[:, :B] @ W[:, :-p - 1:-1]  # c_b as rows; after the scan row b holds s_{b+1}
    step = H[:-p - 1:-1].T  # M^T, squared at each doubling
    d = 1
    while d < nb:
        X[d:] += X[:-d] @ step
        step = step @ step
        d *= 2
    rows[1:, B:] = X[:-1]
    return (rows @ np.vstack([W, H.T])).ravel()[:n]


def simulate_ar(spec: ARSpec, n: int, burn_in: int | None = None,
                seed: SeedLike = 0) -> np.ndarray:
    """Simulate n samples of the AR process after discarding burn_in.

    The centered recursion starts from zero (the process mean) and is run
    by `_ar_recursion`; the result is then shifted by c/(1 - sum phi).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if burn_in is None:
        burn_in = default_burn_in(spec.p)
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    if n == 0:
        return np.empty(0, dtype=float)
    eps = sample_innovation(spec.innovation, n + burn_in, seed)
    z = _ar_recursion(spec, eps) if spec.p else eps
    return spec.mean + z[burn_in:]


def synthesize_deterministic(spec: DeterministicSpec, n: int) -> np.ndarray:
    """Evaluate v_t = sum_i A_i sin(2*pi*k_i*t/T + phase_i) for t = 0..n-1."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    t = np.arange(n, dtype=float)
    amps = spec.amplitudes()
    v = np.zeros(n)
    for amp, k, ph in zip(amps, spec.freqs, spec.phases):
        v += amp * np.sin(2.0 * math.pi * k * t / spec.period + ph)
    return v


def synthesize_hybrid(spec: HybridSpec, seed: SeedLike = 0) -> np.ndarray:
    """Element-wise sum of the deterministic and AR paths."""
    seq = seed_sequence(seed)
    if spec.length == 0:
        return np.empty(0, dtype=float)
    z = simulate_ar(spec.ar, spec.length, seed=seq.spawn(1)[0])
    if spec.det is None:
        return z
    return synthesize_deterministic(spec.det, spec.length) + z


# ---------------------------------------------------------------------------
# JSON loading (schema: {"ar": {...}, "det": {...}, "length": N})
# ---------------------------------------------------------------------------

def _json_key(f: Field) -> str:
    return f.metadata.get("json_key", f.name)


def _json_object(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(obj).__name__}")
    return dict(obj)


def from_dict(cls, obj, where: str, nested: dict | None = None, **fixed):
    """Build the dataclass `cls` from the JSON object `obj`, named `where` in errors.

    The keys are the fields of `cls` (a field's metadata "json_key" renames
    its key) less the `fixed` ones, which the caller supplies; a field
    without a default is required. `nested` maps a key to the loader of its
    section. The values' types are checked by `cls` itself: its __post_init__
    calls `_cast`, which casts each field by its annotation.
    """
    values = _json_object(obj, where)
    by_key = {_json_key(f): f for f in fields(cls) if f.name not in fixed}
    unknown = set(values) - set(by_key)
    if unknown:
        raise ValueError(f"unknown field(s) in {where}: {sorted(unknown)}")
    missing = [key for key, f in by_key.items() if key not in values
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"{where} missing field(s): {missing}")
    for key, load in (nested or {}).items():
        if key in values:
            values[key] = load(values[key])
    return cls(**{by_key[key].name: value for key, value in values.items()}, **fixed)


def to_dict(spec) -> dict:
    """The JSON object of the dataclass `spec`, the inverse of `from_dict`: each field under
    its JSON key, a nested spec as its own object, and an innovation with its kind."""
    kind = next((k for k, cls in _INNOVATION_KINDS.items() if type(spec) is cls), None)
    obj = {} if kind is None else {"kind": kind}
    for f in fields(spec):
        value = getattr(spec, f.name)
        obj[_json_key(f)] = to_dict(value) if is_dataclass(value) else value
    return obj


def innovation_from_dict(obj: dict) -> InnovationDist:
    values = _json_object(obj, "innovation")
    kind = values.pop("kind", None)
    if not isinstance(kind, str) or kind not in _INNOVATION_KINDS:
        raise ValueError(f"innovation kind must be one of {sorted(_INNOVATION_KINDS)}, "
                         f"got {kind!r}")
    return from_dict(_INNOVATION_KINDS[kind], values, f"innovation[{kind}]")


def ar_spec_from_dict(obj: dict) -> ARSpec:
    return from_dict(ARSpec, obj, "ar", nested={"innovation": innovation_from_dict})


def det_spec_from_dict(obj: dict) -> DeterministicSpec:
    values = _json_object(obj, "det")
    K = values.pop("K", None)  # derived from freqs; checked when given
    spec = from_dict(DeterministicSpec, values, "det")
    if "K" in obj and (isinstance(K, bool) or K != spec.K):
        raise ValueError(f"det.K={K!r} must equal len(freqs)={spec.K}")
    return spec


def hybrid_spec_from_dict(obj: dict) -> HybridSpec:
    return from_dict(HybridSpec, obj, "process spec", nested={
        "ar": ar_spec_from_dict,
        "det": lambda det: None if det is None else det_spec_from_dict(det)})

"""Shared helpers: seeded RNGs and random stationary AR specs.

Stationary coefficient vectors are drawn through reflection coefficients
in (-1, 1) and converted by the Levinson step-up recursion, which maps
any such point to a stationary AR polynomial. That gives an unbiased
sampler over the stationary region without rejection.
"""

import numpy as np
import pytest

from eobkit.processes import ARSpec, calibrate_innovation


# one JSON innovation block per family, each with variance 0.25
INNOVATION_DOCS = {
    "binomial": {"kind": "binomial", "n": 1, "p": 0.5},
    "geometric": {"kind": "geometric", "p": 0.8284271247461903},
    "gaussian": {"kind": "gaussian", "mu": 0.0, "sigma": 0.5},
    "poisson": {"kind": "poisson", "lambda": 0.25},
    "student_t": {"kind": "student_t", "nu": 5.0, "alpha": 0.3872983346207417},
    "uniform": {"kind": "uniform", "a": -0.8660254037844386, "b": 0.8660254037844386},
}


def step_up(reflection: np.ndarray) -> np.ndarray:
    """Levinson step-up: reflection coefficients -> AR coefficients."""
    a = np.empty(0)
    for k in reflection:
        a = np.concatenate([a - k * a[::-1], [k]])
    return a


def random_stationary_spec(rng: np.random.Generator, p: int, sigma_eps2: float = 0.25,
                           max_reflection: float = 0.9) -> ARSpec:
    refl = rng.uniform(-max_reflection, max_reflection, size=p)
    return ARSpec(c=0.0, phi=tuple(step_up(refl)),
                  innovation=calibrate_innovation("gaussian", sigma_eps2),
                  sigma_eps2=sigma_eps2)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)

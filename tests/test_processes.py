import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal

from conftest import INNOVATION_DOCS, step_up
from eobkit.processes import (_AR_BLOCK, ARSpec, Binomial, DeterministicSpec, Gaussian,
                              Geometric, HybridSpec, NonStationaryError, Poisson, StudentT,
                              Uniform, calibrate_innovation, default_burn_in,
                              hybrid_spec_from_dict, make_rng, psi_weights,
                              reflection_coefficients, sample_innovation, simulate_ar,
                              synthesize_deterministic, synthesize_hybrid, to_dict)

SIGMA_EPS2 = 0.25
FAMILIES = ("binomial", "geometric", "gaussian", "poisson", "student_t", "uniform")
HEAVY = {"geometric", "poisson", "student_t"}


class TestInnovations:
    def test_calibrated_analytic_variance(self):
        for kind in FAMILIES:
            dist = calibrate_innovation(kind, SIGMA_EPS2)
            assert dist.variance == pytest.approx(SIGMA_EPS2, rel=1e-12), kind

    def test_reference_parameterizations(self):
        assert calibrate_innovation("binomial", SIGMA_EPS2) == Binomial(n=1, p=0.5)
        geo = calibrate_innovation("geometric", SIGMA_EPS2)
        assert geo.p == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), rel=1e-12)
        assert calibrate_innovation("gaussian", SIGMA_EPS2) == Gaussian(mu=0.0, sigma=0.5)
        assert calibrate_innovation("poisson", SIGMA_EPS2) == Poisson(lam=0.25)
        st = calibrate_innovation("student_t", SIGMA_EPS2)
        assert st.nu == 5.0
        assert st.alpha == pytest.approx(math.sqrt(15.0) / 10.0, rel=1e-12)
        uni = calibrate_innovation("uniform", SIGMA_EPS2)
        assert uni.b == pytest.approx(math.sqrt(3.0) * 0.5, rel=1e-12)
        assert uni.a == -uni.b

    def test_gaussian_sample_variance_tight_band(self):
        draws = sample_innovation(Gaussian(mu=0.0, sigma=0.5), 10**6, seed=1)
        assert 0.2485 <= float(np.var(draws)) <= 0.2515

    def test_uniform_sample_variance(self):
        b = math.sqrt(3.0) * 0.5
        draws = sample_innovation(Uniform(a=-b, b=b), 10**6, seed=2)
        assert float(np.var(draws)) == pytest.approx(SIGMA_EPS2, rel=0.005)

    def test_empty_sample(self):
        assert sample_innovation(Gaussian(mu=0.0, sigma=0.5), 0, seed=0).size == 0

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_centered_with_calibrated_variance(self, kind):
        # CLT band: 3 * sqrt(2/n) * sigma2, widened 5x for heavy-tailed families
        n = 200_000
        draws = sample_innovation(calibrate_innovation(kind, SIGMA_EPS2), n, seed=7)
        band = 3.0 * math.sqrt(2.0 / n) * SIGMA_EPS2 * (5.0 if kind in HEAVY else 1.0)
        assert abs(float(np.mean(draws))) < 10.0 * math.sqrt(SIGMA_EPS2 / n)
        assert abs(float(np.var(draws)) - SIGMA_EPS2) < band

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="p"):
            Geometric(p=0.0)
        with pytest.raises(ValueError, match="sigma"):
            Gaussian(mu=0.0, sigma=0.0)
        with pytest.raises(ValueError, match="lambda"):
            Poisson(lam=-1.0)
        with pytest.raises(ValueError, match="nu"):
            StudentT(nu=2.0, alpha=1.0)
        with pytest.raises(ValueError, match="b > a"):
            Uniform(a=1.0, b=1.0)
        with pytest.raises(ValueError, match="n >= 1"):
            Binomial(n=0, p=0.5)


@st.composite
def _roots_near_unit_circle(draw) -> list:
    """1-6 AR roots, real or in conjugate pairs, at moduli 1 -+ 10^u with u in [-2, -1]:
    near the boundary, but far enough that eigvals and the step-down both decide it."""
    def modulus() -> float:
        return 1.0 + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-2.0, -1.0))
    roots = []
    for _ in range(draw(st.integers(0, 3))):
        z = modulus() * np.exp(1j * draw(st.floats(0.0, math.pi)))
        roots += [z, z.conjugate()]
    n_real = draw(st.integers(0 if roots else 1, 6 - len(roots)))
    return roots + [draw(st.sampled_from([-1.0, 1.0])) * modulus() for _ in range(n_real)]


class TestARSpec:
    def test_stationarity_gate(self):
        for phi in [(1.0,), (1.1,), (-1.0,), (0.5, 0.5), (0.9, 0.2)]:
            with pytest.raises(NonStationaryError):
                ARSpec(c=0.0, phi=phi, innovation=Gaussian(0.0, 0.5), sigma_eps2=0.25)

    def test_gate_names_the_reflection_coefficient(self):
        with pytest.raises(NonStationaryError, match=r"kappa_1 = 1\.125000"):
            _gaussian_ar((0.9, 0.2))

    @settings(max_examples=200, deadline=None)
    @given(reflection=st.lists(st.floats(-0.99, 0.99), max_size=6))
    def test_reflection_coefficients_invert_step_up(self, reflection):
        kappa = np.asarray(reflection)
        # both directions lose digits in step with SSNR = prod_j 1 / (1 - kappa_j^2)
        ssnr = float(np.prod(1.0 / (1.0 - kappa**2)))
        np.testing.assert_allclose(reflection_coefficients(step_up(kappa)), kappa,
                                   rtol=0.0, atol=1e-12 * ssnr)

    @settings(max_examples=200, deadline=None)
    @given(roots=_roots_near_unit_circle())
    def test_gate_matches_companion_eigenvalues(self, roots):
        phi = -np.poly(roots)[1:].real
        companion = np.eye(phi.size, k=-1)
        companion[0] = phi
        explosive = bool(np.max(np.abs(np.linalg.eigvals(companion))) >= 1.0)
        try:
            _gaussian_ar(phi)
        except NonStationaryError:
            assert explosive
        else:
            assert not explosive

    def test_variance_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            ARSpec(c=0.0, phi=(0.5,), innovation=Gaussian(0.0, 0.5), sigma_eps2=0.3)

    def test_ar1_for_ssnr_inverts_formula(self):
        spec = ARSpec.ar1_for_ssnr(32.0)
        assert spec.phi[0] == pytest.approx(math.sqrt(31.0 / 32.0), rel=1e-12)
        assert ARSpec.ar1_for_ssnr(1.0).p == 0

    def test_mean(self):
        spec = ARSpec(c=1.0, phi=(0.5,), innovation=Gaussian(0.0, 0.5), sigma_eps2=0.25)
        assert spec.mean == pytest.approx(2.0)


class TestSimulateAR:
    def test_white_noise(self):
        z = simulate_ar(ARSpec.white_noise(), 10**6, seed=3)
        assert float(np.var(z)) == pytest.approx(0.25, rel=0.01)
        lag1 = float(np.corrcoef(z[:-1], z[1:])[0, 1])
        assert abs(lag1) < 0.005

    def test_ar1_variance_matches_closed_form(self):
        spec = ARSpec(c=0.0, phi=(0.6,), innovation=Gaussian(0.0, 0.5), sigma_eps2=0.25)
        z = simulate_ar(spec, 10**6, seed=4)
        assert float(np.var(z)) == pytest.approx(0.25 / (1.0 - 0.36), rel=0.02)

    def test_high_persistence_ssnr(self):
        spec = ARSpec.ar1_for_ssnr(32.0)
        z = simulate_ar(spec, 10**6, seed=5)
        assert float(np.var(z)) / SIGMA_EPS2 == pytest.approx(32.0, rel=0.05)

    def test_nonzero_mean_ar(self):
        spec = ARSpec(c=1.0, phi=(0.5,), innovation=Gaussian(0.0, 0.5), sigma_eps2=0.25)
        z = simulate_ar(spec, 200_000, seed=6)
        assert float(np.mean(z)) == pytest.approx(2.0, abs=0.02)

    def test_empty_and_validation(self):
        assert simulate_ar(ARSpec.white_noise(), 0, seed=0).size == 0
        with pytest.raises(ValueError):
            simulate_ar(ARSpec.white_noise(), 10, burn_in=-1, seed=0)

    def test_deterministic(self):
        spec = ARSpec(c=0.0, phi=(0.6,), innovation=Gaussian(0.0, 0.5), sigma_eps2=0.25)
        a = simulate_ar(spec, 1000, seed=11)
        b = simulate_ar(spec, 1000, seed=11)
        assert np.array_equal(a, b)


def _gaussian_ar(phi) -> ARSpec:
    return ARSpec(c=0.0, phi=tuple(phi), innovation=Gaussian(0.0, 0.5), sigma_eps2=0.25)


def _assert_matches_lfilter(spec: ARSpec, n: int, burn_in: int, seed: int) -> None:
    """simulate_ar against scipy's direct-form filter on the same innovations.

    Both round differently; their gap is held to 1e-14 of max|y|, or to
    eps * sum|psi_j| of it where that is larger: the rounding of a
    recursion is amplified by the sum of its impulse response, which grows
    without bound as roots cluster near the unit circle. max|y| runs over
    the whole recursion, burn-in included: a sample is computed from state
    of that size, so its rounding scales with it, however small the
    returned window.
    """
    z = simulate_ar(spec, n, burn_in=burn_in, seed=seed)
    eps = sample_innovation(spec.innovation, n + burn_in, seed)
    ref = signal.lfilter([1.0], np.concatenate(([1.0], -np.asarray(spec.phi))), eps)
    amplification = float(np.sum(np.abs(psi_weights(spec, n + burn_in))))
    tol = max(1e-14, np.finfo(float).eps * amplification)
    assert z.shape == (n,)
    assert float(np.max(np.abs(z - ref[burn_in:]))) <= tol * float(np.max(np.abs(ref)))


class TestRecursionAgainstLfilter:
    @settings(max_examples=150, deadline=None)
    @given(reflection=st.lists(st.floats(-0.99, 0.99), max_size=4),
           n=st.sampled_from([1, _AR_BLOCK - 1, _AR_BLOCK, _AR_BLOCK + 1, 7 * _AR_BLOCK + 5,
                              100 * _AR_BLOCK]),
           burn_in=st.sampled_from([0, None]), seed=st.integers(0, 2**16))
    @example(reflection=[0.99], n=100 * _AR_BLOCK, burn_in=0, seed=1)
    @example(reflection=[], n=_AR_BLOCK + 1, burn_in=0, seed=2)
    # the returned sample is 0.65 while the burn-in peaks at 11.7
    @example(reflection=[0.8125, 0.8125, -0.875, -0.5], n=1, burn_in=None, seed=3067)
    def test_stationary_specs(self, reflection, n, burn_in, seed):
        spec = _gaussian_ar(step_up(np.asarray(reflection)))
        _assert_matches_lfilter(spec, n, default_burn_in(spec.p) if burn_in is None else burn_in,
                                seed)

    @pytest.mark.parametrize("roots", [(0.99, 0.99), (0.95, 0.95, 0.95), (0.99, 0.99, 0.99),
                                       (0.99, 0.99, 0.99, 0.99), (0.99, 0.9899, -0.5)])
    def test_nearly_repeated_roots_near_the_unit_circle(self, roots):
        # companion matrices far from normal: ||C^64|| runs from ~45 to ~2e5 here
        _assert_matches_lfilter(_gaussian_ar(-np.poly(roots)[1:]), 5000, 0, seed=3)


class TestDeterministic:
    def test_single_tone_variance(self):
        spec = DeterministicSpec(base_amplitude=math.sqrt(2.0), freqs=(4,), phases=(0.0,),
                                 period=128)
        v = synthesize_deterministic(spec, 128)
        assert float(np.mean(v**2) - np.mean(v) ** 2) == pytest.approx(1.0, rel=1e-10)

    def test_zero_amplitude(self):
        spec = DeterministicSpec(base_amplitude=0.0, freqs=(3,), phases=(1.0,), period=64)
        assert np.all(synthesize_deterministic(spec, 64) == 0.0)

    def test_amplitude_identity(self, rng):
        # sum of squared harmonics equals K * A^2 exactly
        for _ in range(20):
            K = int(rng.integers(1, 6))
            freqs = tuple(int(k) for k in rng.choice(np.arange(1, 16), size=K, replace=False))
            spec = DeterministicSpec(base_amplitude=float(rng.uniform(0.1, 3.0)),
                                     freqs=freqs,
                                     phases=tuple(rng.uniform(0, 2 * math.pi, K)),
                                     period=128)
            total = float(np.sum(spec.amplitudes() ** 2))
            assert total == pytest.approx(spec.K * spec.base_amplitude**2, abs=1e-12)

    def test_whole_period_variance(self, rng):
        spec = DeterministicSpec(base_amplitude=1.3, freqs=(2, 5, 7),
                                 phases=tuple(rng.uniform(0, 2 * math.pi, 3)), period=64)
        v = synthesize_deterministic(spec, 64 * 8)
        assert float(np.var(v)) == pytest.approx(spec.variance, rel=1e-9)

    @pytest.mark.parametrize("freqs", [(16,), (3, 29), (2, 2), (0,), (32,), (-3, 3), (1, 33)],
                             ids=str)
    def test_aliasing_tones_rejected(self, freqs):
        # on integer t, k and P - k give the same bin, P/2 and P are not tones at all, and
        # K*A^2/2 would then misstate the variance: (3, 29) at P = 32 is one tone twice
        with pytest.raises(ValueError, match=r"alias at period 32: each frequency"):
            DeterministicSpec(base_amplitude=1.0, freqs=freqs, phases=(0.5,) * len(freqs),
                              period=32)

    def test_whole_period_variance_of_every_accepted_tone_set(self, rng):
        # the rule admits tones past P/2 and negative ones when their bins stay distinct
        accepted = 0
        for _ in range(200):
            period = int(rng.integers(3, 40))
            K = int(rng.integers(1, 4))
            freqs = tuple(int(k) for k in rng.integers(-2 * period, 2 * period, size=K))
            phases = tuple(rng.uniform(0, 2 * math.pi, K))
            try:
                spec = DeterministicSpec(base_amplitude=1.0, freqs=freqs, phases=phases,
                                         period=period)
            except ValueError:
                continue
            accepted += 1
            v = synthesize_deterministic(spec, period * 4)
            assert float(np.var(v)) == pytest.approx(spec.variance, rel=1e-9), (freqs, period)
        assert accepted > 50

    def test_validation(self):
        with pytest.raises(ValueError, match="frequency"):
            DeterministicSpec(base_amplitude=1.0, freqs=(0,), phases=(0.0,), period=16)
        with pytest.raises(ValueError, match="phases"):
            DeterministicSpec(base_amplitude=1.0, freqs=(1,), phases=(7.0,), period=16)
        with pytest.raises(ValueError):
            synthesize_deterministic(
                DeterministicSpec(base_amplitude=1.0, freqs=(1,), phases=(0.0,), period=16), 0)


class TestHybrid:
    def test_pure_stochastic(self):
        spec = HybridSpec(ar=ARSpec.ar1_for_ssnr(32.0), det=None, length=10**6)
        x = synthesize_hybrid(spec, seed=8)
        assert float(np.var(x)) / SIGMA_EPS2 == pytest.approx(32.0, rel=0.05)

    def test_ssnr_additivity(self):
        det = DeterministicSpec.for_ssnr(4.0, SIGMA_EPS2, freqs=(4,), phases=(0.7,),
                                         period=128)
        assert det.base_amplitude == pytest.approx(math.sqrt(2.0), rel=1e-12)
        spec = HybridSpec(ar=ARSpec.ar1_for_ssnr(32.0), det=det, length=10**5 * 2)
        x = synthesize_hybrid(spec, seed=9)
        assert float(np.var(x)) / SIGMA_EPS2 == pytest.approx(36.0, rel=0.05)

    def test_additivity_at_top_of_range(self):
        det = DeterministicSpec.for_ssnr(288.0, SIGMA_EPS2, freqs=(2, 9, 14),
                                         phases=(0.4, 2.2, 5.0), period=128)
        spec = HybridSpec(ar=ARSpec.ar1_for_ssnr(32.0), det=det, length=10**6)
        x = synthesize_hybrid(spec, seed=10)
        assert float(np.var(x)) / SIGMA_EPS2 == pytest.approx(320.0, rel=0.05)

    def test_zero_length(self):
        spec = HybridSpec(ar=ARSpec.white_noise(), det=None, length=0)
        assert synthesize_hybrid(spec, seed=0).size == 0

    def test_determinism(self):
        det = DeterministicSpec.for_ssnr(2.0, SIGMA_EPS2, freqs=(3, 5), phases=(0.1, 0.2),
                                         period=64)
        spec = HybridSpec(ar=ARSpec.ar1_for_ssnr(8.0), det=det, length=5000)
        assert np.array_equal(synthesize_hybrid(spec, seed=13), synthesize_hybrid(spec, seed=13))
        assert not np.array_equal(synthesize_hybrid(spec, seed=13),
                                  synthesize_hybrid(spec, seed=14))


    def test_seed_keys_the_ar_path_through_one_spawned_stream(self):
        spec = HybridSpec(ar=ARSpec.ar1_for_ssnr(8.0), det=None, length=500)
        (child,) = np.random.SeedSequence(13).spawn(1)
        assert np.array_equal(synthesize_hybrid(spec, seed=13),
                              simulate_ar(spec.ar, 500, seed=child))


class TestSeeds:
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    @pytest.mark.parametrize("draw", [
        make_rng,
        lambda seed: synthesize_hybrid(HybridSpec(ar=ARSpec.white_noise(), det=None,
                                                  length=0), seed=seed),
    ], ids=["make_rng", "synthesize_hybrid"])
    def test_bad_seed_is_rejected_by_name(self, draw, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must be a non-negative integer, "
                                                       f"got {seed!r}")):
            draw(seed)

    @pytest.mark.parametrize("seed", [0, 7, np.int64(2**40), np.random.SeedSequence(5)])
    def test_valid_seed_keys_a_philox_stream(self, seed):
        seq = seed
        if not isinstance(seed, np.random.SeedSequence):
            seq = np.random.SeedSequence(int(seed))
        expected = np.random.Generator(np.random.Philox(seq)).random(4)
        assert np.array_equal(make_rng(seed).random(4), expected)


# README's process spec
README_SPEC = """{
  "ar": {"c": 0.0, "phi": [0.6],
         "innovation": {"kind": "gaussian", "mu": 0.0, "sigma": 0.5},
         "sigma_eps2": 0.25},
  "det": {"K": 2, "base_amplitude": 1.5, "freqs": [2, 7],
          "phases": [0.3, 1.1], "period": 128},
  "length": 5000
}"""


class TestJsonSchema:
    def doc(self) -> dict:
        return json.loads(README_SPEC)

    def spec(self) -> HybridSpec:
        det = DeterministicSpec(base_amplitude=1.5, freqs=(2, 7), phases=(0.3, 1.1),
                                period=128)
        ar = ARSpec(c=0.0, phi=(0.6,), innovation=Gaussian(mu=0.0, sigma=0.5),
                    sigma_eps2=0.25)
        return HybridSpec(ar=ar, det=det, length=5000)

    def test_readme_document_builds_the_spec(self):
        assert hybrid_spec_from_dict(self.doc()) == self.spec()

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_innovation_documents(self, kind):
        obj = self.doc()
        obj["ar"]["innovation"] = INNOVATION_DOCS[kind]
        dist, calibrated = hybrid_spec_from_dict(obj).ar.innovation, calibrate_innovation(kind, 0.25)
        assert type(dist) is type(calibrated)
        assert dataclasses.astuple(dist) == pytest.approx(dataclasses.astuple(calibrated), rel=1e-15)

    def test_unknown_fields_rejected(self):
        obj = self.doc()
        obj["extra"] = 1
        with pytest.raises(ValueError, match="unknown"):
            hybrid_spec_from_dict(obj)
        obj = self.doc()
        obj["ar"]["bogus"] = 2
        with pytest.raises(ValueError, match="bogus"):
            hybrid_spec_from_dict(obj)

    def test_poisson_lambda_key(self):
        obj = self.doc()
        obj["ar"]["innovation"] = {"kind": "poisson", "lambda": 0.25}
        assert hybrid_spec_from_dict(obj).ar.innovation == Poisson(lam=0.25)
        obj["ar"]["innovation"] = {"kind": "poisson", "lam": 0.25}
        with pytest.raises(ValueError, match=r"unknown field\(s\) in innovation\[poisson\]"):
            hybrid_spec_from_dict(obj)

    def test_numbers_are_cast_as_before(self):
        obj = self.doc()
        obj["length"] = 1000.0
        obj["det"]["period"] = 128.0
        obj["ar"]["c"] = 0
        obj["ar"]["innovation"] = {"kind": "binomial", "n": 1.0, "p": 0.5}
        spec = hybrid_spec_from_dict(obj)
        assert spec.length == 1000 and type(spec.length) is int
        assert type(spec.det.period) is int and type(spec.ar.c) is float
        assert spec.ar.innovation == Binomial(n=1, p=0.5)
        assert type(spec.ar.innovation.n) is int

    def test_det_k_is_optional_and_checked(self):
        obj = self.doc()
        with_k = hybrid_spec_from_dict(obj)
        del obj["det"]["K"]
        assert hybrid_spec_from_dict(obj) == with_k == self.spec()
        obj["det"]["K"] = 3
        with pytest.raises(ValueError, match="K=3"):
            hybrid_spec_from_dict(obj)

    def test_det_absent_or_null_means_none(self):
        obj = self.doc()
        del obj["det"]
        spec = hybrid_spec_from_dict(obj)
        assert spec.det is None
        assert hybrid_spec_from_dict({**obj, "det": None}) == spec

    @pytest.mark.parametrize("section,drop", [("process spec", "length"), ("ar", "sigma_eps2"),
                                              ("det", "phases"), ("innovation[gaussian]", "mu")])
    def test_missing_field_rejected(self, section, drop):
        obj = self.doc()
        where = {"process spec": obj, "ar": obj["ar"], "det": obj["det"],
                 "innovation[gaussian]": obj["ar"]["innovation"]}[section]
        del where[drop]
        message = re.escape(f"{section} missing field(s): ['{drop}']")
        with pytest.raises(ValueError, match=message):
            hybrid_spec_from_dict(obj)

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_to_dict_inverts_from_dict(self, kind):
        # JSON keys (poisson's "lambda"), nested specs and the innovation's kind
        obj = self.doc()
        del obj["det"]["K"]
        obj["ar"]["innovation"] = INNOVATION_DOCS[kind]
        spec = hybrid_spec_from_dict(obj)
        assert json.loads(json.dumps(to_dict(spec))) == obj
        assert hybrid_spec_from_dict(to_dict(spec)) == spec
        assert to_dict(HybridSpec(ar=spec.ar, length=3))["det"] is None

    def test_innovation_kind_required(self):
        obj = self.doc()
        del obj["ar"]["innovation"]["kind"]
        with pytest.raises(ValueError, match="innovation kind must be one of"):
            hybrid_spec_from_dict(obj)


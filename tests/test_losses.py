import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eobkit import gradcheck, losses, transforms
from eobkit.processes import make_rng
from eobkit.losses import (EmaMagnitudes, HarmonizedConfig, freq_amp_phase,
                           freq_error_amp_phase, freq_real_imag_l1, freq_real_imag_l2,
                           harmonized_l1, harmonized_l2, temporal_l1, temporal_l2,
                           update_ema, whitened_loss)
from eobkit.transforms import dft_forward, dft_inverse
from test_transforms import dft_cases


class TestTemporal:
    def test_zero_at_match(self, rng):
        x = rng.normal(size=8)
        for fn in (temporal_l2, temporal_l1):
            ev = fn(x, x.copy())
            assert ev.value == 0.0
            np.testing.assert_array_equal(ev.grad_wrt_prediction, 0.0)

    def test_hand_case_l2(self):
        ev = temporal_l2(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        assert ev.value == 5.0
        np.testing.assert_array_equal(ev.grad_wrt_prediction, [-2.0, -4.0])

    def test_hand_case_l1(self):
        ev = temporal_l1(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        assert ev.value == 3.0
        np.testing.assert_array_equal(ev.grad_wrt_prediction, [-1.0, -1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            temporal_l2(np.ones(3), np.ones(4))

    def test_scale_behavior(self, rng):
        # l2 gradient grows with the error; l1 gradient has magnitude 1 or 0
        x = rng.normal(size=16)
        e = rng.normal(size=16)
        g1 = temporal_l2(x, x - e).grad_wrt_prediction
        g2 = temporal_l2(x, x - 2 * e).grad_wrt_prediction
        np.testing.assert_allclose(g2, 2 * g1, rtol=1e-12)
        g = temporal_l1(x, x - e).grad_wrt_prediction
        assert set(np.abs(g)) <= {0.0, 1.0}


class TestRealImag:
    def test_l2_equals_temporal(self, rng):
        for L in (8, 32, 64, 128):
            x, x_hat = rng.normal(size=L), rng.normal(size=L)
            freq = freq_real_imag_l2(x, x_hat)
            temp = temporal_l2(x, x_hat)
            assert abs(freq.value - temp.value) < 1e-9 * temp.value
            denom = np.max(np.abs(temp.grad_wrt_prediction))
            assert np.max(np.abs(freq.grad_wrt_prediction
                                 - temp.grad_wrt_prediction)) < 1e-9 * denom

    def test_l1_impulse_error(self):
        # impulse error has a flat spectrum: 4 bins x (|0.5| + |0|) = 2
        x_hat = np.zeros(4)
        x = np.array([1.0, 0.0, 0.0, 0.0])
        assert freq_real_imag_l1(x, x_hat).value == pytest.approx(2.0, abs=1e-12)

    def test_l1_zero_at_match(self, rng):
        x = rng.normal(size=16)
        assert freq_real_imag_l1(x, x.copy()).value == 0.0

    def test_l1_differs_from_temporal(self, rng):
        # no rotational invariance for the l1 ball
        x, x_hat = rng.normal(size=16), rng.normal(size=16)
        assert freq_real_imag_l1(x, x_hat).value != pytest.approx(
            temporal_l1(x, x_hat).value, rel=1e-3)


class TestAmpPhase:
    def test_zero_at_match(self, rng):
        x = rng.normal(size=16)
        ev = freq_amp_phase(x, x.copy(), "l2")
        assert ev.value == 0.0
        assert ev.parts["amplitude"].value == 0.0
        assert ev.parts["phase"].value == 0.0

    def test_amplitude_only_perturbation_has_zero_phase_term(self, rng):
        # scale the spectrum magnitudes of a real signal, keep phases
        x_hat = rng.normal(size=32)
        scale = 1.0 + 0.4 * np.cos(2 * math.pi * np.arange(32) / 32)  # symmetric bins
        x = dft_inverse(scale * dft_forward(x_hat))
        for norm in ("l1", "l2"):
            ev = freq_amp_phase(x, x_hat, norm)
            assert ev.parts["phase"].value < 1e-9
            assert ev.parts["amplitude"].value > 0.01

    def test_dead_bins_excluded_from_phase(self):
        x_hat = np.zeros(8)  # all predicted amplitudes are zero
        x = np.sin(2 * math.pi * np.arange(8) / 8)
        ev = freq_amp_phase(x, x_hat, "l2")
        assert np.all(np.isfinite(ev.grad_wrt_prediction))
        assert ev.parts["phase"].value == 0.0

    def test_phase_wrap_matches_mod_bit_for_bit(self, rng):
        def mod_wrap(delta):
            wrapped = np.mod(delta + math.pi, 2.0 * math.pi) - math.pi
            return np.where(wrapped == -math.pi, math.pi, wrapped)

        z = rng.normal(size=(2, 100_000)) + 1j * rng.normal(size=(2, 100_000))
        edges = np.array([math.pi, -math.pi, 0.0, -0.0])
        for a, b in [(np.angle(z[0]), np.angle(z[1])), np.meshgrid(edges, edges)]:
            delta = a - b
            np.testing.assert_array_equal(losses._wrap_phase(delta).view(np.int64),
                                          mod_wrap(delta).view(np.int64))


class TestErrorAmpPhase:
    def test_l2_amplitude_term_is_temporal_mse(self, rng):
        x, x_hat = rng.normal(size=64), rng.normal(size=64)
        ev = freq_error_amp_phase(x, x_hat, "l2")
        mse = temporal_l2(x, x_hat).value
        assert abs(ev.parts["error_amplitude"].value - mse) < 1e-9 * mse
        np.testing.assert_allclose(ev.parts["error_amplitude"].grad_wrt_prediction,
                                   -2.0 * (x - x_hat), atol=1e-12)

    def test_zero_error_convention(self, rng):
        x = rng.normal(size=16)
        ev = freq_error_amp_phase(x, x.copy(), "l1")
        assert ev.value == 0.0
        np.testing.assert_array_equal(ev.grad_wrt_prediction, 0.0)

    def test_l1_whitener_unit_spectrum(self, rng):
        x, x_hat = rng.normal(size=32), rng.normal(size=32)
        grad = freq_error_amp_phase(x, x_hat, "l1").parts["error_amplitude"].grad_wrt_prediction
        moduli = np.abs(dft_forward(grad))
        np.testing.assert_allclose(moduli, 1.0, atol=1e-9)


    def test_l1_amplitude_keeps_a_bin_below_eps_and_phase_drops_it(self, rng):
        # one error bin with 0 < |e_k| < eps: the amplitude part's gradient spectrum stays
        # unit-modulus there, and the phase part neither counts nor moves that bin
        L, k = 32, 5
        spectrum = dft_forward(rng.normal(size=L))
        spectrum[k] = 1e-10 * np.exp(0.7j)
        spectrum[L - k] = np.conj(spectrum[k])
        x, x_hat = dft_inverse(spectrum).real, np.zeros(L)
        err_amp = np.abs(dft_forward(x - x_hat))
        assert 0.0 < err_amp[k] < 1e-8
        ev = freq_error_amp_phase(x, x_hat, "l1", eps=1e-8)
        amp_moduli = np.abs(dft_forward(ev.parts["error_amplitude"].grad_wrt_prediction))
        np.testing.assert_allclose(amp_moduli, 1.0, atol=1e-9)
        phase_moduli = np.abs(dft_forward(ev.parts["error_phase"].grad_wrt_prediction))
        assert phase_moduli[k] < 1e-12 and phase_moduli[L - k] < 1e-12
        # the real DC and Nyquist bins have a locally constant phase
        assert np.all(np.delete(phase_moduli, [0, k, L // 2, L - k]) > 1e-6)
        eps_free = freq_error_amp_phase(x, x_hat, "l1", eps=1e-12).parts["error_phase"]
        kth = np.abs(np.angle(transforms._rdft_analysis(x - x_hat)[k]))
        assert ev.parts["error_phase"].value == pytest.approx(eps_free.value - 2.0 * kth,
                                                              rel=1e-12)


class TestPenaltyRule:
    """`_penalty_grad` keeps the kernel's gradients bit for bit on the closed forms."""

    @staticmethod
    def closed_form(d, w, norm):
        if norm == "l2":
            return -2.0 * w * d
        if np.iscomplexobj(d):
            return -w * (np.sign(d.real) + 1j * np.sign(d.imag))
        return -w * np.sign(d)

    @pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "per_row"])
    @pytest.mark.parametrize("transform", ["dft", "dwt", "identity"])
    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_gradient_bits_match_the_closed_forms(self, norm, transform, per_row, rng):
        L = 16
        x, x_hat = rng.normal(size=(3, L)), rng.normal(size=(3, L))
        x_hat[0] = x[0]  # a zero residual: sgn(0) = 0 and signed zeros
        w = rng.uniform(0.2, 2.0, size=(3, L)) if per_row else 1.0
        ev = losses._coefficient_loss(x, x_hat, w, norm, transform, "db2", 1)
        r = x - x_hat
        if transform == "dft":
            mirror = transforms._rdft_bins(L)[1]
            w_half = 0.5 * (w[..., :mirror.size] + w[..., mirror]) if per_row else w
            want = transforms._rdft_synthesis(
                self.closed_form(transforms._rdft_analysis(r), w_half, norm), L)
        elif transform == "dwt":
            want = transforms._dwt_synthesis(
                self.closed_form(transforms._dwt_analysis(r, "db2", 1), w, norm), "db2", 1)
        else:
            want = self.closed_form(r, w, norm)
        np.testing.assert_array_equal(ev.grad_wrt_prediction.view(np.int64),
                                      want.view(np.int64))

    @pytest.mark.parametrize("loss", [
        freq_amp_phase, freq_error_amp_phase,
        lambda x, x_hat, norm: whitened_loss(x, x_hat, np.ones(x.shape[-1]), norm),
    ], ids=["amp_phase", "error_amp_phase", "whitened"])
    @pytest.mark.parametrize("norm", ["l3", "L1"])
    def test_unknown_norm_rejected_with_one_message(self, loss, norm, rng):
        x, x_hat = rng.normal(size=8), rng.normal(size=8)
        with pytest.raises(ValueError, match=f"^norm must be 'l1' or 'l2', got '{norm}'$"):
            loss(x, x_hat, norm)


class TestHarmonized:
    @pytest.mark.parametrize("norm,transform,harmonized,plain", [
        ("l2", "identity", harmonized_l2, temporal_l2),
        ("l1", "identity", harmonized_l1, temporal_l1),
        ("l2", "dft", harmonized_l2, freq_real_imag_l2),
        ("l1", "dft", harmonized_l1, freq_real_imag_l1),
    ], ids=["temporal_l2", "temporal_l1", "freq_real_imag_l2", "freq_real_imag_l1"])
    def test_gamma_zero_is_plain_l2(self, norm, transform, harmonized, plain, rng):
        # gamma = 0 makes every weight exactly 1: the same kernel call, bit for bit
        x, x_hat = rng.normal(size=32), rng.normal(size=(3, 32))
        cfg = HarmonizedConfig(norm=norm, gamma=0.0, transform=transform)
        ema = EmaMagnitudes(f_bar=rng.uniform(0.1, 2.0, size=32), beta=0.3)
        ev, ref = harmonized(x, x_hat, ema, cfg), plain(x, x_hat)
        np.testing.assert_array_equal(ev.value, ref.value)
        np.testing.assert_array_equal(ev.grad_wrt_prediction, ref.grad_wrt_prediction)

    def test_flat_profile_scales_mse(self, rng):
        # constant magnitude profile: loss = (1 + gamma/(C+eps)) * MSE
        cfg = HarmonizedConfig(norm="l2", gamma=0.5, eps=1e-8, transform="dft")
        C = 1.7
        ema = EmaMagnitudes(f_bar=np.full(16, C), beta=0.3)
        w = 1.0 + cfg.gamma / (C + cfg.eps)
        for _ in range(10):
            x, x_hat = rng.normal(size=16), rng.normal(size=16)
            ev = harmonized_l2(x, x_hat, ema, cfg)
            assert ev.value / temporal_l2(x, x_hat).value == pytest.approx(w, rel=1e-9)

    def test_unique_minimum_and_zero_gradient(self, rng):
        x = rng.normal(size=16)
        cfg = HarmonizedConfig(norm="l2", gamma=0.5, transform="dft")
        ema = EmaMagnitudes(f_bar=rng.uniform(0.1, 1.0, size=16), beta=0.3)
        ev = harmonized_l2(x, x.copy(), ema, cfg)
        assert ev.value == 0.0
        np.testing.assert_allclose(ev.grad_wrt_prediction, 0.0, atol=1e-12)
        perturbed = harmonized_l2(x, x + 1e-3 * rng.normal(size=16), ema, cfg)
        assert perturbed.value > 0.0

    def test_l1_gamma_zero_matches_unweighted(self, rng):
        x, x_hat = rng.normal(size=16), rng.normal(size=16)
        cfg = HarmonizedConfig(norm="l1", gamma=0.0, transform="dft")
        ema = EmaMagnitudes(f_bar=rng.uniform(0.1, 1.0, size=16), beta=0.3)
        assert harmonized_l1(x, x_hat, ema, cfg).value == pytest.approx(
            freq_real_imag_l1(x, x_hat).value, rel=1e-12)

    def test_l1_zero_profile_is_unweighted(self, rng):
        x, x_hat = rng.normal(size=16), rng.normal(size=16)
        cfg = HarmonizedConfig(norm="l1", gamma=0.5, transform="dft")
        ema = EmaMagnitudes.zeros(16, beta=0.3)
        assert harmonized_l1(x, x_hat, ema, cfg).value == pytest.approx(
            freq_real_imag_l1(x, x_hat).value, rel=1e-12)

    def test_weight_regimes(self):
        # strong bins: l2 weight -> 1 within gamma/f_bar; weak bins: ~ gamma/(f_bar+eps)
        gamma, eps = 0.5, 1e-8
        strong, weak = 1000.0, 1e-6
        w_strong = 1.0 + gamma / (strong + eps)
        assert abs(w_strong - 1.0) <= gamma / strong
        w_weak = 1.0 + gamma / (weak + eps)
        assert w_weak == pytest.approx(gamma / (weak + eps), rel=1e-3)

    def test_norm_config_mismatch(self, rng):
        x = rng.normal(size=8)
        cfg = HarmonizedConfig(norm="l1", gamma=0.5)
        ema = EmaMagnitudes.zeros(8, beta=0.3)
        with pytest.raises(ValueError, match="norm"):
            harmonized_l2(x, x, ema, cfg)

    def test_ema_length_mismatch(self, rng):
        x = rng.normal(size=8)
        cfg = HarmonizedConfig(norm="l2", gamma=0.5)
        ema = EmaMagnitudes.zeros(4, beta=0.3)
        with pytest.raises(ValueError, match="mismatch"):
            harmonized_l2(x, x, ema, cfg)


class TestWhitened:
    def test_unit_profile_is_plain_coefficient_mse(self, rng):
        x, x_hat = rng.normal(size=16), rng.normal(size=16)
        ev = whitened_loss(x, x_hat, np.ones(16), "l2")
        assert ev.value == pytest.approx(temporal_l2(x, x_hat).value, rel=1e-12)

    def test_halving_magnitude_quadruples_weight(self, rng):
        x, x_hat = rng.normal(size=16), rng.normal(size=16)
        base = np.full(16, 2.0)
        v1 = whitened_loss(x, x_hat, base, "l2").value
        v2 = whitened_loss(x, x_hat, base / 2.0, "l2").value
        assert v2 == pytest.approx(4.0 * v1, rel=1e-12)

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError, match="length mismatch: weights of shape"):
            whitened_loss(rng.normal(size=8), rng.normal(size=8), np.ones(4), "l1")

    def test_zero_magnitude_rejected(self, rng):
        x = rng.normal(size=8)
        with pytest.raises(ValueError, match="positive"):
            whitened_loss(x, x, np.zeros(8), "l2")

    def test_tiny_magnitude_weight_explosion(self, rng):
        # documented pathology: near-zero bins dominate the value
        x, x_hat = rng.normal(size=16), rng.normal(size=16)
        f_bar = np.full(16, 1.0)
        f_bar[3] = 1e-6
        v = whitened_loss(x, x_hat, f_bar, "l2").value
        assert v > 1e6  # single tiny bin dominates


class TestHarmonizedConfig:
    @pytest.mark.parametrize("key,bad", [("transform", "fft"), ("gamma", -1.0),
                                         ("gamma", math.nan), ("eps", 0.0), ("eps", math.inf),
                                         ("wavelet", "db4"), ("levels", 0), ("norm", "l3")])
    def test_bad_value_rejected_by_name(self, key, bad):
        with pytest.raises(ValueError, match=key):
            HarmonizedConfig(**{key: bad})


class TestEma:
    def test_single_update(self):
        ema = update_ema(EmaMagnitudes.zeros(1, beta=0.3), np.array([1.0]))
        assert ema.f_bar[0] == pytest.approx(0.7, abs=1e-15)
        assert ema.epoch == 1

    def test_geometric_convergence(self):
        m = np.array([2.0])
        ema = EmaMagnitudes.zeros(1, beta=0.3)
        for e in range(1, 11):
            ema = update_ema(ema, m)
            expected = 2.0 * (1.0 - 0.3**e)  # closed-form geometric series
            assert ema.f_bar[0] == pytest.approx(expected, rel=1e-12)

    def test_beta_zero_copies_target(self):
        ema = update_ema(EmaMagnitudes.zeros(2, beta=0.0), np.array([3.0, 4.0]))
        np.testing.assert_array_equal(ema.f_bar, [3.0, 4.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            EmaMagnitudes(f_bar=np.array([-1.0]), beta=0.3)
        with pytest.raises(ValueError):
            EmaMagnitudes.zeros(2, beta=1.0)
        with pytest.raises(ValueError, match="mismatch"):
            update_ema(EmaMagnitudes.zeros(2, beta=0.3), np.ones(3))


class TestGradients:
    """Spot checks; the full 100-instance sweep runs in the acceptance suite."""

    @pytest.mark.parametrize("case", gradcheck.LOSS_CASES, ids=lambda c: c.name)
    def test_case_matches_finite_differences(self, case):
        reports = gradcheck.run_gradient_suite(lengths=(8, 32), instances=6, seed=3,
                                               names=(case.name,))
        assert reports[0].passed, f"{case.name}: {reports[0].max_rel_err:.3e}"


class TestBatchContract:
    """A (B, L) call is B 1-D calls: per-row values, per-row gradients."""

    @staticmethod
    def assert_rows_match(batched, rows):
        ref = np.asarray(rows)
        assert np.shape(batched) == ref.shape
        assert np.max(gradcheck.relative_error(batched, ref)) <= 1e-12

    @pytest.mark.parametrize("case", gradcheck.LOSS_CASES, ids=lambda c: c.name)
    @given(B=st.integers(1, 5), L=st.sampled_from([8, 16, 32]),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_rows_equal_single_calls(self, case, B, L, seed):
        rng = np.random.default_rng(seed)
        pairs = [case.make_pair(rng, L) for _ in range(B)]
        loss = case.make_loss(rng, L)
        X = np.stack([p[0] for p in pairs])
        X_hat = np.stack([p[1] for p in pairs])
        ev = loss(X, X_hat)
        singles = [loss(x, x_hat) for x, x_hat in pairs]
        self.assert_rows_match(ev.value, [s.value for s in singles])
        self.assert_rows_match(ev.grad_wrt_prediction,
                               [s.grad_wrt_prediction for s in singles])
        assert ev.parts.keys() == singles[0].parts.keys()
        for name, part in ev.parts.items():
            self.assert_rows_match(part.value, [s.parts[name].value for s in singles])
            self.assert_rows_match(part.grad_wrt_prediction,
                                   [s.parts[name].grad_wrt_prediction for s in singles])

    def test_single_series_value_is_a_float(self, rng):
        x, x_hat = rng.normal(size=8), rng.normal(size=8)
        assert isinstance(temporal_l2(x, x_hat).value, float)
        assert temporal_l2(x[None], x_hat[None]).value.shape == (1,)


def _weighted(name: str, transform: str):
    """(x, x_hat, f_bar) -> LossEval for a weighted loss over one transform."""
    norm = name[-2:]
    if name.startswith("harmonized"):
        loss = harmonized_l1 if norm == "l1" else harmonized_l2
        cfg = HarmonizedConfig(norm=norm, transform=transform, wavelet="db2")
        return lambda x, x_hat, f_bar: loss(x, x_hat, EmaMagnitudes(f_bar=f_bar, beta=0.3), cfg)
    assert transform == "dft"  # whitening runs over the DFT only
    return lambda x, x_hat, f_bar: whitened_loss(x, x_hat, f_bar, norm)


class TestPerRowWeights:
    """Weights of shape (n, L) or (n, 1, L) score each row with its own weights."""

    # (name, transform): the harmonized losses over every transform, whitening over the DFT
    CASES = ([(name, transform) for name in ["harmonized_l1", "harmonized_l2"]
              for transform in ["dft", "dwt", "identity"]]
             + [("whitened_l1", "dft"), ("whitened_l2", "dft")])

    @pytest.mark.parametrize("name,transform", CASES)
    @given(n=st.integers(1, 4), L=st.sampled_from([8, 16, 32]), probes=st.sampled_from([0, 3]),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_rows_equal_single_calls(self, name, transform, n, L, probes, seed):
        rng = np.random.default_rng(seed)
        loss = _weighted(name, transform)
        f_bar = rng.uniform(0.2, 2.0, size=(n, L))
        if probes:  # (n, 1, L) targets and weights against (n, probes, L) predictions
            x, x_hat = rng.normal(size=(n, 1, L)), rng.normal(size=(n, probes, L))
            w = f_bar[:, None]
        else:
            x, x_hat, w = rng.normal(size=(n, L)), rng.normal(size=(n, L)), f_bar
        ev = loss(x, x_hat, w)
        assert np.shape(ev.value) == x_hat.shape[:-1]
        assert ev.grad_wrt_prediction.shape == x_hat.shape
        for r in range(n):
            row = loss(x[r], x_hat[r], f_bar[r])
            for got, want in [(ev.value[r], row.value),
                              (ev.grad_wrt_prediction[r], row.grad_wrt_prediction)]:
                if transform == "dwt":  # a GEMM whose rounding depends on the row count
                    assert np.max(gradcheck.relative_error(got, want)) <= 1e-12
                else:
                    np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name,transform", CASES)
    @pytest.mark.parametrize("shape", [(3, 4), (3, 1, 9), (3, 1, 1)])
    def test_weights_of_another_length_rejected(self, name, transform, shape, rng):
        f_bar = rng.uniform(0.2, 2.0, size=shape)
        with pytest.raises(ValueError, match="length mismatch"):
            _weighted(name, transform)(rng.normal(size=(3, 1, 8)), rng.normal(size=(3, 2, 8)),
                                       f_bar)


def test_ema_keeps_caller_array_writable():
    f_bar = np.ones(4)
    ema = EmaMagnitudes(f_bar=f_bar, beta=0.3)
    f_bar[0] = 2.0
    assert ema.f_bar[0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        ema.f_bar[0] = 3.0


class TestBroadcastTarget:
    """One target against a stack of predictions equals the explicitly broadcast call."""

    @pytest.mark.parametrize("case", gradcheck.LOSS_CASES, ids=lambda c: c.name)
    @given(B=st.integers(1, 6), L=st.sampled_from([8, 16, 32]),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_matches_broadcast_call(self, case, B, L, seed):
        rng = np.random.default_rng(seed)
        x, x_hat = case.make_pair(rng, L)
        loss = case.make_loss(rng, L)
        stack = x_hat + 0.01 * rng.normal(size=(B, L))
        ev = loss(x, stack)
        ref = loss(np.broadcast_to(x, stack.shape), stack)
        for got, want in [(ev, ref)] + [(ev.parts[k], ref.parts[k]) for k in ref.parts]:
            assert np.shape(got.value) == (B,)
            assert got.grad_wrt_prediction.shape == (B, L)
            assert gradcheck.relative_error(got.value, want.value) <= 1e-12
            assert np.max(gradcheck.relative_error(got.grad_wrt_prediction,
                                                   want.grad_wrt_prediction)) <= 1e-12

    @pytest.mark.parametrize("case", gradcheck.LOSS_CASES, ids=lambda c: c.name)
    @pytest.mark.parametrize("target_shape, pred_shape",
                             [((3, 8), (8,)), ((8,), (3, 9)), ((2, 8), (3, 8)), ((1, 8), (8,))])
    def test_non_broadcasting_target_rejected(self, case, target_shape, pred_shape, rng):
        loss = case.make_loss(rng, 8)
        with pytest.raises(ValueError, match="length mismatch"):
            loss(rng.normal(size=target_shape), rng.normal(size=pred_shape))


_FLAT = EmaMagnitudes(f_bar=np.linspace(0.1, 2.0, 16), beta=0.3)


@pytest.mark.parametrize("loss", [
    freq_real_imag_l1,
    freq_real_imag_l2,
    lambda x, x_hat: harmonized_l1(x, x_hat, _FLAT, HarmonizedConfig(norm="l1")),
    lambda x, x_hat: harmonized_l2(x, x_hat, _FLAT, HarmonizedConfig(norm="l2")),
    lambda x, x_hat: whitened_loss(x, x_hat, _FLAT.f_bar, "l1"),
], ids=["freq_real_imag_l1", "freq_real_imag_l2", "harmonized_l1", "harmonized_l2", "whitened"])
def test_linear_losses_transform_the_residual_once(loss, monkeypatch, rng):
    """One forward transform, full or half spectrum, of the residual per call."""
    shapes = []

    def counting(fn):
        def wrapped(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.fft, "fft", counting(np.fft.fft))
    monkeypatch.setattr(transforms, "_rdft_analysis", counting(transforms._rdft_analysis))
    ev = loss(rng.normal(size=16), rng.normal(size=(3, 16)))
    ev.grad_wrt_prediction
    assert shapes == [(3, 16)]


class TestLazyGradient:
    @pytest.mark.parametrize("case", gradcheck.LOSS_CASES, ids=lambda c: c.name)
    def test_gradient_is_computed_once(self, case, rng):
        x, x_hat = case.make_pair(rng, 16)
        ev = case.make_loss(rng, 16)(x, x_hat)
        first = ev.grad_wrt_prediction
        assert ev.grad_wrt_prediction is first

    @pytest.mark.parametrize("loss", [freq_amp_phase, freq_error_amp_phase])
    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_part_gradients_sum_to_total(self, loss, norm, rng):
        x, x_hat = rng.normal(size=(3, 16)), rng.normal(size=(3, 16))
        ev = loss(x, x_hat, norm)
        first, second = ev.parts.values()
        np.testing.assert_array_equal(ev.value, first.value + second.value)
        np.testing.assert_array_equal(ev.grad_wrt_prediction,
                                      first.grad_wrt_prediction + second.grad_wrt_prediction)

    @pytest.mark.parametrize("case", gradcheck.LOSS_CASES, ids=lambda c: c.name)
    def test_probe_stack_runs_no_pullback(self, case, monkeypatch):
        """One suite instance pulls back as often as its analytic call alone."""
        L = 8
        seen = []

        def counting(fn):
            # the shape of the pulled-back signal: a half spectrum goes in, L samples out
            def wrapped(a, *args, **kwargs):
                out = fn(a, *args, **kwargs)
                seen.append(np.shape(out))
                return out
            return wrapped

        def record(fn):
            seen.clear()
            fn()
            return list(seen)

        def analytic_only():
            # the suite's one-instance block draw and its analytic call on the (1, L) block
            rng = make_rng(0)
            x, x_hat = case.make_pair(rng, L, (1,))
            case.loss(x, x_hat, *case.draw(rng, L, (1,))).grad_wrt_prediction

        monkeypatch.setattr(np.fft, "ifft", counting(np.fft.ifft))
        monkeypatch.setattr(transforms, "_rdft_synthesis", counting(transforms._rdft_synthesis))
        monkeypatch.setattr(transforms, "_dwt_synthesis", counting(transforms._dwt_synthesis))
        suite = record(lambda: gradcheck.run_gradient_suite(
            lengths=(L,), instances=1, seed=0, names=(case.name,)))
        assert suite == record(analytic_only)
        assert all(shape in ((L,), (1, L)) for shape in suite)
        pairs_only = record(lambda: case.make_pair(make_rng(0), L, (1,)))
        temporal = case.name in ("temporal_l2", "temporal_l1", "harmonized_l1_identity")
        assert len(suite) == len(pairs_only) + (0 if temporal else 1 + ("phase" in case.name))


def _full_spectrum_reference(name: str, x: np.ndarray, x_hat: np.ndarray,
                             f_bar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value per row and gradient of a DFT loss summed over all L bins of np.fft.fft."""
    norm = name[-2:]
    pen = np.square if norm == "l2" else np.abs
    dpen = (lambda r: 2.0 * r) if norm == "l2" else np.sign

    def spectrum(a):
        # the DC and Nyquist bins of a real signal are real, and their phase is locally
        # constant; np.fft.fft leaves a round-off imaginary part there, which a phase
        # gradient would divide by the squared magnitude of the bin
        c = np.fft.fft(a, norm="ortho", axis=-1)
        real_bins = [0, a.shape[-1] // 2] if a.shape[-1] % 2 == 0 else [0]
        c[..., real_bins] = c[..., real_bins].real
        return c

    def pullback(g):
        return np.fft.ifft(g, norm="ortho", axis=-1).real

    def polar(c):
        amp = np.abs(c)
        return amp, np.where(amp > 0.0, np.angle(c), 0.0)

    if name.startswith("amp_phase"):
        (amp, phase), (amp_hat, phase_hat) = polar(spectrum(x)), polar(spectrum(x_hat))
        alive = amp_hat >= 1e-8
        gap = np.mod(phase - phase_hat + math.pi, 2.0 * math.pi) - math.pi
        gap = np.where(alive, np.where(gap == -math.pi, math.pi, gap), 0.0)
        inv_amp = np.where(alive, 1.0 / np.where(alive, amp_hat, 1.0), 0.0)
        value = np.sum(pen(amp - amp_hat) + pen(gap), axis=-1)
        grad = pullback(-dpen(amp - amp_hat) * np.exp(1j * phase_hat)
                        - dpen(gap) * inv_amp * 1j * np.exp(1j * phase_hat))
        return value, grad
    if name.startswith("error_amp_phase"):
        fe = spectrum(x - x_hat)
        amp, phase = polar(fe)
        alive = amp >= 1e-8
        amp_grad = 2.0 * fe if norm == "l2" else np.where(amp > 0.0, np.exp(1j * phase), 0.0)
        phase = np.where(alive, phase, 0.0)
        inv_amp2 = np.where(alive, 1.0 / np.where(alive, amp**2, 1.0), 0.0)
        value = np.sum(pen(amp) + pen(phase), axis=-1)
        grad = -pullback(amp_grad + dpen(phase) * inv_amp2 * 1j * fe)
        return value, grad
    weights = {"harmonized_l1": 1.0 + 0.5 * f_bar, "harmonized_l2": 1.0 + 0.5 / (f_bar + 1e-8),
               "whitened_l1": 1.0 / f_bar, "whitened_l2": 1.0 / f_bar**2}.get(name, 1.0)
    d = spectrum(x - x_hat)
    value = np.sum(weights * (pen(d.real) + pen(d.imag)), axis=-1)
    return value, pullback(-weights * (dpen(d.real) + 1j * dpen(d.imag)))


_DFT_LOSSES = {
    "freq_real_imag_l1": lambda x, xh, f_bar: freq_real_imag_l1(x, xh),
    "freq_real_imag_l2": lambda x, xh, f_bar: freq_real_imag_l2(x, xh),
    "amp_phase_l1": lambda x, xh, f_bar: freq_amp_phase(x, xh, "l1"),
    "amp_phase_l2": lambda x, xh, f_bar: freq_amp_phase(x, xh, "l2"),
    "error_amp_phase_l1": lambda x, xh, f_bar: freq_error_amp_phase(x, xh, "l1"),
    "error_amp_phase_l2": lambda x, xh, f_bar: freq_error_amp_phase(x, xh, "l2"),
    "harmonized_l1": lambda x, xh, f_bar: harmonized_l1(
        x, xh, EmaMagnitudes(f_bar=f_bar, beta=0.3), HarmonizedConfig(norm="l1", gamma=0.5)),
    "harmonized_l2": lambda x, xh, f_bar: harmonized_l2(
        x, xh, EmaMagnitudes(f_bar=f_bar, beta=0.3), HarmonizedConfig(norm="l2", gamma=0.5)),
    "whitened_l1": lambda x, xh, f_bar: whitened_loss(x, xh, f_bar, "l1"),
    "whitened_l2": lambda x, xh, f_bar: whitened_loss(x, xh, f_bar, "l2"),
}


@pytest.mark.parametrize("name", sorted(_DFT_LOSSES))
@given(dft_cases())
@example(((), 1, 0))
@example(((3,), 2, 0))
@example(((2, 3), 129, 1))
@example(((3,), 62, 4841))
@settings(max_examples=40, deadline=None)
def test_half_spectrum_losses_match_the_full_spectrum(name, case):
    """Half-spectrum sums with multiplicities and folded non-symmetric weights give the
    full-spectrum value and gradient."""
    batch, L, seed = case
    rng = np.random.default_rng(seed)
    x, x_hat = rng.normal(size=batch + (L,)), rng.normal(size=batch + (L,))
    f_bar = rng.uniform(0.2, 2.0, size=L)
    ev = _DFT_LOSSES[name](x, x_hat, f_bar)
    value, grad = _full_spectrum_reference(name, x, x_hat, f_bar)
    assert np.max(np.abs(ev.value - value)) <= 1e-12 * np.max(np.abs(value))
    assert np.max(np.abs(ev.grad_wrt_prediction - grad)) <= 1e-12 * np.max(np.abs(grad))

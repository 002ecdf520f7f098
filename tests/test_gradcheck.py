import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eobkit import gradcheck


def central_difference_loop(fn, x_hat, h_scale=1e-6):
    """Reference oracle: one 1-D loss call per probe, coordinate by coordinate."""
    h = h_scale * max(1.0, float(np.max(np.abs(x_hat))))
    grad = np.zeros_like(x_hat)
    for i in range(x_hat.size):
        up, down = x_hat.copy(), x_hat.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (fn(up) - fn(down)) / (2.0 * h)
    return grad


class TestCentralDifference:
    @pytest.mark.parametrize("case", gradcheck.LOSS_CASES, ids=lambda c: c.name)
    @given(L=st.sampled_from([8, 16, 32]), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_matches_per_coordinate_loop(self, case, L, seed):
        rng = np.random.default_rng(seed)
        x, x_hat = case.make_pair(rng, L)
        loss = case.make_loss(rng, L)
        batched = gradcheck.central_difference(lambda xh: loss(x, xh).value, x_hat)
        looped = central_difference_loop(lambda xh: loss(x, xh).value, x_hat)
        assert gradcheck.relative_error(batched, looped) < 1e-9

    def test_one_call_with_every_probe(self):
        x_hat = np.array([0.5, -2.0, 3.0])
        h = 1e-6 * 3.0
        seen = []

        def fn(probes):
            seen.append(probes.copy())
            return np.sum(probes**2, axis=-1)

        grad = gradcheck.central_difference(fn, x_hat)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], np.concatenate(
            [x_hat + h * np.eye(3), x_hat - h * np.eye(3)]))
        np.testing.assert_allclose(grad, 2.0 * x_hat, rtol=1e-9)


def test_suite_calls_each_loss_twice(monkeypatch):
    calls = []

    def counting(make_loss):
        def make(rng, L):
            fn = make_loss(rng, L)
            calls.append(0)
            index = len(calls) - 1

            def counted(x, x_hat):
                calls[index] += 1
                return fn(x, x_hat)
            return counted
        return make

    cases = tuple(dataclasses.replace(c, make_loss=counting(c.make_loss))
                  for c in gradcheck.LOSS_CASES)
    monkeypatch.setattr(gradcheck, "LOSS_CASES", cases)
    reports = gradcheck.run_gradient_suite(lengths=(8, 16), instances=3, seed=1)
    assert all(r.passed for r in reports)
    assert len(calls) == 3 * len(cases)
    assert calls == [2] * len(calls)


@pytest.mark.parametrize("L", [7, 8, 128])
class TestMarginConstructors:
    seeds = range(200)

    def test_hermitian_margin_spectrum(self, L):
        lo, hi = 0.2, 1.0
        free = np.arange(1, (L + 1) // 2)
        real = [0, L // 2] if L % 2 == 0 else [0]
        for seed in self.seeds:
            spec = gradcheck._hermitian_margin_spectrum(np.random.default_rng(seed), L, lo, hi)
            np.testing.assert_array_equal(spec[L - free], np.conj(spec[free]))
            for part in (spec[free].real, spec[free].imag, spec[real].real):
                assert np.all((np.abs(part) >= lo) & (np.abs(part) <= hi))
            np.testing.assert_array_equal(spec[real].imag, 0.0)
            assert np.max(np.abs(np.fft.ifft(spec, norm="ortho").imag)) < 1e-12

    def test_polar_margin_pair(self, L):
        tol = 1e-9
        free = np.arange(1, (L + 1) // 2)
        real = [0, L // 2] if L % 2 == 0 else [0]
        for seed in self.seeds:
            x, x_hat = gradcheck._polar_margin_pair(np.random.default_rng(seed), L)
            f, f_hat = np.fft.fft(x, norm="ortho"), np.fft.fft(x_hat, norm="ortho")
            amp_hat = np.abs(f_hat[free])
            amp_gap = np.abs(np.abs(f[free]) - amp_hat)
            phase_gap = np.abs(np.angle(f[free] * np.conj(f_hat[free])))
            assert np.all((amp_hat > 0.5 - tol) & (amp_hat < 1.5 + tol))
            assert np.all((amp_gap > 0.15 - tol) & (amp_gap < 0.3 + tol))
            assert np.all((phase_gap > 0.15 - tol) & (phase_gap < 0.5 + tol))
            # real bins: positive real values, amplitude-only gap
            assert np.all((f_hat[real].real > 0.5 - tol) & (f_hat[real].real < 1.5 + tol))
            real_gap = f[real].real - f_hat[real].real
            assert np.all((real_gap > 0.15 - tol) & (real_gap < 0.3 + tol))
            assert np.max(np.abs(np.concatenate([f[real].imag, f_hat[real].imag]))) < tol

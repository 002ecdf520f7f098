import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eobkit import gradcheck, losses
from eobkit.processes import make_rng


def central_difference_loop(fn, x_hat):
    """Reference oracle: one 1-D loss call per probe, coordinate by coordinate."""
    h = gradcheck.H_SCALE * max(1.0, float(np.max(np.abs(x_hat))))
    grad = np.zeros_like(x_hat)
    for i in range(x_hat.size):
        up, down = x_hat.copy(), x_hat.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (fn(up) - fn(down)) / (2.0 * h)
    return grad


class TestCentralDifference:
    @pytest.mark.parametrize("case", [c for c in gradcheck.LOSS_CASES
                                      if c.name != "harmonized_l2_dwt"], ids=lambda c: c.name)
    @given(n=st.integers(1, 5), L=st.sampled_from([8, 15, 32]),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_rows_equal_one_dimensional_calls(self, case, n, L, seed):
        rng = np.random.default_rng(seed)
        x, x_hat = case.make_pair(rng, L, (n,))
        mags = case.draw(rng, L, (n,))
        x_hat = x_hat * rng.uniform(0.5, 3.0, size=(n, 1))  # rows with different steps
        batched = gradcheck.central_difference(
            lambda p: case.loss(x[:, None], p, *(m[:, None] for m in mags)).value, x_hat)
        assert batched.shape == (n, L)
        for r in range(n):
            row = gradcheck.central_difference(
                lambda p: case.loss(x[r], p, *(m[r] for m in mags)).value, x_hat[r])
            np.testing.assert_array_equal(batched[r], row)

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


def reference_suite(lengths, instances, seed):
    """Reference suite: the suite's block draws, then one instance at a time, each with its
    own analytic call and its own finite-difference call on its (2L, L) probe stack; worst
    error per case name."""
    rng = make_rng(seed)
    per_length, extra = divmod(instances, len(lengths))
    worst = {}
    for case in gradcheck.LOSS_CASES:
        worst[case.name] = 0.0
        for i, L in enumerate(lengths):
            n = per_length + (i < extra)
            xs, x_hats = case.make_pair(rng, L, (n,))
            mags = case.draw(rng, L, (n,))
            for x, x_hat, *mag in zip(xs, x_hats, *mags):
                analytic = case.loss(x, x_hat, *mag).grad_wrt_prediction
                fd = gradcheck.central_difference(lambda xh: case.loss(x, xh, *mag).value,
                                                  x_hat)
                worst[case.name] = max(worst[case.name],
                                       float(gradcheck.relative_error(analytic, fd)))
    return worst


class TestBatchedSuite:
    @pytest.mark.parametrize("lengths,instances,seed", [((8, 32, 128), 7, 0),
                                                         ((8, 32, 128), 7, 1),
                                                         ((32,), 40, 2), ((8, 16), 5, 3)])
    def test_reports_equal_the_per_instance_loop(self, lengths, instances, seed):
        reports = gradcheck.run_gradient_suite(lengths=lengths, instances=instances, seed=seed)
        worst = reference_suite(lengths, instances, seed)
        assert [r.name for r in reports] == list(worst)
        for r in reports:
            assert r.passed and r.instances == instances
            if r.name == "harmonized_l2_dwt":
                # its DWT is a GEMM whose rounding depends on the row count
                assert r.max_rel_err == pytest.approx(worst[r.name], rel=1e-3)
            else:
                assert r.max_rel_err == worst[r.name], r.name

    def test_one_analytic_call_and_one_fd_call_per_block(self, monkeypatch):
        calls = []

        def counting(case):
            def loss(x, x_hat, *mags):
                calls.append((case.name, x_hat.shape))
                return case.loss(x, x_hat, *mags)
            return dataclasses.replace(case, loss=loss)

        monkeypatch.setattr(gradcheck, "LOSS_CASES",
                            tuple(counting(c) for c in gradcheck.LOSS_CASES))
        lengths, per_length = (8, 32, 128), 20
        reports = gradcheck.run_gradient_suite(lengths=lengths, instances=3 * per_length, seed=1)
        assert all(r.passed for r in reports)
        expected = []
        for case in gradcheck.LOSS_CASES:
            for L in lengths:
                block = max(1, gradcheck.PROBE_VALUES_PER_CALL // (2 * L * L))
                expected.append((case.name, (per_length, L)))
                expected += [(case.name, (min(block, per_length - start), 2 * L, L))
                             for start in range(0, per_length, block)]
        assert calls == expected
        # 1 + ceil(20 / 256) + 1 + ceil(20 / 16) + 1 + 20 calls per case
        assert len(calls) == 26 * len(gradcheck.LOSS_CASES)
        assert max(np.prod(shape) for _, shape in calls) == gradcheck.PROBE_VALUES_PER_CALL


def nan_gradient(case: gradcheck.GradCase, L: int, row: int) -> gradcheck.GradCase:
    """The case with its analytic gradient NaN in one row of the (n, L) block at length L."""
    def loss(x, x_hat, *mags):
        out = case.loss(x, x_hat, *mags)
        if x_hat.ndim != 2 or x_hat.shape[-1] != L:
            return out
        grad = out.grad_wrt_prediction.copy()
        grad[row] = np.nan
        return losses.LossEval(value=out.value, _grad_fn=lambda: grad)
    return dataclasses.replace(case, loss=loss)


class TestNanGradient:
    """A NaN error wins the maximum wherever it falls, and fails its case."""

    # L = 128 scores each instance in its own block: rows 0 and 1 are its first and last
    @pytest.mark.parametrize("lengths,L,row", [((128,), 128, 0), ((128,), 128, 1),
                                               ((8, 32), 8, 0), ((8, 32), 32, 1)])
    def test_fails_its_case(self, lengths, L, row, monkeypatch):
        monkeypatch.setattr(gradcheck, "LOSS_CASES", tuple(
            nan_gradient(c, L, row) if c.name == "temporal_l2" else c for c in gradcheck.LOSS_CASES))
        nan_case, other = gradcheck.run_gradient_suite(
            lengths=lengths, instances=2 * len(lengths), names=("temporal_l2", "temporal_l1"))
        assert math.isnan(nan_case.max_rel_err) and not nan_case.passed
        assert nan_case.to_dict() == {"name": "temporal_l2", "tolerance": gradcheck.SMOOTH_TOL,
                                      "max_rel_err": None, "instances": 2 * len(lengths),
                                      "passed": False}
        assert other.passed


@pytest.mark.parametrize("L", [7, 8, 128])
class TestMarginConstructors:
    """Every row of a draw keeps its margins: 200 single draws, and 4 blocks of 50 rows."""

    draws = [((), seed) for seed in range(200)] + [((50,), seed) for seed in range(4)]

    def test_hermitian_margin_spectrum(self, L):
        lo, hi = 0.2, 1.0
        free = np.arange(1, (L + 1) // 2)
        real = [0, L // 2] if L % 2 == 0 else [0]
        for shape, seed in self.draws:
            spec = gradcheck._hermitian_margin_spectrum(np.random.default_rng(seed), L, lo, hi,
                                                        shape)
            assert spec.shape == shape + (L,)
            np.testing.assert_array_equal(spec[..., L - free], np.conj(spec[..., free]))
            for part in (spec[..., free].real, spec[..., free].imag, spec[..., real].real):
                assert np.all((np.abs(part) >= lo) & (np.abs(part) <= hi))
            np.testing.assert_array_equal(spec[..., real].imag, 0.0)
            assert np.max(np.abs(np.fft.ifft(spec, norm="ortho").imag)) < 1e-12

    def test_polar_margin_pair(self, L):
        tol = 1e-9
        free = np.arange(1, (L + 1) // 2)
        real = [0, L // 2] if L % 2 == 0 else [0]
        for shape, seed in self.draws:
            x, x_hat = gradcheck._polar_margin_pair(np.random.default_rng(seed), L, shape)
            assert x.shape == x_hat.shape == shape + (L,)
            f, f_hat = np.fft.fft(x, norm="ortho"), np.fft.fft(x_hat, norm="ortho")
            amp_hat = np.abs(f_hat[..., free])
            amp_gap = np.abs(np.abs(f[..., free]) - amp_hat)
            phase_gap = np.abs(np.angle(f[..., free] * np.conj(f_hat[..., free])))
            assert np.all((amp_hat > 0.5 - tol) & (amp_hat < 1.5 + tol))
            assert np.all((amp_gap > 0.15 - tol) & (amp_gap < 0.3 + tol))
            assert np.all((phase_gap > 0.15 - tol) & (phase_gap < 0.5 + tol))
            # real bins: positive real values, amplitude-only gap
            f_real, f_hat_real = f[..., real], f_hat[..., real]
            assert np.all((f_hat_real.real > 0.5 - tol) & (f_hat_real.real < 1.5 + tol))
            real_gap = f_real.real - f_hat_real.real
            assert np.all((real_gap > 0.15 - tol) & (real_gap < 0.3 + tol))
            assert np.max(np.abs(np.concatenate([f_real.imag, f_hat_real.imag]))) < tol


@pytest.mark.parametrize("L", [7, 8, 32, 128])
@pytest.mark.parametrize("case", gradcheck.LOSS_CASES, ids=lambda c: c.name)
def test_one_row_block_is_the_single_draw(case, L):
    """A (1,) block draws the same stream as a single instance, bit for bit."""
    for seed in range(3):
        single, block = np.random.default_rng(seed), np.random.default_rng(seed)
        want = case.make_pair(single, L) + case.draw(single, L)
        got = case.make_pair(block, L, (1,)) + case.draw(block, L, (1,))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == (1, L) and w.shape == (L,)
            assert g[0].tobytes() == w.tobytes()
        assert block.bit_generator.state == single.bit_generator.state


@pytest.mark.parametrize("names", [(), []])
def test_no_names_rejected(names):
    with pytest.raises(ValueError, match="names must name at least one loss case"):
        gradcheck.run_gradient_suite(names=names)


@pytest.mark.parametrize("names", ["temporal_l2", "x"])
def test_bare_string_names_rejected(names):
    with pytest.raises(ValueError, match=rf"^names must be a sequence of loss case names, "
                                         rf"not the string '{names}'$"):
        gradcheck.run_gradient_suite(names=names)

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eobkit import experiments, transforms
from eobkit.experiments import GridSpec, LossSpec, ModelSpec, TrainConfig, run_grid
from eobkit.losses import EmaMagnitudes, HarmonizedConfig, harmonized_l2
from eobkit.transforms import (WaveletCoeffs, dft_forward, dft_inverse, dwt_forward,
                               dwt_inverse, dwt_matrix, pad_edge_pow2, truncate_spectrum)


@pytest.mark.parametrize("make, fields", [
    (lambda a, b: WaveletCoeffs(a, 1, "haar"), ("coeffs",)),
], ids=["WaveletCoeffs"])
def test_constructor_keeps_caller_array_writable(make, fields):
    a, b = np.zeros(8), np.zeros(8)
    stored = make(a, b)
    a[0] = b[0] = 1.0
    for name in fields:
        field = getattr(stored, name)
        assert field[0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            field[0] = 2.0


class TestDft:
    def test_impulse(self):
        spec = dft_forward(np.array([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(spec.real, [0.5, 0.5, 0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(spec.imag, 0.0, atol=1e-15)

    def test_constant_dc_bin(self):
        c = 2.5
        spec = dft_forward(np.full((2, 16), c))
        np.testing.assert_allclose(spec[:, 0].real, c * 4.0, rtol=1e-12)
        np.testing.assert_allclose(spec[:, 1:], 0.0, atol=1e-12)

    def test_parseval(self, rng):
        x = rng.normal(size=(3, 128))
        spec = dft_forward(x)
        energy = np.sum(x**2, axis=-1)
        np.testing.assert_allclose(np.sum(np.abs(spec)**2, axis=-1), energy,
                                   rtol=1e-12, atol=0)

    def test_round_trip(self, rng):
        x = rng.normal(size=(2, 41))  # non power of two
        np.testing.assert_allclose(dft_inverse(dft_forward(x)), x, atol=1e-10)

    def test_inner_product_preserved(self, rng):
        x, y = rng.normal(size=64), rng.normal(size=64)
        assert np.vdot(dft_forward(x), dft_forward(y)).real == pytest.approx(
            float(np.dot(x, y)), abs=1e-9)

    @pytest.mark.parametrize("x", [np.empty(0), np.empty((3, 0)), np.float64(1.0)],
                             ids=["empty", "empty-rows", "scalar"])
    def test_no_last_axis_rejected(self, x):
        with pytest.raises(ValueError, match="positive length"):
            dft_forward(x)


class TestDwt:
    def test_haar_constant(self):
        w = dwt_forward(np.array([1.0, 1.0, 1.0, 1.0]), "haar", 1)
        blocks = w.blocks()
        np.testing.assert_allclose(blocks["a1"], [math.sqrt(2)] * 2, atol=1e-12)
        np.testing.assert_allclose(blocks["d1"], [0.0, 0.0], atol=1e-12)

    def test_haar_alternating(self):
        w = dwt_forward(np.array([1.0, -1.0]), "haar", 1)
        blocks = w.blocks()
        np.testing.assert_allclose(blocks["a1"], [0.0], atol=1e-12)
        np.testing.assert_allclose(blocks["d1"], [math.sqrt(2)], atol=1e-12)

    @pytest.mark.parametrize("wavelet", ["haar", "db2"])
    def test_round_trip(self, wavelet, rng):
        x = rng.normal(size=64)
        w = dwt_forward(x, wavelet, 3)
        np.testing.assert_allclose(dwt_inverse(w), x, atol=1e-10)

    @pytest.mark.parametrize("wavelet", ["haar", "db2"])
    def test_energy_preserved(self, wavelet, rng):
        x = rng.normal(size=32)
        w = dwt_forward(x, wavelet, 2)
        energy = float(np.sum(x**2))
        assert abs(w.energy() - energy) < 1e-9 * energy

    @pytest.mark.parametrize("wavelet", ["haar", "db2"])
    @pytest.mark.parametrize("length,levels", [(8, 1), (16, 2), (64, 3)])
    def test_matrix_orthogonality(self, wavelet, length, levels):
        W = dwt_matrix(length, wavelet, levels)
        err = np.max(np.abs(W.T @ W - np.eye(length)))
        assert err < 1e-10

    def test_layout_coarse_to_fine(self, rng):
        x = rng.normal(size=16)
        w = dwt_forward(x, "haar", 2)
        blocks = w.blocks()
        assert [k for k in blocks] == ["a2", "d2", "d1"]
        assert blocks["a2"].size == 4 and blocks["d2"].size == 4 and blocks["d1"].size == 8

    def test_indivisible_length_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            dwt_forward(np.ones(12), "haar", 3)

    def test_unknown_wavelet(self):
        with pytest.raises(ValueError, match="wavelet"):
            dwt_forward(np.ones(8), "db7", 1)


class TestBatchedDwt:
    @pytest.mark.parametrize("wavelet", ["haar", "db2"])
    @pytest.mark.parametrize("levels", [1, 2, 3])
    @pytest.mark.parametrize("batch", [(), (5,), (3, 4)])
    def test_rows_match_single_calls(self, wavelet, levels, batch, rng):
        X = rng.normal(size=batch + (32,))
        w = dwt_forward(X, wavelet, levels)
        assert w.coeffs.shape == X.shape and w.length == 32
        for i in np.ndindex(*batch):
            np.testing.assert_allclose(w.coeffs[i], dwt_forward(X[i], wavelet, levels).coeffs,
                                       rtol=0, atol=1e-12)
        np.testing.assert_allclose(dwt_inverse(w), X, rtol=0, atol=1e-10)
        np.testing.assert_allclose(w.energy(), np.sum(X**2, axis=-1), rtol=1e-12)
        assert all(block.shape[:-1] == batch for block in w.blocks().values())

    @pytest.mark.parametrize("wavelet", ["haar", "db2"])
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_filter_bank_rows_equal_single_calls_bitwise(self, wavelet, levels, rng):
        """Past the dense crossover, each row of a batch gets the arithmetic of its
        one-row call, forward and inverse (the dense product does not promise this)."""
        X = rng.normal(size=(64, 512))
        assert X.shape[-1] > transforms._DENSE_MAX_LENGTH
        w = dwt_forward(X, wavelet, levels)
        back = dwt_inverse(w)
        for i in range(X.shape[0]):
            row = dwt_forward(X[i], wavelet, levels)
            np.testing.assert_array_equal(w.coeffs[i], row.coeffs)
            np.testing.assert_array_equal(back[i], dwt_inverse(row))

    @pytest.mark.parametrize("wavelet", ["haar", "db2"])
    def test_adjoint_identity(self, wavelet, rng):
        x, c = rng.normal(size=(6, 64)), rng.normal(size=(6, 64))
        wx = dwt_forward(x, wavelet, 3).coeffs
        wtc = dwt_inverse(WaveletCoeffs(coeffs=c, levels=3, wavelet=wavelet))
        np.testing.assert_allclose(np.sum(wx * c, axis=-1), np.sum(x * wtc, axis=-1),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("wavelet", ["haar", "db2"])
    @pytest.mark.parametrize("length,levels", [(8, 1), (16, 2), (64, 3)])
    def test_matrix_matches_column_reference(self, wavelet, length, levels):
        reference = np.column_stack([dwt_forward(e, wavelet, levels).coeffs
                                     for e in np.eye(length)])
        np.testing.assert_allclose(dwt_matrix(length, wavelet, levels), reference,
                                   rtol=0, atol=1e-12)

    def test_indivisible_batched_length_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            dwt_forward(np.ones((4, 12)), "db2", 3)
        with pytest.raises(ValueError, match="divisible"):
            WaveletCoeffs(coeffs=np.ones((4, 12)), levels=3, wavelet="db2")

    def test_batched_input_still_validated(self):
        with pytest.raises(ValueError, match="wavelet"):
            dwt_forward(np.ones((2, 8)), "db7", 1)
        with pytest.raises(ValueError, match="levels"):
            dwt_forward(np.ones((2, 8)), "haar", 0)
        with pytest.raises(ValueError, match="positive length"):
            dwt_forward(np.float64(1.0), "haar", 1)
        with pytest.raises(ValueError, match="positive length"):
            dwt_forward(np.ones((3, 0)), "haar", 1)


class TestPadding:
    def test_pads_to_next_power_of_two(self):
        padded, n = pad_edge_pow2(np.array([1.0, 2.0, 3.0]))
        assert n == 3
        np.testing.assert_array_equal(padded, [1.0, 2.0, 3.0, 3.0])

    def test_noop_on_power_of_two(self):
        x = np.arange(8.0)
        padded, n = pad_edge_pow2(x)
        assert n == 8 and padded is x


class TestTruncation:
    def test_band_limited_exact(self, rng):
        spec = np.concatenate([rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8)),
                               np.zeros((2, 56))], axis=-1)
        kept, discarded = truncate_spectrum(spec, keep=8)
        np.testing.assert_array_equal(discarded, 0.0)
        np.testing.assert_array_equal(kept, spec)

    def test_keep_all_is_identity(self, rng):
        spec = dft_forward(rng.normal(size=32))
        kept, discarded = truncate_spectrum(spec, keep=32)
        assert discarded == 0.0
        np.testing.assert_array_equal(kept, spec)

    def test_white_noise_half_energy(self, rng):
        x = rng.normal(size=4096)
        spec = dft_forward(x)
        kept, discarded = truncate_spectrum(spec, keep=2048)
        # Parseval: the reconstruction error equals the discarded bins' energy
        assert discarded / np.sum(x**2) == pytest.approx(0.5, abs=0.05)
        assert np.sum(np.abs(kept - spec) ** 2) == pytest.approx(discarded, rel=1e-12)

    @pytest.mark.parametrize("keep", [0, 9])
    def test_keep_outside_the_bins_rejected(self, keep, rng):
        with pytest.raises(ValueError, match="keep"):
            truncate_spectrum(dft_forward(rng.normal(size=8)), keep=keep)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_dwt_round_trip_property(levels_pow, seed):
    length = 1 << (levels_pow + 2)
    x = np.random.default_rng(seed).normal(size=length)
    for wavelet in ("haar", "db2"):
        w = dwt_forward(x, wavelet, levels_pow)
        assert np.max(np.abs(dwt_inverse(w) - x)) < 1e-10


@st.composite
def dwt_cases(draw):
    levels = draw(st.integers(min_value=1, max_value=4))
    length = draw(st.integers(min_value=1, max_value=512 >> levels)) << levels
    return (draw(st.sampled_from(["haar", "db2"])), levels, length,
            draw(st.sampled_from([(), (3,), (2, 3)])),
            draw(st.integers(min_value=0, max_value=2**32 - 1)))


@given(dwt_cases())
@example(("db2", 4, 256, (3,), 0))
@example(("db2", 4, 272, (2, 3), 1))
@example(("haar", 1, 512, (), 2))
@settings(max_examples=40, deadline=None)
def test_dense_operator_matches_filter_bank(case):
    wavelet, levels, length, batch, seed = case
    rng = np.random.default_rng(seed)
    x, c = rng.normal(size=batch + (length,)), rng.normal(size=batch + (length,))
    op = transforms._dwt_operator(length, wavelet, levels)
    bank = transforms._filter_bank_forward(x, wavelet, levels)
    np.testing.assert_allclose(x @ op, bank, rtol=0, atol=1e-12 * np.max(np.abs(x)))
    np.testing.assert_allclose(dwt_forward(x, wavelet, levels).coeffs, bank,
                               rtol=0, atol=1e-12 * np.max(np.abs(x)))
    bank_inv = transforms._filter_bank_inverse(c, wavelet, levels)
    np.testing.assert_allclose(c @ op.T, bank_inv, rtol=0, atol=1e-12 * np.max(np.abs(c)))
    np.testing.assert_allclose(dwt_inverse(WaveletCoeffs(c, levels, wavelet)), bank_inv,
                               rtol=0, atol=1e-12 * np.max(np.abs(c)))


@pytest.mark.parametrize("length", [64, 512])
def test_mutating_results_leaves_later_calls_unchanged(length, rng):
    x = rng.normal(size=(2, length))
    first = dwt_forward(x, "db2", 3)
    expected, matrix = first.coeffs.copy(), dwt_matrix(length, "db2", 3)
    first.coeffs.flags.writeable = True
    first.coeffs[...] = 7.0
    dwt_inverse(first)[...] = 7.0
    dwt_matrix(length, "db2", 3)[...] = 7.0
    np.testing.assert_array_equal(dwt_forward(x, "db2", 3).coeffs, expected)
    np.testing.assert_array_equal(dwt_matrix(length, "db2", 3), matrix)
    np.testing.assert_allclose(dwt_inverse(WaveletCoeffs(expected, 3, "db2")), x,
                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("shape", [(32,), (3, 64), (2, 512)])
def test_forward_result_is_read_only_and_fresh(shape, rng):
    """dwt_forward wraps its result without the constructor's copy: the array is new,
    read-only, and the analysis of x."""
    x = rng.normal(size=shape)
    coeffs = dwt_forward(x, "db2", 2).coeffs
    assert not coeffs.flags.writeable
    assert not np.shares_memory(coeffs, x)
    np.testing.assert_allclose(coeffs, x @ dwt_matrix(shape[-1], "db2", 2).T,
                               rtol=0, atol=1e-12 * np.max(np.abs(x)))


@pytest.mark.parametrize("coeffs,levels", [
    (np.ones(8), 0), (np.float64(1.0), 1), (np.ones((3, 0)), 1),
], ids=["no-levels", "scalar", "empty-rows"])
def test_constructor_still_checks_shapes(coeffs, levels):
    """The public constructor keeps the checks that dwt_forward's wrap skips (the
    indivisible length is in TestBatchedDwt)."""
    with pytest.raises(ValueError, match="levels|positive length"):
        WaveletCoeffs(coeffs, levels, "haar")


def _loss_on_window(wavelet, levels, length):
    cfg = HarmonizedConfig(norm="l2", transform="dwt", wavelet=wavelet, levels=levels)
    x = np.ones(length)
    harmonized_l2(x, x, EmaMagnitudes.zeros(length, beta=0.3), cfg)


def _grid_at_horizon(wavelet, levels, length):
    loss = LossSpec(kind="harmonized", norm="l2", transform="dwt", wavelet=wavelet,
                    levels=levels)
    run_grid(GridSpec(horizons=(length,), history=16, series_length=800, replications=1),
             ModelSpec(kind="linear"), TrainConfig(loss=loss, check_gradients=False))


@pytest.mark.parametrize("entry", [
    lambda wavelet, levels, length: dwt_forward(np.ones(length), wavelet, levels),
    lambda wavelet, levels, length: WaveletCoeffs(np.ones(length), levels, wavelet),
    _loss_on_window, _grid_at_horizon,
], ids=["dwt_forward", "WaveletCoeffs", "HarmonizedConfig", "LossSpec"])
@pytest.mark.parametrize("wavelet,levels,length,field", [
    ("haar", 0, 8, "levels"), ("db4", 1, 8, "wavelet"), (["db2"], 1, 8, "wavelet"),
    ({"a": 1}, 1, 8, "wavelet"), ("db2", 3, 12, r"divisible by 2\^levels"),
], ids=["levels-0", "unknown-wavelet", "list-wavelet", "dict-wavelet", "indivisible"])
def test_one_rule_at_every_entry_point(entry, wavelet, levels, length, field, monkeypatch):
    """The DWT's rule rejects the same inputs wherever they enter, naming the field, and
    WaveletCoeffs checks its wavelet when built; a config meets the length at its first
    window (a loss call, or a grid's horizon)."""
    monkeypatch.setattr(experiments, "_run_cell_safe", lambda task: pytest.fail("cell ran"))
    with pytest.raises(ValueError, match=field):
        entry(wavelet, levels, length)


def test_long_series_build_no_operator(rng):
    transforms._dwt_operator.cache_clear()
    x = rng.normal(size=(2, 1024))
    np.testing.assert_allclose(dwt_inverse(dwt_forward(x, "db2", 3)), x, rtol=0, atol=1e-10)
    assert transforms._dwt_operator.cache_info().currsize == 0


@pytest.mark.parametrize("wavelet", ["haar", "db2"])
@pytest.mark.parametrize("length", [256, 512])
def test_matrix_orthogonal_on_both_paths(wavelet, length):
    W = dwt_matrix(length, wavelet, 4)
    assert np.max(np.abs(W.T @ W - np.eye(length))) < 1e-10


@st.composite
def dft_cases(draw):
    return (draw(st.sampled_from([(), (3,), (2, 3)])),
            draw(st.integers(min_value=1, max_value=130)),
            draw(st.integers(min_value=0, max_value=2**32 - 1)))


@given(dft_cases())
@example(((), 1, 0))
@example(((2, 3), 127, 1))
@settings(max_examples=60, deadline=None)
def test_dft_on_the_last_axis_property(case):
    batch, L, seed = case
    rng = np.random.default_rng(seed)
    x = rng.normal(size=batch + (L,))
    g = rng.normal(size=batch + (L,)) + 1j * rng.normal(size=batch + (L,))
    f = dft_forward(x)
    assert f.shape == x.shape
    rows, f_rows = x.reshape(-1, L), f.reshape(-1, L)
    for row, f_row in zip(rows, f_rows):
        np.testing.assert_array_equal(f_row, dft_forward(row))
    assert np.max(np.abs(dft_inverse(f) - x)) < 1e-10
    energy = np.sum(x**2, axis=-1)
    np.testing.assert_allclose(np.sum(np.abs(f) ** 2, axis=-1), energy, rtol=1e-12, atol=0)
    # dft_inverse is the adjoint of dft_forward on real inputs
    np.testing.assert_allclose(np.sum((np.conj(f) * g).real, axis=-1),
                               np.sum(x * dft_inverse(g), axis=-1),
                               rtol=0, atol=1e-12 * L * np.max(np.abs(g)) * np.max(np.abs(x)))
    keep = int(rng.integers(1, L + 1))
    kept, discarded = truncate_spectrum(f, keep)
    np.testing.assert_array_equal(kept[..., :keep], f[..., :keep])
    np.testing.assert_array_equal(kept[..., keep:], 0.0)
    np.testing.assert_allclose(discarded, np.sum(np.abs(f[..., keep:]) ** 2, axis=-1),
                               rtol=1e-12, atol=0)
    # a spectrum supported on the kept bins loses nothing
    band = np.where(np.arange(L) < keep, g, 0.0)
    kept, discarded = truncate_spectrum(band, keep)
    np.testing.assert_array_equal(kept, band)
    np.testing.assert_array_equal(discarded, 0.0)


@given(dft_cases())
@example(((), 1, 0))
@example(((3,), 2, 0))
@example(((2, 3), 129, 1))
@settings(max_examples=60, deadline=None)
def test_half_spectrum_pair_is_adjoint_under_multiplicities(case):
    """Re<rfft(x), m * g> = <x, irfft(g)> for any complex half spectrum g."""
    batch, L, seed = case
    rng = np.random.default_rng(seed)
    H = L // 2 + 1
    x = rng.normal(size=batch + (L,))
    g = rng.normal(size=batch + (H,)) + 1j * rng.normal(size=batch + (H,))
    f = transforms._rdft_analysis(x)
    multiplicity, mirror = transforms._rdft_bins(L)
    assert f.shape == batch + (H,)
    assert not multiplicity.flags.writeable and not mirror.flags.writeable
    np.testing.assert_array_equal(mirror, (L - np.arange(H)) % L)
    assert np.sum(multiplicity) == L
    np.testing.assert_allclose(f, dft_forward(x)[..., :H], rtol=0,
                               atol=1e-12 * np.max(np.abs(x)) * math.sqrt(L))
    assert np.max(np.abs(transforms._rdft_synthesis(f, L) - x)) < 1e-10
    np.testing.assert_allclose(np.sum((np.conj(f) * multiplicity * g).real, axis=-1),
                               np.sum(x * transforms._rdft_synthesis(g, L), axis=-1),
                               rtol=0, atol=1e-12 * L * np.max(np.abs(g)) * np.max(np.abs(x)))

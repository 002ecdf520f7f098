import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, stats

from conftest import step_up
from eobkit.diagnostics import (ZeroVarianceWarning, _average_ranks, dist_identity,
                                eigen_entropy,
                                estimate_ssnr, inefficiency_ratio, ode_ratio,
                                optimal_mse_baseline, orthogonality_report, psi_weights,
                                sample_correlation, sliding_windows, spearman_mean)
from eobkit.processes import ARSpec, Gaussian, simulate_ar
from eobkit.theory import CorrMatrix


def corr2(rho: float) -> CorrMatrix:
    return CorrMatrix(np.array([[1.0, rho], [rho, 1.0]]))


class TestOdeRatio:
    def test_identity(self):
        assert ode_ratio(CorrMatrix.identity(6)) == 0.0

    def test_perfect_correlation(self):
        assert ode_ratio(corr2(1.0)) == pytest.approx(0.5, abs=1e-15)

    def test_half_correlation(self):
        assert ode_ratio(corr2(0.5)) == pytest.approx(0.2, abs=1e-15)

    def test_permutation_invariant(self, rng):
        w = rng.normal(size=(500, 6)) @ rng.normal(size=(6, 6))
        R = sample_correlation(w)
        perm = rng.permutation(6)
        R_perm = CorrMatrix(R.values[np.ix_(perm, perm)])
        assert ode_ratio(R_perm) == pytest.approx(ode_ratio(R), rel=1e-12)


class TestEigenEntropy:
    def test_identity_is_one(self):
        assert eigen_entropy(CorrMatrix.identity(8)) == 1.0

    def test_rank_one_is_zero(self):
        assert eigen_entropy(CorrMatrix(np.ones((4, 4)))) == pytest.approx(0.0, abs=1e-12)

    def test_hand_case(self):
        # eigenvalues (1.5, 0.5): H = -(0.75 log2 0.75 + 0.25 log2 0.25)
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert eigen_entropy(corr2(0.5)) == pytest.approx(expected, abs=1e-12)

    def test_dim_one_convention(self):
        assert eigen_entropy(CorrMatrix.identity(1)) == 1.0


class TestDistIdentity:
    def test_identity(self):
        assert dist_identity(CorrMatrix.identity(5)) == 0.0

    def test_hand_case(self):
        assert dist_identity(corr2(0.5)) == pytest.approx(math.sqrt(0.5), abs=1e-12)


class TestSampleCorrelation:
    def test_iid_noise_off_diagonals_small(self, rng):
        R = sample_correlation(rng.normal(size=(10_000, 16)))
        off = R.values[~np.eye(16, dtype=bool)]
        assert np.max(np.abs(off)) < 0.05

    def test_duplicated_column(self, rng):
        col = rng.normal(size=200)
        R = sample_correlation(np.column_stack([col, col, rng.normal(size=200)]))
        assert R.values[0, 1] == pytest.approx(1.0, abs=1e-10)

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            sample_correlation(np.ones((1, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("fn", [sample_correlation, orthogonality_report])
    def test_non_finite_windows_rejected(self, rng, bad, fn):
        w = rng.normal(size=(50, 4))
        w[3, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^windows must be finite \(found nan or inf\)$"):
                fn(w)

    def test_zero_variance_column_warns(self, rng):
        w = rng.normal(size=(100, 3))
        w[:, 1] = 7.0
        with pytest.warns(ZeroVarianceWarning):
            R = sample_correlation(w)
        assert R.values[1, 1] == 1.0
        assert R.values[0, 1] == 0.0


class TestSpearman:
    def test_monotone_pair(self, rng):
        a = rng.normal(size=300)
        assert spearman_mean(np.column_stack([a, np.exp(a)])) == pytest.approx(1.0, abs=1e-12)

    def test_independent_columns_small(self, rng):
        assert spearman_mean(rng.uniform(size=(10_000, 6))) < 0.05

    def test_single_column_rejected(self, rng):
        with pytest.raises(ValueError, match="pairs|coordinates"):
            spearman_mean(rng.normal(size=(50, 1)))

    @pytest.mark.parametrize("n, L, levels", [(200, 5, None), (300, 6, 3), (40, 2, 2),
                                              (40, 2, None), (25, 4, 2)])
    def test_matches_scipy_spearmanr(self, rng, n, L, levels):
        # levels=None draws continuous values; otherwise `levels` integer values per cell
        w = rng.normal(size=(n, L)) if levels is None else rng.integers(0, levels, (n, L))
        w = w.astype(float)
        if L >= 4:
            w[:, -1] = 7.0  # a constant column
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns on constant columns
            rho = stats.spearmanr(w).statistic
        if np.ndim(rho) == 0:  # scipy returns a scalar for two columns
            rho = np.array([[1.0, rho], [rho, 1.0]])
        expected = np.mean(np.abs(np.nan_to_num(rho, nan=0.0))[~np.eye(L, dtype=bool)])
        assert spearman_mean(w) == pytest.approx(expected, rel=1e-13, abs=1e-15)

    def test_non_finite_rejected(self, rng):
        w = rng.normal(size=(50, 4))
        w[3, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            spearman_mean(w)

    def test_constant_columns_carry_no_rank_signal(self):
        assert spearman_mean(np.ones((10, 3))) == 0.0


class TestAverageRanks:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 200), L=st.integers(1, 8),
           draw=st.sampled_from(["ties", "continuous", "constant"]), levels=st.integers(1, 6),
           seed=st.integers(0, 2**16))
    def test_equals_rankdata(self, n, L, draw, levels, seed):
        """The unstable sort ranks exactly as scipy: tie-heavy integers (signed zeros
        among them), continuous draws, and constant columns among continuous ones."""
        rng = np.random.default_rng(seed)
        if draw == "ties":
            x = rng.integers(0, levels, (n, L)) * rng.choice([-1.0, 1.0], (n, L))
        else:
            x = rng.normal(size=(n, L))
        if draw == "constant":
            x[:, rng.random(L) < 0.5] = rng.normal()
        assert np.array_equal(_average_ranks(x), stats.rankdata(x, method="average", axis=0))

    def test_equals_rankdata_without_ties(self, rng):
        x = rng.normal(size=(500, 3))
        assert np.array_equal(_average_ranks(x), stats.rankdata(x, axis=0))

    def test_signed_zeros_tie(self):
        x = np.array([[0.0], [-0.0], [1.0], [-1.0]])
        assert np.array_equal(_average_ranks(x)[:, 0], [2.5, 2.5, 4.0, 1.0])


class TestDirectionalDecorrelation:
    def test_dft_whitens_ar1_windows(self):
        from eobkit.transforms import real_fourier_coordinates

        spec = ARSpec(c=0.0, phi=(0.9,), innovation=Gaussian(0.0, 0.5), sigma_eps2=0.25)
        series = simulate_ar(spec, 6000, seed=17)
        raw = sliding_windows(series, 16)
        rep_t = orthogonality_report(real_fourier_coordinates(raw))
        rep_r = orthogonality_report(raw)
        assert rep_t.ode_ratio < rep_r.ode_ratio
        assert rep_t.spearman_mean < rep_r.spearman_mean
        assert rep_t.dist_identity < rep_r.dist_identity
        assert rep_t.eigen_entropy > rep_r.eigen_entropy


class TestOptimalBaseline:
    def test_asymptotic_ar1(self):
        spec = ARSpec(c=0.0, phi=(0.6,), innovation=Gaussian(0.0, 0.5), sigma_eps2=0.25)
        assert optimal_mse_baseline(spec, 10, "asymptotic") == pytest.approx(0.390625, rel=1e-12)

    def test_psi_white_noise_one_step(self):
        spec = ARSpec.white_noise()
        assert optimal_mse_baseline(spec, 1, "psi_weights") == pytest.approx(0.25, rel=1e-12)

    def test_psi_weights_recursion(self):
        spec = ARSpec(c=0.0, phi=(0.6,), innovation=Gaussian(0.0, 0.5), sigma_eps2=0.25)
        np.testing.assert_allclose(psi_weights(spec, 5), 0.6 ** np.arange(5), atol=1e-12)

    def test_psi_approaches_marginal_variance(self):
        spec = ARSpec(c=0.0, phi=(0.6,), innovation=Gaussian(0.0, 0.5), sigma_eps2=0.25)
        per_point = optimal_mse_baseline(spec, 2000, "psi_weights")
        assert per_point == pytest.approx(0.390625, rel=0.001)
        assert per_point < 0.390625  # always below the asymptote

    def test_literal_total_is_h_times_per_point(self):
        spec = ARSpec(c=0.0, phi=(0.6,), innovation=Gaussian(0.0, 0.5), sigma_eps2=0.25)
        total = optimal_mse_baseline(spec, 16, "psi_weights", per_point=False)
        per_point = optimal_mse_baseline(spec, 16, "psi_weights", per_point=True)
        assert total == pytest.approx(16.0 * per_point, rel=1e-12)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            optimal_mse_baseline(ARSpec.white_noise(), 0)


class TestInefficiency:
    def test_equal_inputs(self):
        assert inefficiency_ratio(0.5, 0.5) == 1.0

    def test_hand_case(self):
        assert inefficiency_ratio(0.8, 0.4) == 2.0

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            inefficiency_ratio(1.0, 0.0)


class TestEstimateSsnr:
    def test_ar1_recovery(self):
        spec = ARSpec(c=0.0, phi=(0.6,), innovation=Gaussian(0.0, 0.5), sigma_eps2=0.25)
        series = simulate_ar(spec, 200_000, seed=23)
        assert estimate_ssnr(series, order=1) == pytest.approx(1.5625, rel=0.02)

    def test_order2_recovery(self):
        spec = ARSpec(c=0.0, phi=(0.5, 0.2), innovation=Gaussian(0.0, 0.5), sigma_eps2=0.25)
        series = simulate_ar(spec, 200_000, seed=24)
        assert estimate_ssnr(series, order=2) == pytest.approx(1.0 / 0.585, rel=0.02)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="short"):
            estimate_ssnr(np.ones(5), order=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_series_rejected(self, bad):
        series = np.random.default_rng(0).standard_normal(100)
        series[37] = bad
        with pytest.raises(ValueError, match=r"series must be finite \(found nan or inf\)"):
            estimate_ssnr(series, order=1)

    @given(reflection=st.lists(st.floats(-0.99, 0.99), max_size=6),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(deadline=None, max_examples=50)
    def test_matches_dense_toeplitz_solve(self, reflection, seed):
        spec = ARSpec(c=0.0, phi=tuple(step_up(np.asarray(reflection))),
                      innovation=Gaussian(0.0, 0.5), sigma_eps2=0.25)
        x = simulate_ar(spec, 400, seed=seed)
        xc = x - x.mean()
        gamma = np.array([np.dot(xc[:x.size - k], xc[k:]) / x.size for k in range(5)])
        rho = gamma / gamma[0]
        for p in range(1, 5):
            phi_hat = np.linalg.solve(linalg.toeplitz(rho[:p]), rho[1:p + 1])
            expected = 1.0 / (1.0 - float(np.dot(phi_hat, rho[1:p + 1])))
            estimate = estimate_ssnr(x, order=p)
            assert type(estimate) is float
            # both lose digits in step with the estimate itself
            assert estimate == pytest.approx(expected, rel=1e-12 * expected)


class TestSlidingWindows:
    def test_shape_and_content(self):
        w = sliding_windows(np.arange(6.0), 3)
        assert w.shape == (4, 3)
        np.testing.assert_array_equal(w[0], [0, 1, 2])
        np.testing.assert_array_equal(w[-1], [3, 4, 5])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="windows"):
            sliding_windows(np.arange(3.0), 5)

    @pytest.mark.parametrize("window", [4, 11])
    def test_matches_index_gather(self, window, rng):
        series = rng.normal(size=11)
        n = series.size - window + 1
        idx = np.arange(n)[:, None] + np.arange(window)[None, :]
        np.testing.assert_array_equal(sliding_windows(series, window), series[idx])

    def test_result_owns_its_data(self):
        series = np.arange(8.0)
        w = sliding_windows(series, 3)
        w[0, 1] = -1.0
        np.testing.assert_array_equal(series, np.arange(8.0))
        assert w.flags.owndata and w.flags.writeable

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError, match="window must be >= 1"):
            sliding_windows(np.arange(6.0), 0)

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from conftest import random_stationary_spec, step_up
from eobkit import theory
from eobkit.processes import ARSpec, Gaussian, reflection_coefficients
from eobkit.theory import (CorrMatrix, NotPositiveDefiniteError, YuleWalkerSolution,
                           autocorrelations, corr_matrix_from_ar, eob_ar_closed_form,
                           eob_gmm_lower_bound, eob_mgm, mixture_entropy, snr_to_ssnr,
                           solve_yule_walker, ssnr_to_snr, szego_convergence_curve,
                           verify_determinant_decomposition)


def ar(phi, sigma_eps2=0.25):
    return ARSpec(c=0.0, phi=tuple(phi), innovation=Gaussian(0.0, math.sqrt(sigma_eps2)),
                  sigma_eps2=sigma_eps2)


class TestYuleWalker:
    def test_ar1(self):
        yw = solve_yule_walker(ar([0.6]))
        assert yw.rho[0] == pytest.approx(0.6, abs=1e-12)
        assert yw.ssnr == pytest.approx(1.0 / 0.64, rel=1e-12)
        assert yw.sigma_z2 == pytest.approx(0.25 / 0.64, rel=1e-12)

    def test_ar2_hand_solved(self):
        # rho1 = phi1/(1-phi2), rho2 = phi1*rho1 + phi2 for phi = (0.5, 0.2)
        yw = solve_yule_walker(ar([0.5, 0.2]))
        assert yw.rho[0] == pytest.approx(0.625, abs=1e-12)
        assert yw.rho[1] == pytest.approx(0.5125, abs=1e-12)
        assert yw.ssnr == pytest.approx(1.0 / 0.585, rel=1e-12)

    def test_white_noise(self):
        yw = solve_yule_walker(ar([]))
        assert yw.ssnr == 1.0
        assert yw.sigma_z2 == 0.25

    def test_matches_long_run_simulation(self):
        from eobkit.processes import simulate_ar
        spec = ar([0.5, 0.2])
        z = simulate_ar(spec, 10**6, seed=21)
        assert float(np.var(z)) == pytest.approx(solve_yule_walker(spec).sigma_z2, rel=0.02)

    def test_ssnr_at_least_one(self, rng):
        for p in (1, 2, 3):
            for _ in range(20):
                yw = solve_yule_walker(random_stationary_spec(rng, p))
                assert yw.ssnr >= 1.0
                assert np.all(np.abs(yw.rho) <= 1.0 + 1e-9)

    def test_keeps_caller_array_writable(self):
        rho = np.array([0.5, 0.2])
        yw = YuleWalkerSolution(rho=rho, sigma_z2=1.0, ssnr=2.0)
        rho[0] = 0.9
        assert yw.rho[0] == 0.5
        with pytest.raises(ValueError, match="read-only"):
            yw.rho[0] = 0.1


def _dense_yule_walker(phi, max_lag: int) -> np.ndarray:
    """rho_0..rho_max_lag: the p x p Yule-Walker system built in a double loop and solved
    densely, then extended by rho_k = sum_i phi_i rho_{k-i}."""
    p = len(phi)
    A = np.eye(p)
    for k in range(1, p + 1):
        for i in range(1, p + 1):
            if k != i:
                A[k - 1, abs(k - i) - 1] -= phi[i - 1]
    rho = np.ones(max(p, max_lag) + 1)
    rho[1:p + 1] = np.linalg.solve(A, phi) if p else ()
    for k in range(p + 1, max_lag + 1):
        rho[k] = np.dot(phi, rho[k - p:k][::-1])
    return rho


class TestLevinson:
    @given(reflection=st.lists(st.floats(-0.99, 0.99), max_size=6),
           max_lag=st.integers(min_value=0, max_value=64))
    @settings(deadline=None, max_examples=100)
    def test_matches_dense_yule_walker_solve(self, reflection, max_lag):
        spec = ar(step_up(np.asarray(reflection)))
        reference = _dense_yule_walker(spec.phi, max_lag)
        yw = solve_yule_walker(spec)
        assert type(yw.ssnr) is float and type(yw.sigma_z2) is float
        # both solutions lose digits in step with SSNR = prod_j 1 / (1 - kappa_j^2)
        tol = 1e-12 * yw.ssnr
        np.testing.assert_allclose(yw.rho, reference[1:spec.p + 1], rtol=0.0, atol=tol)
        np.testing.assert_allclose(autocorrelations(spec, max_lag), reference[:max_lag + 1],
                                   rtol=0.0, atol=tol)
        innovation_fraction = 1.0 - float(np.dot(spec.phi, reference[1:spec.p + 1]))
        assert yw.ssnr == pytest.approx(1.0 / innovation_fraction, rel=tol)
        assert yw.sigma_z2 == pytest.approx(0.25 / innovation_fraction, rel=tol)

    def test_non_pd_autocorrelations_raise_naming_the_lag(self):
        # kappa_1 = 0.8, then kappa_2 = (-0.8 - 0.8 * 0.8) / 0.36 = -4
        with pytest.raises(ValueError, match="at lag 2"):
            theory._levinson(np.array([1.0, 0.8, -0.8]), (), 3)


def _exact_step_down(phi) -> list[Fraction]:
    """kappa_1..kappa_p of the float phi by the step-down in exact rational arithmetic."""
    a, kappa = [Fraction(v) for v in phi], [Fraction(0)] * len(phi)
    for j in range(len(phi), 0, -1):
        k = kappa[j - 1] = a[-1]
        a = [(ai + k * aj) / (1 - k * k) for ai, aj in zip(a[:-1], a[-2::-1])]
    return kappa


def _exact_autocorrelations(phi, kappa, max_lag: int) -> list[Fraction]:
    """rho_0..rho_max_lag in exact arithmetic: the step-up of kappa to lag p, then
    rho_k = sum_i phi_i rho_{k-i}."""
    rho, a, v = [Fraction(1)], [], Fraction(1)
    for k in range(1, max_lag + 1):
        if k <= len(kappa):
            kap = kappa[k - 1]
            rho.append(sum(ai * rho[k - 1 - i] for i, ai in enumerate(a)) + kap * v)
            a = [ai - kap * aj for ai, aj in zip(a, a[::-1])] + [kap]
            v *= 1 - kap * kap
        else:
            rho.append(sum(Fraction(f) * rho[k - 1 - i] for i, f in enumerate(phi)))
    return rho


class TestExactStepDown:
    """The float step-down and the autocorrelations read from it, against the same
    recursions run exactly on the same float phi: an oracle that shares no rounding."""

    # Measured: the error grows like eps * prod_j (1 + |kappa_j|) / (1 - |kappa_j|), at
    # most 0.2 times it over 9 600 specs (p <= 8, |kappa| <= 0.9); its worst case, all 256
    # sign patterns of |kappa_j| = 0.9 at p = 8, is 5.8e-9 in kappa and rho alike.
    WORST = 1e-8

    @pytest.mark.parametrize("p", range(1, 9))
    def test_matches_exact_arithmetic(self, p):
        signs = 0.9 * np.array(list(itertools.product((-1.0, 1.0), repeat=p)))
        uniform = np.random.default_rng(p).uniform(-0.9, 0.9, size=(32, p))
        for refl in np.concatenate([signs, uniform]):
            phi = step_up(refl)
            kappa = _exact_step_down(phi)
            growth = np.prod([(1 + abs(k)) / (1 - abs(k)) for k in map(float, kappa)])
            tol = min(self.WORST, np.finfo(float).eps * growth)
            for got, exact in [(reflection_coefficients(phi), kappa),
                               (autocorrelations(ar(phi), 3 * p),
                                _exact_autocorrelations(phi, kappa, 3 * p))]:
                assert float(max(abs(Fraction(g) - e) for g, e in zip(got, exact))) <= tol, refl


class TestCorrMatrix:
    def test_ar1_toeplitz(self):
        R = corr_matrix_from_ar(ar([0.5]), 3)
        expected = [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]]
        np.testing.assert_allclose(R.values, expected, atol=1e-12)

    def test_white_noise_identity(self):
        np.testing.assert_array_equal(corr_matrix_from_ar(ar([]), 4).values, np.eye(4))

    def test_ar2_recursion_extension(self):
        # rho3 = phi1*rho2 + phi2*rho1 = 0.5*0.5125 + 0.2*0.625
        R = corr_matrix_from_ar(ar([0.5, 0.2]), 4)
        assert R.values[0, 3] == pytest.approx(0.38125, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="diagonal"):
            CorrMatrix(np.array([[0.9, 0.1], [0.1, 1.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            CorrMatrix(np.array([[1.0, 0.3], [0.1, 1.0]]))
        with pytest.raises(NotPositiveDefiniteError) as err:
            CorrMatrix(np.array([[1.0, 0.8, -0.8], [0.8, 1.0, 0.8], [-0.8, 0.8, 1.0]]))
        assert err.value.min_eigenvalue < -1e-10

    def test_asymmetry_in_a_far_tile_is_rejected(self):
        values = linalg.toeplitz(0.5 ** np.arange(300))
        values[290, 3] += 2e-12
        with pytest.raises(ValueError, match="correlation matrix must be symmetric"):
            CorrMatrix(values)

    @pytest.mark.parametrize("n", [1, 5, 64, 65, 200])
    def test_asymmetry_within_tolerance_is_averaged_bitwise(self, n, rng):
        values = linalg.toeplitz(0.5 ** np.arange(n))
        noise = rng.uniform(-4e-13, 4e-13, size=(n, n))
        noise[: n // 2, : n // 2] = 0.0  # these tiles stay bit-symmetric
        np.fill_diagonal(noise, 0.0)
        values += noise
        expected = 0.5 * (values + values.T)
        got = CorrMatrix(values).values
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
        np.testing.assert_array_equal(got, got.T)

    def test_equality_compares_values(self):
        assert CorrMatrix.identity(2) == CorrMatrix.identity(2)
        assert CorrMatrix.identity(2) != CorrMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert CorrMatrix.identity(2) != CorrMatrix.identity(3)
        assert (CorrMatrix.identity(2) == object()) is False

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CorrMatrix(np.array([[1.0, bad], [bad, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            CorrMatrix(np.array([[1.0, 0.2, bad], [0.2, 1.0, 0.3], [0.4, 0.3, 1.0]]))

    def test_toeplitz_helper_matches_scipy(self, rng):
        for n in (1, 2, 7, 64):
            rho = np.concatenate([[1.0], rng.uniform(-1.0, 1.0, size=n - 1)])
            np.testing.assert_array_equal(theory._toeplitz(rho), linalg.toeplitz(rho))

    def test_positive_definite_matrix_is_factored_once(self, monkeypatch):
        calls = {"cholesky": 0, "eigvalsh": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        R = CorrMatrix(np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]]))
        assert R.log_det() == pytest.approx(math.log(0.5625), rel=1e-12)
        assert calls == {"cholesky": 1, "eigvalsh": 0}

    def test_det_in_unit_interval(self, rng):
        for p in (1, 2, 3):
            for _ in range(10):
                spec = random_stationary_spec(rng, p)
                log_det = corr_matrix_from_ar(spec, 12).log_det()
                assert log_det <= 1e-12  # det <= 1
                assert math.isfinite(log_det)  # det > 0


class TestClosedForm:
    def test_ar1_example(self):
        report = eob_ar_closed_form(ar([0.6]), 10)
        assert report.steady_term == pytest.approx(4.5 * math.log(1.5625), rel=1e-12)
        assert report.transient_term == 0.0  # det of the 1x1 initial block is 1
        # independent oracle: brute-force determinant of the full matrix
        sign, logdet = np.linalg.slogdet(corr_matrix_from_ar(ar([0.6]), 10).values)
        assert sign > 0
        assert report.value_nats == pytest.approx(-0.5 * logdet, rel=1e-10)

    def test_white_noise_zero(self):
        for T in (2, 5, 33):
            assert eob_ar_closed_form(ar([]), T).value_nats == 0.0

    def test_t3_brute_force_determinant(self):
        # det [[1,.5,.25],[.5,1,.5],[.25,.5,1]] = 0.5625
        report = eob_ar_closed_form(ar([0.5]), 3)
        assert report.value_nats == pytest.approx(-0.5 * math.log(0.5625), rel=1e-12)

    def test_split_adds_up(self, rng):
        for p in (1, 2, 3):
            spec = random_stationary_spec(rng, p)
            report = eob_ar_closed_form(spec, 16)
            assert report.value_nats == pytest.approx(
                report.steady_term + report.transient_term, rel=1e-12)

    def test_t_must_exceed_p(self):
        with pytest.raises(ValueError, match="exceed"):
            eob_ar_closed_form(ar([0.5, 0.2]), 2)

    def test_builds_and_factors_no_matrix(self, rng, monkeypatch):
        calls = {"cholesky": 0}

        def counted(*args, _real=np.linalg.cholesky, **kwargs):
            calls["cholesky"] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "cholesky", counted)
        monkeypatch.setattr(CorrMatrix, "__post_init__",
                            lambda self: pytest.fail("CorrMatrix built"))
        for p in range(7):
            eob_ar_closed_form(random_stationary_spec(rng, p), 16)
        assert calls == {"cholesky": 0}

    @given(reflection=st.lists(st.floats(-0.75, 0.75), max_size=8))
    @settings(deadline=None, max_examples=100)
    def test_transient_matches_dense_slogdet(self, reflection):
        spec = ar(step_up(np.asarray(reflection)))
        report = eob_ar_closed_form(spec, spec.p + 1)
        R_p = linalg.toeplitz(autocorrelations(spec, spec.p)[:spec.p])
        sign, log_det = np.linalg.slogdet(R_p)
        assert sign > 0
        # abs: a transient of a few ulps of 1 (kappa_1..kappa_{p-1} near 0) has no relative digits
        assert report.transient_term == pytest.approx(-0.5 * log_det, rel=1e-12, abs=1e-14)

    def test_monotone_in_T(self):
        values = [eob_ar_closed_form(ar([0.6]), T).value_nats for T in range(2, 30)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_monotone_in_phi1(self):
        values = [eob_ar_closed_form(ar([phi]), 16).value_nats
                  for phi in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_bits_conversion(self):
        report = eob_ar_closed_form(ar([0.6]), 10)
        assert report.value_bits == pytest.approx(report.value_nats / math.log(2.0), rel=1e-12)


class TestMgm:
    def test_identity(self):
        assert eob_mgm(CorrMatrix.identity(5)).value_nats == 0.0

    def test_matches_closed_form(self):
        spec = ar([0.5])
        assert eob_mgm(corr_matrix_from_ar(spec, 3)).value_nats == pytest.approx(
            eob_ar_closed_form(spec, 3).value_nats, rel=1e-12)

    def test_two_by_two(self):
        R = CorrMatrix(np.array([[1.0, 0.9], [0.9, 1.0]]))
        assert eob_mgm(R).value_nats == pytest.approx(-0.5 * math.log(1.0 - 0.81), rel=1e-12)

    def test_cross_method_agreement_grid(self, rng):
        for p in (1, 2, 3):
            for _ in range(10):
                spec = random_stationary_spec(rng, p)
                for T in (p + 1, 8, 32):
                    a = eob_ar_closed_form(spec, T).value_nats
                    b = eob_mgm(corr_matrix_from_ar(spec, T)).value_nats
                    assert abs(a - b) / max(1.0, abs(a)) < 1e-8

    def test_non_pd_rejected(self):
        ones = CorrMatrix(np.ones((3, 3)))  # PSD but singular
        with pytest.raises(NotPositiveDefiniteError) as err:
            ones.log_det()
        assert err.value.min_eigenvalue == float(np.linalg.eigvalsh(np.ones((3, 3)))[0])


class TestDeterminantDecomposition:
    def test_ar1(self):
        assert verify_determinant_decomposition(ar([0.5]), 8) < 1e-10

    def test_ar2(self):
        assert verify_determinant_decomposition(ar([0.5, 0.2]), 16) < 1e-8

    def test_white_noise_exact(self):
        assert verify_determinant_decomposition(ar([]), 8) == 0.0


class TestSzego:
    def test_ar1_limit(self):
        curve = szego_convergence_curve(ar([0.5]), [512])
        assert curve[0][1] == pytest.approx(0.75, rel=0.02)

    def test_white_noise_exactly_one(self):
        for _, value in szego_convergence_curve(ar([]), [2, 16, 64]):
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_monotone_approach(self):
        curve = szego_convergence_curve(ar([0.9]), [4, 8, 16, 32, 64, 128])
        values = [v for _, v in curve]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.19  # approaches 1/SSNR = 1 - 0.81 from above

    @given(p=st.integers(min_value=0, max_value=4), T=st.integers(min_value=1, max_value=256),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_durbin_prefixes_match_dense_slogdet(self, p, T, seed):
        spec = random_stationary_spec(np.random.default_rng(seed), p)
        prefixes = sorted(set(range(1, T + 1, max(1, T // 16))) | {T})
        R = linalg.toeplitz(autocorrelations(spec, T - 1))
        for t, value in szego_convergence_curve(spec, prefixes):
            sign, ref = np.linalg.slogdet(R[:t, :t])
            assert sign > 0
            assert abs(t * math.log(value) - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_each_point_matches_its_own_dense_cholesky(self, rng):
        T_values = [1, 2, 5, 33, 100]
        for p in (1, 2, 3, 4):
            spec = random_stationary_spec(rng, p)
            for T, value in szego_convergence_curve(spec, T_values):
                dense = corr_matrix_from_ar(spec, T).log_det()
                assert T * math.log(value) == pytest.approx(dense, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("p", range(7))
    def test_pass_to_the_order_equals_the_full_length_pass(self, p, rng):
        spec = random_stationary_spec(rng, p)
        v = theory._levinson((1.0,), reflection_coefficients(spec.phi), 4096)[1]
        log_dets = np.cumsum(np.log(v))
        for T_values in (range(1, 4097), range(1, p + 1), [p + 1], [4096, 3, 2048]):
            assert szego_convergence_curve(spec, T_values) == [
                (T, math.exp(log_dets[T - 1] / T)) for T in T_values]

    def test_window_lengths(self):
        assert szego_convergence_curve(ar([0.5]), []) == []
        assert szego_convergence_curve(ar([0.5]), [1]) == [(1, 1.0)]
        with pytest.raises(ValueError, match="T must be >= 1"):
            szego_convergence_curve(ar([0.5]), [4, 0])


class TestGmmBound:
    def test_degenerate(self):
        assert eob_gmm_lower_bound([1.0], [2.0]) == 2.0

    def test_uniform_two(self):
        assert eob_gmm_lower_bound([0.5, 0.5], [2.0, 2.0]) == pytest.approx(
            2.0 - math.log(2.0), abs=1e-12)

    def test_negative_bound_not_clamped(self):
        assert eob_gmm_lower_bound([0.5, 0.5], [0.0, 0.0]) == pytest.approx(
            -math.log(2.0), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            eob_gmm_lower_bound([0.6, 0.6], [1.0, 1.0])
        with pytest.raises(ValueError, match="non-negative"):
            eob_gmm_lower_bound([1.5, -0.5], [1.0, 1.0])
        with pytest.raises(ValueError, match="equal length"):
            eob_gmm_lower_bound([1.0], [1.0, 2.0])

    @given(st.integers(min_value=2, max_value=8))
    @settings(deadline=None)
    def test_entropy_maximal_for_uniform(self, k):
        assert mixture_entropy(np.full(k, 1.0 / k)) == pytest.approx(math.log(k), abs=1e-12)
        rng = np.random.default_rng(k)
        w = rng.dirichlet(np.ones(k))
        assert mixture_entropy(w) <= math.log(k) + 1e-12


class TestConversions:
    def test_reference_points(self):
        assert ssnr_to_snr(1.0) == 0.0
        assert ssnr_to_snr(32.0) == 31.0
        assert snr_to_ssnr(3.0) == 4.0

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ssnr_to_snr(0.5)
        with pytest.raises(ValueError):
            snr_to_ssnr(-0.1)

    @given(st.floats(min_value=1.0, max_value=1e6, allow_nan=False))
    def test_round_trip(self, ssnr):
        assert snr_to_ssnr(ssnr_to_snr(ssnr)) == pytest.approx(ssnr, rel=1e-15)


class TestMonteCarloConsistency:
    def test_ar1_log_ratio_sum_matches_closed_form(self):
        # exact conditional densities for a Gaussian AR(1), stationary start
        phi, sigma_eps2, T, n_rep = 0.6, 0.25, 16, 10_000
        spec = ar([phi], sigma_eps2)
        sigma_z2 = sigma_eps2 / (1.0 - phi**2)
        rng_local = np.random.default_rng(1234)
        z = np.empty((n_rep, T))
        z[:, 0] = rng_local.normal(0.0, math.sqrt(sigma_z2), size=n_rep)
        eps = rng_local.normal(0.0, math.sqrt(sigma_eps2), size=(n_rep, T - 1))
        for t in range(1, T):
            z[:, t] = phi * z[:, t - 1] + eps[:, t - 1]
        cond = (-0.5 * math.log(2 * math.pi * sigma_eps2)
                - (z[:, 1:] - phi * z[:, :-1]) ** 2 / (2 * sigma_eps2))
        marg = -0.5 * math.log(2 * math.pi * sigma_z2) - z[:, 1:] ** 2 / (2 * sigma_z2)
        bias = np.sum(cond - marg, axis=1)
        closed = eob_ar_closed_form(spec, T).value_nats
        se = float(np.std(bias, ddof=1)) / math.sqrt(n_rep)
        assert abs(float(np.mean(bias)) - closed) < 3.0 * se

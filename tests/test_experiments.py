import ctypes
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields

import numpy as np
import pytest
from numpy.linalg import _umath_linalg
from scipy import stats

from eobkit import experiments, transforms
from eobkit.diagnostics import SurfacePoint, optimal_mse_baseline
from eobkit.experiments import (GradientCheckError, GridSpec, LinearModel, LossSpec,
                                ModelSpec, TrainConfig, TrainingDivergedError,
                                chronological_split, evaluate_mse,
                                insight_experiment, leakage_metrics, make_window_pairs,
                                paradox_trend_test, run_grid, train_model)
from eobkit.losses import HarmonizedConfig
from eobkit.processes import (ARSpec, DeterministicSpec, Gaussian, ar_spec_from_dict, from_dict,
                              simulate_ar)
from eobkit.theory import solve_yule_walker


def openblas_threads() -> int | None:
    """The thread count of the OpenBLAS numpy links, or None without OpenBLAS's getter."""
    blas = ctypes.CDLL(_umath_linalg.__file__)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(blas, name):
            getter = getattr(blas, name)
            getter.argtypes, getter.restype = (), ctypes.c_int
            return getter()
    return None


def ar1(phi=0.6):
    return ARSpec(c=0.0, phi=(phi,), innovation=Gaussian(0.0, 0.5), sigma_eps2=0.25)


class TestWindowing:
    def test_pairs_are_contiguous(self):
        X, Y = make_window_pairs(np.arange(10.0), history=3, horizon=2)
        assert X.shape == (6, 3) and Y.shape == (6, 2)
        np.testing.assert_array_equal(X[0], [0, 1, 2])
        np.testing.assert_array_equal(Y[0], [3, 4])

    def test_split_is_chronological(self):
        a, b = chronological_split(np.arange(10.0), 0.7)
        np.testing.assert_array_equal(a, np.arange(7.0))
        np.testing.assert_array_equal(b, np.arange(7.0, 10.0))


class TestTrainModel:
    def test_linear_reaches_bayes_on_ar1_one_step(self):
        series = simulate_ar(ar1(), 20_000, seed=31)
        X, Y = make_window_pairs(series, history=8, horizon=1)
        spec = ModelSpec(kind="linear")
        cfg = TrainConfig(loss=LossSpec(kind="temporal", norm="l2"), max_epochs=40,
                          patience=10)
        result = train_model(spec, X, Y, cfg, seed=1)
        test_mse = evaluate_mse(result.model, X[-2000:], Y[-2000:])
        # Bayes one-step error is the innovation variance
        assert test_mse == pytest.approx(0.25, rel=0.1)

    def test_zero_learning_rate_keeps_parameters(self, rng):
        X, Y = rng.normal(size=(64, 4)), rng.normal(size=(64, 2))
        spec = ModelSpec(kind="linear", init_seed=5)
        cfg = TrainConfig(lr=0.0, max_epochs=3, patience=10, check_gradients=False)
        from eobkit.experiments import _build_model
        init = _build_model(spec, 4, 2).params
        result = train_model(spec, X, Y, cfg, seed=2)
        for key in init:
            np.testing.assert_array_equal(result.model.params[key], init[key])

    def test_mlp_gradient_check_at_init(self, rng):
        X, Y = rng.normal(size=(64, 6)), rng.normal(size=(64, 3))
        spec = ModelSpec(kind="mlp1", hidden=8, activation="tanh")
        cfg = TrainConfig(max_epochs=1, check_gradients=True)
        result = train_model(spec, X, Y, cfg, seed=3)
        assert result.grad_check_err is not None
        assert result.grad_check_err < 1e-4

    def test_relu_gradient_check(self, rng):
        X, Y = rng.normal(size=(64, 6)), rng.normal(size=(64, 3))
        spec = ModelSpec(kind="mlp1", hidden=8, activation="relu")
        result = train_model(spec, X, Y, TrainConfig(max_epochs=1), seed=3)
        assert result.grad_check_err < 1e-4

    # W is checked first and b last: a NaN error must fail the check from either
    @pytest.mark.parametrize("name,factor,err", [("W", 1.01, "max rel err"),
                                                 ("W", np.nan, "max rel err nan"),
                                                 ("b", np.nan, "max rel err nan")])
    def test_wrong_backprop_raises(self, name, factor, err, rng, monkeypatch):
        X, Y = rng.normal(size=(64, 6)), rng.normal(size=(64, 3))
        backward = LinearModel._backward

        def scaled(self, cache, d_pred):
            grads = backward(self, cache, d_pred)
            return {**grads, name: factor * grads[name]}

        monkeypatch.setattr(LinearModel, "_backward", scaled)
        spec = ModelSpec(kind="linear")
        with pytest.raises(GradientCheckError, match=err):
            train_model(spec, X, Y, TrainConfig(max_epochs=1), seed=3)

    def test_validation_pass_runs_no_pullback(self, rng, monkeypatch):
        # one batch per epoch: the training batch is the only gradient read
        calls = []
        synthesis = transforms._dwt_synthesis
        monkeypatch.setattr(transforms, "_dwt_synthesis",
                            lambda c, *args: calls.append(c.shape) or synthesis(c, *args))
        X, Y = rng.normal(size=(64, 8)), rng.normal(size=(64, 8))
        spec = ModelSpec(kind="linear")
        loss = LossSpec(kind="harmonized", norm="l2", transform="dwt", wavelet="db2")
        cfg = TrainConfig(max_epochs=3, patience=5, loss=loss, check_gradients=False)
        result = train_model(spec, X, Y, cfg, seed=1)
        assert result.epochs_run == 3
        assert calls == [(51, 8)] * 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_aborts_with_diagnostic(self, rng):
        X, Y = rng.normal(size=(64, 4)) * 1e3, rng.normal(size=(64, 2)) * 1e3
        spec = ModelSpec(kind="mlp1", hidden=4, activation="relu")
        cfg = TrainConfig(optimizer="sgd", lr=1e6, max_epochs=80, patience=80,
                          check_gradients=False)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train_model(spec, X, Y, cfg, seed=4)

    @pytest.mark.parametrize("name", ["X", "Y"])
    def test_zero_columns_names_the_array(self, name, rng):
        data = {"X": rng.normal(size=(32, 4)), "Y": rng.normal(size=(32, 2))}
        data[name] = data[name][:, :0]
        with pytest.raises(ValueError, match=rf"^{name} must have at least one column"):
            train_model(ModelSpec(), data["X"], data["Y"], TrainConfig(), seed=0)

    @pytest.mark.parametrize("name,bad", [("X", math.nan), ("Y", math.inf), ("Y", -math.inf)])
    def test_non_finite_input_names_the_array(self, name, bad, rng):
        data = {"X": rng.normal(size=(32, 4)), "Y": rng.normal(size=(32, 2))}
        data[name][5, 1] = bad
        spec = ModelSpec(kind="linear")
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            train_model(spec, data["X"], data["Y"], TrainConfig(), seed=0)

    def test_deterministic_given_seeds(self, rng):
        X, Y = rng.normal(size=(128, 4)), rng.normal(size=(128, 2))
        spec = ModelSpec(kind="linear")
        cfg = TrainConfig(max_epochs=5, check_gradients=False)
        a = train_model(spec, X, Y, cfg, seed=9)
        b = train_model(spec, X, Y, cfg, seed=9)
        for key in a.model.params:
            np.testing.assert_array_equal(a.model.params[key], b.model.params[key])


def tiny_grid(**kwargs) -> GridSpec:
    defaults = dict(ssnr_x_values=(32.0, 64.0), horizons=(16,), history=16,
                    series_length=800, replications=1, seed=0, det_period=32)
    defaults.update(kwargs)
    return GridSpec(**defaults)


def tiny_cfg(**kwargs) -> TrainConfig:
    defaults = dict(loss=LossSpec(kind="temporal", norm="l2"), max_epochs=5,
                    patience=5, check_gradients=False)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestRunGrid:
    def test_single_cell(self):
        grid = tiny_grid(ssnr_x_values=(32.0,))
        model = ModelSpec(kind="linear")
        result = run_grid(grid, model, tiny_cfg())
        assert len(result.points) == 1 and not result.failures
        pt = result.points[0]
        assert pt.mse_opt_rel == pytest.approx(1.0)  # pure stochastic cell

    def test_actual_equals_sigma_x2_times_relative(self):
        grid = tiny_grid()
        model = ModelSpec(kind="linear")
        result = run_grid(grid, model, tiny_cfg())
        for pt in result.points:
            sigma_x2 = pt.mse_actual / pt.mse_relative
            # identity MSE_act = sigma_x^2 * MSE_rel with the analytic variance
            assert pt.mse_actual == pytest.approx(sigma_x2 * pt.mse_relative, rel=1e-12)
            assert pt.inefficiency == pytest.approx(pt.mse_relative / pt.mse_opt_rel,
                                                    rel=1e-12)

    def test_opt_rel_ratio(self):
        grid = tiny_grid(ssnr_x_values=(320.0,))  # the default core, SSNR 32
        model = ModelSpec(kind="linear")
        result = run_grid(grid, model, tiny_cfg())
        assert result.points[0].mse_opt_rel == pytest.approx(0.1, rel=1e-9)

    def test_floor_is_solved_once_per_grid(self, monkeypatch):
        calls = []

        def counted(spec):
            calls.append(spec)
            return solve_yule_walker(spec)

        monkeypatch.setattr(experiments, "solve_yule_walker", counted)
        grid = tiny_grid(ssnr_x_values=(32.0, 64.0), replications=2)
        run_grid(grid, ModelSpec(kind="linear"), tiny_cfg(max_epochs=1))
        assert calls == [grid.ar]

    def test_levels_share_the_floor_of_an_ar2_core(self):
        # the tones carry ssnr_x minus the core's closed-form SSNR, in units of sigma_eps2
        ar = ARSpec(c=0.0, phi=(0.5, 0.3), innovation=Gaussian(0.0, 0.5), sigma_eps2=0.25)
        grid = tiny_grid(ssnr_x_values=(8.0, 40.0), ar=ar)
        floor = solve_yule_walker(ar)
        assert (grid.floor.ssnr, grid.floor.sigma_z2) == (floor.ssnr, floor.sigma_z2)
        for ssnr_x in grid.ssnr_x_values:
            det = experiments._cell_spec(grid, ssnr_x, experiments.make_rng(0)).det
            assert det.variance == pytest.approx(0.25 * (ssnr_x - floor.ssnr), rel=1e-12)
        for pt in run_grid(grid, ModelSpec(kind="linear"), tiny_cfg(max_epochs=1)).points:
            assert pt.mse_opt_rel == pytest.approx(floor.ssnr / pt.ssnr_x, rel=1e-12)

    def test_reproducible_bit_for_bit(self):
        grid = tiny_grid()
        model = ModelSpec(kind="linear")
        a = run_grid(grid, model, tiny_cfg())
        b = run_grid(grid, model, tiny_cfg())
        assert a.points == b.points

    def test_parallel_matches_serial(self):
        grid = tiny_grid()
        model = ModelSpec(kind="linear")
        serial = run_grid(grid, model, tiny_cfg(), jobs=1)
        parallel = run_grid(grid, model, tiny_cfg(), jobs=2)
        assert serial.records == parallel.records
        assert serial.points == parallel.points

    def test_pool_pins_workers_and_leaves_the_parents_blas_threads(self):
        before = openblas_threads()
        if before is None:
            pytest.skip("numpy's BLAS has no OpenBLAS thread-count getter")
        result = run_grid(tiny_grid(), ModelSpec(kind="linear"), tiny_cfg(), jobs=2)
        assert result.records and not result.failures
        assert openblas_threads() == before
        with ProcessPoolExecutor(max_workers=1, initializer=experiments._one_blas_thread) as pool:
            assert pool.submit(openblas_threads).result() == 1

    @pytest.mark.parametrize("cells,jobs,workers", [(2, 4, 2), (2, 2, 2), (1, 4, None),
                                                    (2, 1, None)])
    def test_pool_has_at_most_one_worker_per_cell(self, cells, jobs, workers, monkeypatch):
        started = []

        class RecordingPool:
            """Records max_workers and runs the cells in this process."""

            def __init__(self, max_workers, initializer):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        grid = tiny_grid(ssnr_x_values=(32.0, 64.0)[:cells])
        result = run_grid(grid, ModelSpec(kind="linear"), tiny_cfg(max_epochs=1), jobs=jobs)
        assert len(result.records) == cells and not result.failures
        assert started == ([] if workers is None else [workers])

    def test_parallel_matches_serial_on_dwt_loss(self):
        grid = tiny_grid()
        model = ModelSpec(kind="linear")
        loss = LossSpec(kind="harmonized", norm="l2", transform="dwt", wavelet="db2",
                        levels=2)
        serial = run_grid(grid, model, tiny_cfg(loss=loss), jobs=1)
        parallel = run_grid(grid, model, tiny_cfg(loss=loss), jobs=2)
        assert serial.records and not serial.failures
        assert serial.records == parallel.records
        assert serial.points == parallel.points

    @pytest.mark.parametrize("horizon,levels", [(16, 5), (24, 4), (64, 7)])
    def test_dwt_levels_must_divide_every_horizon(self, horizon, levels, monkeypatch):
        monkeypatch.setattr(experiments, "_run_cell_safe", lambda task: pytest.fail("cell ran"))
        grid = tiny_grid(horizons=(128, horizon))
        model = ModelSpec(kind="linear")
        loss = LossSpec(kind="harmonized", norm="l2", transform="dwt", levels=levels)
        with pytest.raises(ValueError, match=rf"levels={levels} .* horizon {horizon}"):
            run_grid(grid, model, tiny_cfg(loss=loss))

    def test_dwt_levels_do_not_constrain_a_temporal_loss(self):
        grid = tiny_grid(ssnr_x_values=(32.0,))
        model = ModelSpec(kind="linear")
        loss = LossSpec(kind="temporal", transform="dwt", levels=7)
        assert run_grid(grid, model, tiny_cfg(loss=loss)).points

    def test_bayes_floor_against_true_baseline(self):
        # a trained model cannot reliably beat the exact cumulative optimum
        grid = tiny_grid(ssnr_x_values=(32.0,), series_length=3000, history=32,
                         horizons=(32,))
        model = ModelSpec(kind="linear")
        result = run_grid(grid, model, tiny_cfg(max_epochs=60))
        pt = result.points[0]
        true_opt = optimal_mse_baseline(ARSpec.ar1_for_ssnr(32.0), 32, "psi_weights")
        assert pt.mse_actual / true_opt >= 0.9

    def test_correct_gradient_cell_is_not_dropped(self):
        # The per-coordinate check this replaced read 3.2e-4 > 1e-4 on this
        # desk cell and run_grid dropped it; the shared oracle reads ~1e-8.
        grid = GridSpec(ssnr_x_values=(248.0,), horizons=(64,), replications=1, seed=77)
        model = ModelSpec(kind="linear")
        result = run_grid(grid, model, tiny_cfg(max_epochs=1, check_gradients=True))
        assert not result.failures, result.failures
        assert len(result.points) == 1

    def test_record_carries_the_training_telemetry(self):
        # patience below the budget: the cells stop early, at epochs of their own
        grid = tiny_grid(ssnr_x_values=(32.0, 64.0, 96.0), replications=2)
        cfg = tiny_cfg(lr=3e-2, max_epochs=40, patience=2)
        model = ModelSpec()
        records = run_grid(grid, model, cfg).records
        assert len(records) == 6
        assert any(r.epochs_run < cfg.max_epochs for r in records)
        for record in records:
            pt = record.point
            seed_seq = np.random.SeedSequence(grid.seed, spawn_key=(pt.replication,))
            spec_seed, data_seed, train_seed = seed_seq.spawn(3)
            spec = experiments._cell_spec(grid, pt.ssnr_x, experiments.make_rng(spec_seed))
            series = experiments.synthesize_hybrid(spec, seed=data_seed)
            train_series, _ = chronological_split(series, cfg.split)
            X, Y = make_window_pairs(train_series, grid.history, pt.horizon)
            direct = train_model(model, X, Y, cfg, seed=train_seed)
            assert (record.epochs_run, record.best_epoch) == (direct.epochs_run,
                                                              direct.best_epoch)
            assert record.amplitude == (spec.det.base_amplitude if spec.det else 0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"floor.* SSNR 32\.0; ssnr_x_values has \[16\.0\]"):
            tiny_grid(ssnr_x_values=(16.0, 64.0))


class TestTrendStats:
    def make_points(self, etas, rels=None):
        levels = [32.0, 104.0, 176.0, 248.0, 320.0]
        rels = rels or [0.5, 0.4, 0.3, 0.2, 0.1]
        return [SurfacePoint(ssnr_x=lv, horizon=64, replication=0, mse_actual=1.0,
                             mse_relative=rel, mse_opt_rel=rel / eta, inefficiency=eta)
                for lv, eta, rel in zip(levels, etas, rels)]

    def test_strictly_increasing(self):
        stats = paradox_trend_test(self.make_points([1.0, 1.1, 1.2, 1.3, 1.4]))
        assert stats[0].spearman_ssnr_eta == pytest.approx(1.0)
        assert stats[0].mse_rel_violations == 0

    def test_constant(self):
        stats = paradox_trend_test(self.make_points([1.0] * 5))
        assert stats[0].spearman_ssnr_eta == 0.0

    def test_tied_eta_levels_match_scipy(self):
        etas = [1.2, 1.0, 1.2, 1.4, 1.0]
        levels = [32.0, 104.0, 176.0, 248.0, 320.0]
        trend = paradox_trend_test(self.make_points(etas))
        expected = stats.spearmanr(levels, etas).statistic
        assert trend[0].spearman_ssnr_eta == pytest.approx(expected, rel=1e-14)

    def test_insufficient_levels(self):
        points = self.make_points([1.0, 1.1, 1.2, 1.3, 1.4])[:3]
        with pytest.raises(ValueError, match="4 distinct"):
            paradox_trend_test(points)

    def test_mse_rel_violation_count(self):
        stats = paradox_trend_test(self.make_points([1.0, 1.1, 1.2, 1.3, 1.4],
                                                    rels=[0.5, 0.6, 0.3, 0.2, 0.1]))
        assert stats[0].mse_rel_violations == 1


class TestInsight:
    def test_ground_truth_has_zero_leakage(self, rng):
        h = 32
        t = np.arange(h)
        true = np.stack([np.sin(2 * math.pi * 3 * t / h + p)
                         for p in rng.uniform(0, 2 * math.pi, 5)])
        leak, amp_err = leakage_metrics(true, true, (3, h - 3))
        assert leak < 1e-20
        assert amp_err < 1e-12

    def test_single_tone_dominant_bin(self):
        report = insight_experiment(K=1, fmax=5, n=1024, history=32, horizon=32, seed=2,
                                    cfg_temporal=TrainConfig(
                                        loss=LossSpec(kind="temporal", norm="l2"),
                                        max_epochs=40, check_gradients=False),
                                    cfg_harmonized=TrainConfig(
                                        loss=LossSpec(kind="harmonized", norm="l1"),
                                        max_epochs=40, check_gradients=False))
        assert report.dominant_bin["harmonized"] == report.tone_freqs[0]

    def test_each_arm_windows_its_own_split(self, monkeypatch):
        rows = {"train": [], "test": []}

        def train_recorder(spec, X, Y, cfg, seed=None):
            rows["train"].append(X.shape[0])
            return train_model(spec, X, Y, cfg, seed=seed)

        def leakage_recorder(pred, truth, tone_bins):
            rows["test"].append(truth.shape[0])
            return leakage_metrics(pred, truth, tone_bins)

        monkeypatch.setattr(experiments, "train_model", train_recorder)
        monkeypatch.setattr(experiments, "leakage_metrics", leakage_recorder)
        insight_experiment(K=1, fmax=5, n=1024, history=32, horizon=32,
                           cfg_temporal=TrainConfig(loss=LossSpec(kind="temporal", norm="l2"),
                                                    max_epochs=1, check_gradients=False),
                           cfg_harmonized=TrainConfig(loss=LossSpec(kind="harmonized", norm="l1"),
                                                      max_epochs=1, check_gradients=False,
                                                      split=0.5))
        # cut = round(1024 * split); a part of length m holds m - 64 + 1 windows
        assert rows == {"train": [717 - 63, 512 - 63], "test": [307 - 63, 512 - 63]}

    def test_validation(self):
        with pytest.raises(ValueError, match="fmax"):
            insight_experiment(K=3, fmax=40, n=512, horizon=64)


class TestLossSpecParsing:
    def test_round_trip(self):
        spec = from_dict(LossSpec, {"kind": "harmonized", "norm": "l1", "gamma": 0.5,
                                    "beta": 0.3, "eps": 1e-8, "transform": "dft"}, "loss")
        assert spec == LossSpec(kind="harmonized", norm="l1", gamma=0.5, beta=0.3,
                                eps=1e-8, transform="dft")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match=r"unknown field\(s\) in loss: \['bogus'\]"):
            from_dict(LossSpec, {"kind": "temporal", "bogus": 1}, "loss")


class TestGridSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        {"ssnr_x_values": (math.nan, 64.0)}, {"ssnr_x_values": (32.0, math.inf)},
    ])
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be finite"):
            GridSpec(**kwargs)

    @pytest.mark.parametrize("key,value", [("phi", [math.nan]), ("c", math.inf),
                                           ("sigma_eps2", math.inf), ("sigma_eps2", math.nan)])
    def test_non_finite_ar_rejected(self, key, value):
        ar = {"c": 0.0, "phi": [0.6], "innovation": {"kind": "gaussian", "mu": 0.0, "sigma": 0.5},
              "sigma_eps2": 0.25, key: value}
        with pytest.raises(ValueError, match=f"ARSpec.{key}: .*must be finite"):
            from_dict(GridSpec, {"ar": ar}, "grid", nested={"ar": ar_spec_from_dict})

    def test_default_core_is_the_desk_ar1(self):
        default, desk = GridSpec().ar, ARSpec.ar1_for_ssnr(32.0, 0.25)
        assert default == desk
        assert [v.hex() for v in default.phi] == [v.hex() for v in desk.phi]
        assert GridSpec().floor.ssnr == 32.0 and GridSpec().floor.sigma_z2 == 8.0

    @pytest.mark.parametrize("period", range(1, 25))
    def test_fmax_rule_is_the_tone_rule(self, period):
        # a grid accepts det_fmax iff DeterministicSpec accepts every tone in 1..det_fmax
        for fmax in range(1, period + 3):
            try:
                DeterministicSpec(1.0, tuple(range(1, fmax + 1)), (0.0,) * fmax, period)
                tones_ok = True
            except ValueError:
                tones_ok = False
            try:
                GridSpec(det_harmonics=1, det_fmax=fmax, det_period=period)
                grid_ok = True
            except ValueError:
                grid_ok = False
            assert grid_ok == tones_ok, (fmax, period)


class TestLossSpecIsHarmonizedConfig:
    def test_declares_only_kind_beta_and_the_norm_default(self):
        inherited = [f.name for f in fields(HarmonizedConfig)]
        assert [f.name for f in fields(LossSpec)] == inherited + ["kind", "beta"]
        assert LossSpec().norm == "l2" and HarmonizedConfig().norm == "l1"

    @pytest.mark.parametrize("key,bad", [("kind", "spectral"), ("beta", 1.0), ("norm", "l3"),
                                         ("transform", "fft")])
    def test_bad_value_rejected_by_name(self, key, bad):
        with pytest.raises(ValueError, match=key):
            LossSpec(**{key: bad})


class TestIntegerFields:
    SPECS = {
        "GridSpec.history": lambda v: GridSpec(history=v),
        "GridSpec.horizons": lambda v: GridSpec(horizons=(v,)),
        "GridSpec.seed": lambda v: GridSpec(seed=v),
        "ModelSpec.hidden": lambda v: ModelSpec(hidden=v),
        "TrainConfig.max_epochs": lambda v: TrainConfig(max_epochs=v),
        "LossSpec.levels": lambda v: LossSpec(levels=v),
        "HarmonizedConfig.levels": lambda v: HarmonizedConfig(levels=v),
        "DeterministicSpec.freqs": lambda v: DeterministicSpec(
            base_amplitude=1.0, freqs=(v,), phases=(0.0,), period=64),
    }

    @pytest.mark.parametrize("field", SPECS)
    @pytest.mark.parametrize("bad", [16.5, math.inf, math.nan, "16", True])
    def test_non_integral_rejected_by_name(self, field, bad):
        with pytest.raises(ValueError, match=rf"{field}: expected an integer"):
            self.SPECS[field](bad)

    @pytest.mark.parametrize("field", SPECS)
    def test_integral_float_becomes_int(self, field):
        spec = self.SPECS[field](16.0)
        value = getattr(spec, field.split(".")[1])
        value = value[0] if isinstance(value, tuple) else value
        assert value == 16 and type(value) is int

"""eobkit: optimization-bias theory for time series, made executable.

Point-wise losses treat every time step as independent; on correlated
series that assumption costs a quantifiable expected log-likelihood gap.
This package computes that gap in closed form, generates processes whose
structure is dialed in exactly, provides orthogonal transforms and
magnitude-adaptive losses that remove the gap, and runs desk-scale
training experiments that make the effect visible.
"""

from .processes import (ARSpec, Binomial, DeterministicSpec, Gaussian, Geometric,
                        HybridSpec, InnovationDist, NonStationaryError, Poisson,
                        StudentT, Uniform, calibrate_innovation, sample_innovation,
                        simulate_ar, synthesize_deterministic, synthesize_hybrid)
from .theory import (CorrMatrix, EobReport, NotPositiveDefiniteError,
                     YuleWalkerSolution, autocorrelations, corr_matrix_from_ar,
                     eob_ar_closed_form, eob_gmm_lower_bound, eob_mgm,
                     snr_to_ssnr, solve_yule_walker, ssnr_to_snr,
                     szego_convergence_curve, verify_determinant_decomposition)
from .transforms import (WaveletCoeffs, dft_forward, dft_inverse, dwt_forward,
                         dwt_inverse, truncate_spectrum)
from .losses import (EmaMagnitudes, HarmonizedConfig, LossEval, freq_amp_phase,
                     freq_error_amp_phase, freq_real_imag_l1, freq_real_imag_l2,
                     harmonized_l1, harmonized_l2, temporal_l1, temporal_l2,
                     update_ema, whitened_loss)
from .diagnostics import (OrthoReport, SurfacePoint, dist_identity, eigen_entropy,
                          estimate_ssnr, inefficiency_ratio, ode_ratio,
                          optimal_mse_baseline, orthogonality_report,
                          sample_correlation, spearman_mean)
from .experiments import (GridSpec, InsightReport, LossSpec, ModelSpec, TrainConfig,
                          insight_experiment, paradox_trend_test, run_grid,
                          train_model)

__version__ = "0.1.0"

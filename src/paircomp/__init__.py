"""paircomp: statistically sound comparison of two stochastic algorithms.

Plans how many problem instances a comparison needs for a target power,
adaptively decides how many runs each algorithm gets on each instance to
meet a standard-error budget, and performs the final paired test with
normality diagnostics.
"""

from .design import (Alternative, ComparisonDesign, EffectSizeDecomposition,
                     SampleSizeResult, TestFamily, calc_instances, calc_power,
                     curve_highlights, power_curve, standardized_effect,
                     validate_design)
from .distributions import (noncentral_t_cdf, noncentral_t_quantile, t_cdf,
                            t_quantile)
from .errors import (AssumptionViolationError, ConfigError, DegenerateDataError,
                     DegenerateRatioError, ExperimentAbortedError, PaircompError,
                     RunnerError)
from .estimators import (BootstrapConfig, DiffKind, FiellerCoefficients,
                         InstanceSample, PairedDifference, SEMethod,
                         bootstrap_sdm, bootstrap_se, optimal_ratio_percent,
                         optimal_ratio_simple, phi_percent, phi_simple,
                         se_percent, se_simple)
from .experiment import ExperimentPlan, run_experiment
from .hypotests import (DiagnosticsBundle, TestReport, build_diagnostics,
                        hodges_lehmann, paired_t_test, qq_normal, sign_test,
                        wilcoxon_signed_rank)
from .runners import (AlgorithmKind, AlgorithmSpec, InstanceRef, RunResult,
                      Runner, build_synthetic_pool, build_tsp_instance,
                      make_runner, run_once)
from .sampler import SamplingConfig, SamplingOutcome, calc_nreps

__version__ = "0.1.0"

__all__ = [
    "Alternative", "TestFamily", "ComparisonDesign", "EffectSizeDecomposition",
    "SampleSizeResult", "calc_power", "calc_instances", "power_curve",
    "curve_highlights", "standardized_effect", "validate_design",
    "t_cdf", "t_quantile", "noncentral_t_cdf", "noncentral_t_quantile",
    "DiffKind", "SEMethod", "InstanceSample", "PairedDifference",
    "FiellerCoefficients", "BootstrapConfig", "phi_simple", "phi_percent",
    "se_simple", "se_percent",
    "optimal_ratio_simple", "optimal_ratio_percent", "bootstrap_se",
    "bootstrap_sdm", "SamplingConfig", "SamplingOutcome", "calc_nreps",
    "AlgorithmKind", "AlgorithmSpec", "InstanceRef", "RunResult", "Runner",
    "run_once", "make_runner", "build_synthetic_pool", "build_tsp_instance",
    "TestReport", "DiagnosticsBundle", "paired_t_test", "wilcoxon_signed_rank",
    "sign_test", "qq_normal", "build_diagnostics", "hodges_lehmann",
    "ExperimentPlan", "run_experiment",
    "PaircompError", "ConfigError", "AssumptionViolationError",
    "DegenerateRatioError", "DegenerateDataError", "RunnerError",
    "ExperimentAbortedError",
]

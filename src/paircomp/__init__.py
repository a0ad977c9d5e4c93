"""paircomp: statistically sound comparison of two stochastic algorithms.

Plans how many problem instances a comparison needs for a target power,
adaptively decides how many runs each algorithm gets on each instance to
meet a standard-error budget, and performs the final paired test with
normality diagnostics.
"""

from .design import (Alternative, ComparisonDesign, SampleSizeResult,
                     TestFamily, calc_instances, calc_power, curve_highlights,
                     power_curve, validate_design)
from .distributions import noncentral_t_cdf, t_cdf, t_quantile
from .errors import (AssumptionViolationError, ConfigError, DegenerateDataError,
                     ExperimentAbortedError, PaircompError, RunnerError)
from .estimators import (DiffKind, InstanceSample, PairedDifference,
                         SEMethod, bootstrap_sdm, bootstrap_se,
                         optimal_ratio_percent, optimal_ratio_simple,
                         phi_percent, phi_simple, se_percent, se_simple)
from .experiment import ExperimentPlan, run_experiment
from .hypotests import (DiagnosticsBundle, TestReport, build_diagnostics,
                        paired_t_test, qq_normal, sign_test,
                        wilcoxon_signed_rank)
from .runners import (AlgorithmKind, AlgorithmSpec, InstanceRef,
                      build_synthetic_pool, build_tsp_instance)
from .sampler import SamplingConfig, calc_nreps

__version__ = "0.1.0"

__all__ = [
    "Alternative", "TestFamily", "ComparisonDesign", "SampleSizeResult",
    "calc_power", "calc_instances", "power_curve", "curve_highlights",
    "validate_design",
    "t_cdf", "t_quantile", "noncentral_t_cdf",
    "DiffKind", "SEMethod", "InstanceSample", "PairedDifference",
    "phi_simple", "phi_percent",
    "se_simple", "se_percent",
    "optimal_ratio_simple", "optimal_ratio_percent", "bootstrap_se",
    "bootstrap_sdm", "SamplingConfig", "calc_nreps",
    "AlgorithmKind", "AlgorithmSpec", "InstanceRef",
    "build_synthetic_pool", "build_tsp_instance",
    "TestReport", "DiagnosticsBundle", "paired_t_test", "wilcoxon_signed_rank",
    "sign_test", "qq_normal", "build_diagnostics",
    "ExperimentPlan", "run_experiment",
    "PaircompError", "ConfigError", "AssumptionViolationError",
    "DegenerateDataError", "RunnerError", "ExperimentAbortedError",
]

"""Long-horizon decay-rate analysis of one-step methods for the linear
stochastic oscillator x'' + x = alpha * dW/dt.

Exact Gaussian laws for the continuous solution and for any admissible
one-step method, the per-step and modified decay rates of the two path
observables, preservation verdicts, Monte Carlo backing, and a search for
methods that preserve a decay rate exactly.
"""

from .oscillator import GaussianLaw, MEAN_POSITION, MEAN_VELOCITY, \
    OBSERVABLES, OscillatorParams, PathSample, RateFunction, \
    continuous_log_mgf_coefficient, continuous_rate, mean_position_law, \
    sample_exact_path, terminal_position_law
from .methods import ConditionBDiagnostics, ConditionReport, MethodDef, \
    MethodFileError, catalog, check_conditions, condition_b_diagnostics, \
    evaluate, evaluate_symbolic, format_method_file, get_method, \
    parse_method_file
from .spectral import NearDegenerateError, SpectralData, spectral_data
from .laws import AugmentedMoments, IntervalProbability, gaussian_tail_bound, \
    interval_probability, law_NA_N, law_x_N, oracle_moments
from .ldp import DEFAULT_H_SWEEP, InternalInvariantError, LdpClassification, \
    PreservationReport, VERDICT_ASYMPTOTIC, VERDICT_EXACT, \
    VERDICT_EXACT_NUMERIC, VERDICT_NONE, exact_preservation_search, \
    finite_N_decay_rate, legendre_transform, log_mgf_coefficient, \
    observable_law, preservation_report, rate_function, symplectic_numerators
from .sim import MsqReport, SimConfig, SimResult, fit_loglog_slope, \
    msq_order, simulate_paths, thread_count

__version__ = "0.1.0"

__all__ = [
    "AugmentedMoments", "ConditionBDiagnostics", "ConditionReport",
    "DEFAULT_H_SWEEP", "GaussianLaw", "IntervalProbability",
    "InternalInvariantError", "LdpClassification", "MEAN_POSITION",
    "MEAN_VELOCITY", "MethodDef", "MethodFileError", "MsqReport",
    "NearDegenerateError", "OBSERVABLES", "OscillatorParams", "PathSample",
    "PreservationReport", "RateFunction", "SimConfig", "SimResult",
    "SpectralData", "VERDICT_ASYMPTOTIC", "VERDICT_EXACT",
    "VERDICT_EXACT_NUMERIC", "VERDICT_NONE", "catalog", "check_conditions",
    "condition_b_diagnostics", "continuous_log_mgf_coefficient",
    "continuous_rate", "evaluate", "evaluate_symbolic",
    "exact_preservation_search", "finite_N_decay_rate", "fit_loglog_slope",
    "format_method_file", "gaussian_tail_bound", "get_method",
    "interval_probability", "law_NA_N", "law_x_N", "legendre_transform",
    "log_mgf_coefficient", "mean_position_law", "msq_order", "observable_law",
    "oracle_moments", "parse_method_file", "preservation_report",
    "rate_function", "sample_exact_path", "simulate_paths", "spectral_data",
    "symplectic_numerators", "terminal_position_law", "thread_count",
]

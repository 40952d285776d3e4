"""Moment estimators for the Gamma, Beta, Uniform and Fisher laws, their
joint Gaussian asymptotics via quadratic influence functions, marginal and
omnibus chi-square tests, and a reproducible Monte-Carlo calibration
harness."""

from .asymptotics import (CoefficientMode, Covariance2, QuadraticInfluence,
                          SigmaMethod, covariance_exact_moments,
                          covariance_exact_quadrature, covariance_plugin,
                          covariance_replication, delta_gradient,
                          influence_pair, sigma_for)
from .errors import (DegenerateSampleError, DomainError,
                     InfeasibleMomentError, InsufficientDataError,
                     MomentDomainError, MomestError, QuadratureError,
                     SampleParseError, SingularCovarianceError)
from .estimation import (EmpiricalMoments, ParamEstimate, empirical_moments,
                         estimate)
from .laws import (LawKind, LawSpec, MomentSet, cdf, pdf, quantile, sample,
                   theoretical_moments)
from .montecarlo import (ErrorStats, SimulationConfig, SimulationReport,
                         error_table, parzen_density, qq_plot_data,
                         ratio_table, run_simulation, silverman_bandwidth)
from .reportio import report_to_dict, write_report
from .rng import Stream, substream_seed
from .significance import TestReport, marginal_test, omnibus_test
from .special import (COARSE_QUAD_CONFIG, DEFAULT_QUAD_CONFIG,
                      QuadratureConfig, chisq_cdf, chisq_quantile, chisq_sf,
                      ln_gamma, normal_cdf, normal_quantile, normal_sf,
                      reg_inc_beta, reg_inc_gamma, trapezoid_integrate)

__version__ = "0.1.0"

__all__ = [
    "CoefficientMode", "Covariance2", "QuadraticInfluence", "SigmaMethod",
    "covariance_exact_moments", "covariance_exact_quadrature",
    "covariance_plugin", "covariance_replication", "delta_gradient",
    "influence_pair", "sigma_for",
    "DegenerateSampleError", "DomainError", "InfeasibleMomentError",
    "InsufficientDataError", "MomentDomainError", "MomestError",
    "QuadratureError", "SampleParseError", "SingularCovarianceError",
    "EmpiricalMoments", "ParamEstimate", "empirical_moments", "estimate",
    "LawKind", "LawSpec", "MomentSet", "cdf", "pdf", "quantile", "sample",
    "theoretical_moments",
    "ErrorStats", "SimulationConfig", "SimulationReport", "error_table",
    "parzen_density", "qq_plot_data", "ratio_table", "run_simulation",
    "silverman_bandwidth",
    "report_to_dict", "write_report",
    "Stream", "substream_seed",
    "TestReport", "marginal_test", "omnibus_test",
    "COARSE_QUAD_CONFIG", "DEFAULT_QUAD_CONFIG", "QuadratureConfig",
    "chisq_cdf", "chisq_quantile", "chisq_sf", "ln_gamma", "normal_cdf",
    "normal_quantile", "normal_sf", "reg_inc_beta", "reg_inc_gamma",
    "trapezoid_integrate",
]

"""The public surface of the package: ``momest.__all__`` lists each public
name once, and each resolves to an object of the package."""

import importlib

import pytest

import momest

MODULES = ("asymptotics", "errors", "estimation", "laws", "montecarlo",
           "reportio", "rng", "significance", "special")

PUBLIC = [
    'CoefficientMode', 'Covariance2', 'DEFAULT_QUAD_CONFIG',
    'DegenerateSampleError', 'DomainError', 'EmpiricalMoments', 'ErrorStats',
    'InfeasibleMomentError', 'InsufficientDataError', 'LawKind', 'LawSpec',
    'MomentDomainError', 'MomentSet', 'MomestError', 'ParamEstimate',
    'QuadraticInfluence', 'QuadratureConfig', 'QuadratureError', 'RowStreams',
    'SampleParseError', 'SigmaMethod', 'SimulationConfig', 'SimulationReport',
    'SingularCovarianceError', 'Stream', 'TestReport', 'Workspace', 'cdf',
    'chisq_cdf', 'chisq_quantile', 'chisq_sf', 'covariance_exact_moments',
    'covariance_exact_quadrature', 'covariance_plugin',
    'covariance_replication', 'delta_gradient', 'empirical_moments',
    'error_table', 'estimate', 'estimate_rows', 'influence_pair', 'ln_gamma',
    'marginal_test', 'normal_cdf', 'normal_quantile', 'normal_sf',
    'omnibus_test', 'parzen_density', 'pdf', 'plugin_rows', 'qq_plot_data',
    'quantile', 'ratio_table', 'reg_inc_beta', 'reg_inc_gamma',
    'report_to_dict', 'run_simulation', 'sample', 'sample_rows', 'sigma_for',
    'silverman_bandwidth', 'substream_seed', 'theoretical_moments',
    'trapezoid_integrate', 'write_report',
]


def test_public_names_pinned():
    assert len(PUBLIC) == 65
    assert sorted(momest.__all__) == PUBLIC


def test_no_name_listed_twice():
    assert len(set(momest.__all__)) == len(momest.__all__)


def test_each_name_resolves():
    for name in momest.__all__:
        assert getattr(momest, name) is not None, name


@pytest.mark.parametrize("module", MODULES)
def test_module_names_are_exported(module):
    """Each module's ``__all__`` is what the package exports of it."""
    names = importlib.import_module(f"momest.{module}").__all__
    assert set(names) <= set(momest.__all__)

"""A fifth law is one record: a lognormal record, defined here and put in
the place of the Gamma record, runs through estimation, both exact Σ
routes, the replication harness, the report writer and the CLI with no
other module changed.

The lognormal law has parameters (mu, s2), log X ~ Normal(mu, s2).  Its
moment estimators are s2 = log(1 + S2 / Xbar^2) and mu = log Xbar - s2 / 2,
so as a map of the raw moments (m1, m2), mu = 2 log m1 - log(m2) / 2 and
s2 = log m2 - 2 log m1.
"""

import math

import numpy as np
import pytest

from momest import (DegenerateSampleError, DomainError,
                    InfeasibleMomentError, LawKind, LawSpec, SigmaMethod,
                    SimulationConfig, covariance_exact_moments,
                    covariance_exact_quadrature, empirical_moments, estimate,
                    estimate_rows, influence_pair, laws, run_simulation,
                    sample_rows, theoretical_moments, write_report)
from momest.cli import EXIT_OK, main
from momest.special import normal_cdf, normal_quantile

MU, S2 = -0.5, 0.25


class _Lognormal(laws._Family):
    """Lognormal(a, b): log X ~ Normal(a, b), any mean a and variance
    b > 0; sampled as exp(a + sqrt(b) Z) on the documented normals."""

    domain = "b > 0"

    def in_domain(self, a, b):
        return b > 0.0

    def density(self, a, b):
        c0 = -0.5 * math.log(2.0 * math.pi * b)
        return lambda x: np.exp(c0 - np.log(x) - (np.log(x) - a) ** 2
                                / (2.0 * b))

    def cdf(self, a, b, xs):
        with np.errstate(divide="ignore"):  # log 0 = -inf, cdf 0
            z = (np.log(np.maximum(xs, 0.0)) - a) / math.sqrt(b)
        return np.asarray(normal_cdf(z))

    def quantile(self, a, b, us):
        return np.exp(a + math.sqrt(b) * np.asarray(normal_quantile(us)))

    def draw(self, a, b, streams, ws, n):
        x = streams.normals(n)
        x *= math.sqrt(b)
        x += a
        return np.exp(x, out=x)

    def raw_moment(self, a, b, k):
        return math.exp(k * a + 0.5 * k * k * b)

    def variance(self, a, b):
        return math.expm1(b) * math.exp(2.0 * a + b)

    def conditions(self, mean, msq, s2, vb):
        return [(mean > 0.0, InfeasibleMomentError,
                 "lognormal estimator requires mean > 0, got {}", mean),
                (s2 > 0.0, DegenerateSampleError,
                 "lognormal estimator requires S^2 > 0, got {}", s2)]

    def estimator(self, mean, msq, s2, vb):
        s2_hat = np.log1p(s2 / (mean * mean))
        return np.log(mean) - 0.5 * s2_hat, s2_hat

    def gradient(self, m1, m2, d):
        return 2.0 / m1, -0.5 / m2, -2.0 / m1, 1.0 / m2


@pytest.fixture
def lognormal(monkeypatch):
    """The lognormal law (MU, S2), reached through the GAMMA kind."""
    monkeypatch.setitem(laws._FAMILIES, LawKind.GAMMA, _Lognormal())
    return LawSpec.gamma(MU, S2)


def test_the_record_owns_the_domain(lognormal):
    assert str(lognormal) == "gamma(-0.5, 0.25)"
    with pytest.raises(DomainError) as info:
        LawSpec.gamma(MU, 0.0)
    assert str(info.value) == "gamma law requires b > 0, got (-0.5, 0.0)"


def test_moments(lognormal):
    mom = theoretical_moments(lognormal)
    assert mom.require(1) == pytest.approx(math.exp(MU + 0.5 * S2))
    assert mom.variance == pytest.approx(mom.require(2) - mom.require(1) ** 2)


def test_influence_pair_is_the_gradient(lognormal):
    m1 = math.exp(MU + 0.5 * S2)
    m2 = math.exp(2.0 * MU + 2.0 * S2)
    h, l = influence_pair(lognormal)
    assert (h.c1, h.c2, l.c1, l.c2) == pytest.approx(
        (2.0 / m1, -0.5 / m2, -2.0 / m1, 1.0 / m2), rel=1e-15)
    # center = c1 m1 + c2 m2
    assert h.center == pytest.approx(2.0 - 0.5, rel=1e-15)
    assert l.center == pytest.approx(-2.0 + 1.0, rel=1e-15)


def test_exact_routes_agree(lognormal):
    h, l = influence_pair(lognormal)
    moments = covariance_exact_moments(lognormal, h, l)
    quadrature = covariance_exact_quadrature(lognormal, h, l)
    for entry in ("s11", "s22", "s12"):
        assert getattr(quadrature, entry) == pytest.approx(
            getattr(moments, entry), rel=1e-6)


def test_estimate_rows_on_sample_rows(lognormal):
    x = sample_rows(lognormal, 400, range(1, 201))
    assert np.all(x > 0.0)
    a_hat, b_hat, feasible = estimate_rows(LawKind.GAMMA, x)
    assert feasible.all()
    first = estimate(LawKind.GAMMA, empirical_moments(x[0]))
    assert (first.a_hat, first.b_hat) == (a_hat[0], b_hat[0])
    # 200 estimates at n = 400: the means sit within a few standard errors
    assert np.mean(a_hat) == pytest.approx(MU, abs=0.01)
    assert np.mean(b_hat) == pytest.approx(S2, abs=0.01)


def test_run_simulation_and_report(lognormal, tmp_path):
    cfg = SimulationConfig(law=lognormal, n=400, replications=2000,
                           master_seed=2112,
                           sigma_methods=(SigmaMethod.EXACT_MOMENTS,
                                          SigmaMethod.REPLICATION))
    report = run_simulation(cfg)
    assert report.feasible == 2000
    for rate in report.omnibus_rates.values():
        assert 0.03 < rate < 0.08
    names = {path.name for path in write_report(report, tmp_path)}
    assert "report.json" in names and "omnibus.csv" in names


def test_cli_coeffs(lognormal, capsys):
    assert main(["coeffs", "gamma", "-0.5", "0.25"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("law: gamma(-0.5, 0.25)   mode: canonical\n")
    assert "sigma [exact-moments]: s11=" in out
    assert "sigma [exact-quadrature]: s11=" in out

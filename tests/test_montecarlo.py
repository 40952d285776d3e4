"""The replication harness: hand-checkable small cases, determinism across
worker counts, exclusion accounting, tables and figure data."""

import math
import re
import multiprocessing
import sys
import threading

import numpy as np
import pytest

from momest import (CoefficientMode, Covariance2, DegenerateSampleError,
                    DomainError,
                    InsufficientDataError, LawKind, LawSpec, MomestError,
                    SigmaMethod,
                    SimulationConfig, SingularCovarianceError,
                    covariance_exact_moments, empirical_moments, error_table,
                    estimate, influence_pair, marginal_test, normal_quantile,
                    omnibus_test, parzen_density, qq_plot_data, ratio_table,
                    run_simulation, sample, sigma_for, substream_seed,
                    write_report)
from momest import asymptotics, cli, montecarlo
from momest.montecarlo import _aggregate_plugin

GAMMA23 = LawSpec.gamma(2.0, 3.0)
ACCEPTANCE_LAWS = (GAMMA23, LawSpec.beta(2.0, 3.0), LawSpec.uniform(0.0, 1.0),
                   LawSpec.fisher(5.0, 12.0))


def bundle_bytes(report, out):
    write_report(report, out)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestRunSimulationSmall:
    def test_two_by_two_hand_check(self):
        """B=2, n=2 uniform run recomputed from first principles."""
        law = LawSpec.uniform(0.0, 1.0)
        cfg = SimulationConfig(law=law, n=2, replications=2, master_seed=555)
        report = run_simulation(cfg)
        h, l = influence_pair(law)
        for j in (1, 2):
            x = sample(law, 2, substream_seed(555, j))
            em = empirical_moments(x)
            est = estimate(LawKind.UNIFORM, em)
            k = j - 1
            assert report.a_hat[k] == est.a_hat
            assert report.b_hat[k] == est.b_hat
            assert report.dev_a[k] == math.sqrt(2.0) * (est.a_hat - 0.0)
            assert report.dev_b[k] == math.sqrt(2.0) * (est.b_hat - 1.0)
            hv = h.evaluate(x)
            assert report.sd_h[k] == pytest.approx(
                float(np.std(hv, ddof=1)), rel=1e-12)
        assert report.infeasible_count == 0
        assert report.feasible == 2

    def test_exclusion_accounting(self):
        law = LawSpec.fisher(5.0, 10.0)
        cfg = SimulationConfig(law=law, n=3, replications=300,
                               master_seed=31337,
                               sigma_methods=(SigmaMethod.REPLICATION,))
        report = run_simulation(cfg)
        assert type(report.infeasible_count) is int
        assert report.infeasible_count > 0
        for arr in (report.a_hat, report.b_hat, report.dev_a, report.dev_b,
                    report.sd_h, report.sd_l, report.cov_hl):
            assert arr.size + report.infeasible_count == cfg.replications

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SimulationConfig(law=GAMMA23, n=1, replications=10, master_seed=1)
        with pytest.raises(DomainError):
            SimulationConfig(law=GAMMA23, n=10, replications=1, master_seed=1)
        with pytest.raises(DomainError):
            SimulationConfig(law=GAMMA23, n=10, replications=10,
                             master_seed=1, sigma_methods=())

    def test_repeated_sigma_method_refused(self):
        with pytest.raises(DomainError, match="must not repeat"):
            SimulationConfig(law=GAMMA23, n=10, replications=10,
                             master_seed=1,
                             sigma_methods=(SigmaMethod.PLUGIN,
                                            SigmaMethod.EXACT_MOMENTS,
                                            SigmaMethod.PLUGIN))

    @pytest.mark.parametrize("law, method, match", [
        (LawSpec.fisher(5.0, 7.0), SigmaMethod.EXACT_MOMENTS,
         "fourth moment requires b > 8"),
        (LawSpec.fisher(5.0, 8.1), SigmaMethod.EXACT_QUADRATURE,
         "upper tail has not settled"),
    ], ids=["moments", "quadrature"])
    def test_refused_exact_sigma_fails_before_replications(
            self, monkeypatch, law, method, match):
        def no_block(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(montecarlo, "_simulate_block", no_block)
        cfg = SimulationConfig(law=law, n=50, replications=30, master_seed=2,
                               sigma_methods=(SigmaMethod.REPLICATION,
                                              method))
        # the memo of a law's exact Σ stores no refusal: every study raises
        for _ in range(2):
            with pytest.raises(MomestError, match=match):
                run_simulation(cfg)


class TestDeterminism:
    def test_worker_count_does_not_change_results(self):
        cfg = SimulationConfig(law=GAMMA23, n=50, replications=60,
                               master_seed=97)
        serial = run_simulation(cfg, workers=1)
        parallel = run_simulation(cfg, workers=2)
        for field in ("a_hat", "b_hat", "dev_a", "dev_b", "sd_h", "sd_l",
                      "cov_hl"):
            assert np.array_equal(getattr(serial, field),
                                  getattr(parallel, field))
        assert serial.marginal_rates == parallel.marginal_rates
        assert serial.omnibus_rates == parallel.omnibus_rates
        assert serial.ratios == parallel.ratios

    def test_workers_below_one_rejected(self):
        cfg = SimulationConfig(law=GAMMA23, n=20, replications=10,
                               master_seed=1)
        for workers in (0, -3):
            with pytest.raises(DomainError, match="workers must be >= 1"):
                run_simulation(cfg, workers=workers)

    def test_non_integer_workers_refused(self):
        cfg = SimulationConfig(law=GAMMA23, n=20, replications=10,
                               master_seed=1)
        with pytest.raises(DomainError) as info:
            run_simulation(cfg, workers=1.5)
        assert str(info.value) == "workers must be an integer, got 1.5"

    def test_threads_leave_nothing_running(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 4)
        cfg = SimulationConfig(law=GAMMA23, n=50, replications=60,
                               master_seed=97)
        before = threading.active_count()
        run_simulation(cfg, workers=2)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == before

    def test_concurrent_callers_equal_serial(self, tmp_path, monkeypatch):
        """Two studies run at once from two threads, each on its own pool,
        with frequent thread switches: nothing global may be shared."""
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 4)
        cfgs = [SimulationConfig(law=GAMMA23, n=200, replications=300,
                                 master_seed=11),
                SimulationConfig(law=LawSpec.fisher(5.0, 12.0), n=60,
                                 replications=500, master_seed=12,
                                 sigma_methods=tuple(SigmaMethod))]

        def bundle(report, name):
            write_report(report, tmp_path / name)
            return {p.name: p.read_bytes()
                    for p in sorted((tmp_path / name).iterdir())}

        serial = [bundle(run_simulation(cfg), f"serial{k}")
                  for k, cfg in enumerate(cfgs)]
        reports = [None, None]

        def study(k):
            reports[k] = run_simulation(cfgs[k], workers=2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=study, args=(k,))
                       for k in range(2)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for k, report in enumerate(reports):
            assert bundle(report, f"threaded{k}") == serial[k]

    def test_rerun_identical(self):
        cfg = SimulationConfig(law=LawSpec.beta(2.0, 3.0), n=40,
                               replications=50, master_seed=4242)
        r1 = run_simulation(cfg)
        r2 = run_simulation(cfg)
        assert np.array_equal(r1.dev_a, r2.dev_a)
        assert r1.error_a == r2.error_a


class TestLawConstantsMemo:
    """Studies of one law, coefficient mode and set of exact Σ routes share
    the influence pair and exact Σs of the first; n, the seed and the
    worker count change nothing of them, and no report bit changes.  The
    one-shot commands stay outside the memo."""

    @pytest.fixture
    def quadratures(self, monkeypatch):
        """The laws the exact-quadrature route runs on, in call order, from
        a cleared memo."""
        calls = []
        real = asymptotics.covariance_exact_quadrature

        def spy(law, h, l, *args):
            calls.append(law)
            return real(law, h, l, *args)

        monkeypatch.setattr(asymptotics, "covariance_exact_quadrature", spy)
        montecarlo._law_constants.cache_clear()
        return calls

    @staticmethod
    def study(law, n=50, seed=7, workers=1, **fields):
        return run_simulation(SimulationConfig(
            law=law, n=n, replications=40, master_seed=seed,
            sigma_methods=tuple(SigmaMethod), **fields), workers)

    def test_studies_of_a_law_compute_quadrature_once(self, quadratures):
        fisher = LawSpec.fisher(5.0, 12.0)
        first = self.study(fisher, n=50, seed=3)
        second = self.study(fisher, n=80, seed=4, workers=2)
        assert quadratures == [fisher]
        assert second.sigma_exact is first.sigma_exact
        assert second.influence_a is first.influence_a
        self.study(fisher, coefficient_mode=CoefficientMode.VERBATIM)
        assert quadratures == [fisher, fisher]

    def test_warm_bundles_equal_cold(self, tmp_path):
        for law in ACCEPTANCE_LAWS:
            montecarlo._law_constants.cache_clear()
            cold = bundle_bytes(self.study(law), tmp_path / f"{law}-cold")
            warm = bundle_bytes(self.study(law), tmp_path / f"{law}-warm")
            assert montecarlo._law_constants.cache_info().hits == 1
            assert warm == cold

    @pytest.mark.parametrize("params", [
        ((0.0, 1.0), (-0.0, 1.0)), ((-1.0, 0.0), (-1.0, -0.0)),
        ((-0.0, 1.0), (0.0, 1.0)), ((-1.0, -0.0), (-1.0, 0.0)),
    ], ids=["+0-then-0", "b+0-then-0", "-0-then+0", "b-0-then+0"])
    def test_signed_zero_parameters_equal_their_cold_runs(self, tmp_path,
                                                          params):
        """``LawSpec`` equality does not tell -0.0 from 0.0, so the second
        law of each pair reads the first one's memo entry; its influence
        pair and exact Σs have the same bits, so its bundle is that of a
        cold run."""
        laws = [LawSpec.uniform(*p) for p in params]
        assert laws[0] == laws[1]
        cold = []
        for k, law in enumerate(laws):
            montecarlo._law_constants.cache_clear()
            cold.append(bundle_bytes(self.study(law), tmp_path / f"cold{k}"))
        assert cold[0] != cold[1]  # the sign of zero shows in the bundle
        montecarlo._law_constants.cache_clear()
        for k, law in enumerate(laws):
            warm = bundle_bytes(self.study(law), tmp_path / f"warm{k}")
            assert warm == cold[k]
        assert montecarlo._law_constants.cache_info().hits == 1

    def test_one_shot_commands_compute_sigma_every_call(self, quadratures,
                                                        tmp_path, capsys):
        law = LawSpec.gamma(2.0, 3.0)
        path = tmp_path / "sample.txt"
        path.write_text("".join(f"{v!r}\n"
                                for v in sample(law, 300, 5).tolist()))
        argv = ["test", "gamma", "2", "3", "--input", str(path),
                "--sigma", "exact-quadrature"]
        for _ in range(2):
            assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_REJECT)
        assert quadratures == [law, law]
        for _ in range(2):
            assert cli.main(["coeffs", "gamma", "2", "3"]) == cli.EXIT_OK
        assert quadratures == [law] * 4
        capsys.readouterr()


class TestEqualConfigurationsEqualBytes:
    """A configuration is stored in its canonical types, floats for the
    law's parameters, ints for the counts and the seed, and enum members
    for the coefficient mode and the sigma methods, so equal
    configurations write equal bundles; a count or seed of another type,
    or an unknown mode or method, is refused before a replication runs."""

    @staticmethod
    def bundle(tmp_path, law, n=20, replications=10, master_seed=5):
        cfg = SimulationConfig(law=law, n=n, replications=replications,
                               master_seed=master_seed)
        out = tmp_path / f"{law!r}{n!r}{replications!r}{master_seed!r}"
        write_report(run_simulation(cfg), out)
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @pytest.mark.parametrize("law", [
        LawSpec.gamma(2, 3),
        LawSpec.gamma(np.int64(2), np.float32(3.0)),
    ], ids=["int", "numpy"])
    def test_parameter_types(self, tmp_path, law):
        assert law == GAMMA23
        assert type(law.p1) is float and type(law.p2) is float
        assert self.bundle(tmp_path, law) == self.bundle(tmp_path, GAMMA23)

    def test_numpy_integer_counts(self, tmp_path):
        numpy_counts = self.bundle(tmp_path, GAMMA23, n=np.int64(20),
                                   replications=np.int64(10),
                                   master_seed=np.int64(5))
        assert numpy_counts == self.bundle(tmp_path, GAMMA23)

    @pytest.mark.parametrize("field, value", [
        ("n", 20.0), ("replications", "10"), ("master_seed", 5.0),
    ])
    def test_non_integer_count_refused(self, field, value):
        fields = dict(law=GAMMA23, n=20, replications=10, master_seed=5)
        fields[field] = value
        with pytest.raises(DomainError) as info:
            SimulationConfig(**fields)
        assert str(info.value) == f"{field} must be an integer, got {value!r}"


    def test_enum_values_canonicalised(self, tmp_path):
        """A coefficient mode and sigma methods given by their values are
        stored as the enum members, so the study runs in that mode and its
        bundle is written."""
        fields = dict(law=GAMMA23, n=20, replications=10, master_seed=5)
        by_value = SimulationConfig(**fields, coefficient_mode="canonical",
                                    sigma_methods=["plugin", "replication"])
        by_member = SimulationConfig(
            **fields, coefficient_mode=CoefficientMode.CANONICAL,
            sigma_methods=(SigmaMethod.PLUGIN, SigmaMethod.REPLICATION))
        assert by_value == by_member
        assert type(by_value.coefficient_mode) is CoefficientMode
        assert type(by_value.sigma_methods) is tuple
        assert all(type(m) is SigmaMethod for m in by_value.sigma_methods)
        bundles = []
        for cfg in (by_value, by_member):
            out = tmp_path / str(len(bundles))
            write_report(run_simulation(cfg), out)
            bundles.append({p.name: p.read_bytes()
                            for p in sorted(out.iterdir())})
        assert bundles[0] == bundles[1]

    @pytest.mark.parametrize("field, value, what", [
        ("coefficient_mode", "paper", "coefficient mode"),
        ("sigma_methods", ("plugin", "bogus"), "sigma method"),
    ])
    def test_unknown_enum_value_refused(self, monkeypatch, field, value,
                                        what):
        def no_block(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(montecarlo, "_simulate_block", no_block)
        fields = dict(law=GAMMA23, n=20, replications=10, master_seed=5)
        fields[field] = value
        with pytest.raises(DomainError, match=f"unknown {what}"):
            run_simulation(SimulationConfig(**fields))

class TestErrorTable:
    def test_exact_estimates(self):
        ea, eb = error_table([2.0, 2.0], [3.0, 3.0], 2.0, 3.0)
        assert (ea.me, ea.mae, ea.rmse) == (0.0, 0.0, 0.0)
        assert (eb.me, eb.mae, eb.rmse) == (0.0, 0.0, 0.0)

    def test_symmetric_errors(self):
        ea, _ = error_table([1.0, 3.0], [0.0, 0.0], 2.0, 0.0)
        assert ea.me == 0.0
        assert ea.mae == 1.0
        assert ea.rmse == 1.0

    def test_jensen_orderings(self):
        rng_vals = sample(GAMMA23, 500, 3)
        ea, _ = error_table(rng_vals, rng_vals, 0.5, 0.5)
        assert ea.rmse >= abs(ea.me) - 1e-12
        assert ea.mae <= ea.rmse + 1e-12

    def test_sd_column_drops_bias(self):
        ea, _ = error_table([1.0, 3.0], [0.0, 0.0], 0.0, 0.0)  # biased by 2
        assert ea.rmse == pytest.approx(math.sqrt(5.0), rel=1e-12)
        assert ea.sd == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_empty(self):
        with pytest.raises(InsufficientDataError):
            error_table([], [], 1.0, 2.0)


class TestRatioTable:
    def test_exact_inputs_give_unit_ratios(self):
        h, l = influence_pair(GAMMA23)
        sig = covariance_exact_moments(GAMMA23, h, l)
        ones = np.ones(100)
        ratios = ratio_table(math.sqrt(sig.s11) * ones,
                             math.sqrt(sig.s22) * ones,
                             sig.s12 * ones, sig, sig)
        for value in ratios.values():
            assert value == pytest.approx(1.0, rel=1e-12)
        assert set(ratios) == {"a_plugin", "b_plugin", "ab_plugin",
                               "a_replication", "b_replication",
                               "ab_replication"}

    def test_verbatim_aggregation_order(self):
        sd = np.array([1.0, 3.0])
        s_avg_sq = _aggregate_plugin(sd, sd, sd, CoefficientMode.VERBATIM)
        s_sq_avg = _aggregate_plugin(sd, sd, sd, CoefficientMode.CANONICAL)
        assert s_avg_sq[0] == pytest.approx(4.0)   # (mean sd)^2
        assert s_sq_avg[0] == pytest.approx(5.0)   # mean(sd^2)

    def test_zero_exact_entry(self):
        h, l = influence_pair(GAMMA23)
        sig = covariance_exact_moments(GAMMA23, h, l)
        from momest import Covariance2
        broken = Covariance2.build(1.0, 1.0, 0.0, SigmaMethod.EXACT_MOMENTS)
        with pytest.raises(DomainError):
            ratio_table(np.ones(3), np.ones(3), np.ones(3), sig, broken)

    def test_canonical_ratios_approach_one(self):
        cfg = SimulationConfig(law=GAMMA23, n=5000, replications=2000,
                               master_seed=2718)
        report = run_simulation(cfg)
        for key, value in report.ratios.items():
            assert value == pytest.approx(1.0, rel=0.10), key

    def test_verbatim_plugin_ratio_near_historical_value(self):
        # with the verbatim coefficients at n=100 the plugin variance ratio
        # sits a hair under one (historical tables report 98.12%)
        cfg = SimulationConfig(law=GAMMA23, n=100, replications=1000,
                               master_seed=1912,
                               coefficient_mode=CoefficientMode.VERBATIM)
        report = run_simulation(cfg)
        assert report.sigma_exact.s11 == pytest.approx(62.0, rel=1e-10)
        assert report.ratios["a_plugin"] == pytest.approx(0.9812, rel=0.10)


class TestQQPlot:
    def test_normal_scores_on_diagonal(self):
        n = 101
        scores = np.asarray(normal_quantile(
            (np.arange(1, n + 1) - 0.5) / n))
        pairs = qq_plot_data(scores)
        assert np.max(np.abs(pairs[:, 0] - pairs[:, 1])) <= 1e-12

    def test_two_values(self):
        pairs = qq_plot_data([1.0, -1.0])
        assert pairs[0, 0] == pytest.approx(normal_quantile(0.25), rel=1e-12)
        assert pairs[0, 1] == -1.0
        assert pairs[1, 0] == pytest.approx(normal_quantile(0.75), rel=1e-12)
        assert pairs[1, 1] == 1.0

    def test_normal_sample_correlation(self):
        from momest import Stream
        z = Stream(1618).normals(5000)
        pairs = qq_plot_data(z)
        corr = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
        assert corr >= 0.999

    def test_too_few(self):
        with pytest.raises(InsufficientDataError):
            qq_plot_data([0.0])

    def test_returned_array_is_the_callers_own(self):
        """The quantile column is computed once per size and shared; an
        array a call returned can be written without moving the next
        call's bits."""
        values = [0.3, -1.2, 2.0, 0.7]
        first = qq_plot_data(values)
        want = first.tobytes()
        first[:] = 9.0
        assert qq_plot_data(values).tobytes() == want

    def test_refuses_non_finite(self):
        """The index is that of the value given, not of the sorted one."""
        with pytest.raises(DomainError, match=r"^sample has 2 non-finite "
                           r"value\(s\), the first at index 2$"):
            qq_plot_data([3.0, 1.0, float("nan"), -float("inf")])


class TestParzen:
    def test_single_kernel_identity(self):
        curve = parzen_density([2.0, 2.0, 2.0], 0.0, 4.0, 81, bandwidth=1.0)
        xs, dens = curve[:, 0], curve[:, 1]
        want = np.exp(-0.5 * (xs - 2.0) ** 2) / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(dens - want)) <= 1e-12

    def test_normalization(self):
        from momest import Stream
        values = Stream(99).normals(2000)
        bw = 0.3
        curve = parzen_density(values, float(values.min()) - 8 * bw,
                               float(values.max()) + 8 * bw, 2001,
                               bandwidth=bw)
        mass = np.trapezoid(curve[:, 1], curve[:, 0])
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_matches_normal_density(self):
        from momest import Stream
        values = Stream(123).normals(5000)
        curve = parzen_density(values, -3.0, 3.0, 121)
        phi = np.exp(-0.5 * curve[:, 0] ** 2) / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(curve[:, 1] - phi)) <= 0.03

    def test_zero_spread_needs_bandwidth(self):
        with pytest.raises(DegenerateSampleError):
            parzen_density([1.0, 1.0], 0.0, 2.0, 11)

    @pytest.mark.parametrize("values", [[], [1.0]])
    def test_bandwidth_needs_two_values(self, values):
        """Raised before numpy warns (nan for one value) or indexes an
        empty percentile."""
        with pytest.raises(InsufficientDataError, match="at least 2 values"):
            montecarlo.silverman_bandwidth(values)

    def test_bandwidth_refuses_non_finite(self):
        with pytest.raises(DomainError, match=r"^sample has 1 non-finite "
                           r"value\(s\), the first at index 1$"):
            montecarlo.silverman_bandwidth([1.0, float("nan"), 2.0])

    @pytest.mark.parametrize("bandwidth", [None, 0.5])
    def test_refuses_non_finite(self, bandwidth):
        """Raised before numpy warns, with or without a bandwidth."""
        with pytest.raises(DomainError, match=r"^sample has 1 non-finite "
                           r"value\(s\), the first at index 1$"):
            parzen_density([1.0, float("inf"), 2.0], 0.0, 1.0, 5,
                           bandwidth=bandwidth)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            parzen_density([0.0, 1.0], 2.0, 1.0, 11)
        with pytest.raises(DomainError):
            parzen_density([0.0, 1.0], 0.0, 1.0, 1)

    @pytest.mark.parametrize("bandwidth", [math.inf, -math.inf, math.nan,
                                           0.0, -1.0])
    def test_bandwidth_must_be_finite_and_positive(self, bandwidth):
        """An infinite bandwidth used to give an all-zero curve."""
        with pytest.raises(DomainError, match=re.escape(
                f"bandwidth must be finite and > 0, got {bandwidth}")):
            parzen_density([1.0, 2.0, 3.0], 0.0, 4.0, 5, bandwidth=bandwidth)

    @pytest.mark.parametrize("points", [201.0, "201", None])
    def test_grid_points_must_be_an_integer(self, points):
        """Not numpy's bare ``TypeError`` or a ``str < int`` comparison."""
        with pytest.raises(DomainError, match=re.escape(
                f"grid_points must be an integer, got {points!r}")):
            parzen_density([1.0, 2.0, 3.0], 0.0, 4.0, points)

    def test_integer_grid_points_keep_their_bits(self):
        values = [0.5, 1.0, 2.5, 3.0]
        want = parzen_density(values, 0.0, 4.0, 11)
        assert parzen_density(values, 0.0, 4.0,
                              np.int64(11)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 1.0),
                                        (math.nan, 1.0)])
    def test_grid_bounds_must_be_finite(self, lo, hi):
        """An infinite bound passes lo < hi and fills the grid with nan."""
        with pytest.raises(DomainError, match="^need finite grid bounds"):
            parzen_density([1.0, 2.0, 3.0], lo, hi, 5)

    @pytest.mark.parametrize("size", [
        2, 37, 400, 2000, montecarlo.PARZEN_CHUNK_VALUES // 2 + 1])
    def test_chunks_equal_one_shot_kernel_matrix(self, size):
        """One chunk (B = 2, 37), many chunks (400, 2000) and one row per
        chunk (just over half a chunk of values) give the bits of the whole
        201 x B kernel matrix."""
        from momest import Stream
        values = Stream(size).normals(size)
        bw = montecarlo.silverman_bandwidth(values)
        xs = np.linspace(-4.0, 4.0, 201)
        z = (xs[:, None] - values[None, :]) / bw
        want = np.exp(-0.5 * z * z).sum(axis=1) / (
            values.size * bw * np.sqrt(2.0 * np.pi))
        curve = parzen_density(values, -4.0, 4.0, 201)
        assert curve[:, 0].tobytes() == xs.tobytes()
        assert curve[:, 1].tobytes() == want.tobytes()


class TestCsvTables:
    def test_array_rows_equal_per_cell_format(self, tmp_path):
        """A float array is written with the bytes of the per-cell ``repr``
        of each numpy scalar, signed zero, subnormals, large and small
        magnitudes and nan included."""
        from momest.reportio import _cells, _csv, _write
        cells = np.array([-0.0, 5e-324, 1e16, 1e-5, 123.0, float("nan"),
                          -2.5, 0.1 + 0.2])
        table = np.column_stack([cells, cells[::-1]])
        _write(tmp_path / "t.csv",
               _csv("x,y", zip(_cells(table[:, 0]), _cells(table[:, 1]))))
        want = "x,y\n" + "".join(
            ",".join(repr(float(c)) for c in row) + "\n" for row in table)
        assert (tmp_path / "t.csv").read_bytes() == want.encode()


def study_sigma(report, method):
    """The Σ a study used for ``method``."""
    if method is SigmaMethod.PLUGIN:
        return report.sigma_plugin
    if method is SigmaMethod.REPLICATION:
        return report.sigma_replication
    return sigma_for(method, report.config.law, report.influence_a,
                     report.influence_b)


RATE_STUDIES = [
    SimulationConfig(law=law, n=30, replications=300, master_seed=11,
                     sigma_methods=tuple(SigmaMethod))
    for law in (GAMMA23, LawSpec.beta(2.0, 3.0), LawSpec.uniform(0.0, 1.0),
                LawSpec.fisher(5.0, 12.0))
] + [
    # 1105 of 2000 infeasible; the aggregated plugin Σ is singular
    SimulationConfig(law=LawSpec.fisher(5.0, 12.0), n=10, replications=2000,
                     master_seed=7, coefficient_mode=CoefficientMode.VERBATIM,
                     sigma_methods=tuple(SigmaMethod)),
]


class TestRatesAreTheCliTests:
    """Every rate is the share of feasible replications on which
    ``marginal_test`` or ``omnibus_test``, the tests ``momest test`` runs,
    reject at 5% with the study's Σ."""

    @pytest.mark.parametrize("cfg", RATE_STUDIES,
                             ids=lambda c: f"{c.law}-n{c.n}")
    def test_rates_equal_mean_of_decisions(self, cfg):
        report = run_simulation(cfg)
        law, n = cfg.law, cfg.n
        estimates = list(zip(report.a_hat.tolist(), report.b_hat.tolist()))
        for method in cfg.sigma_methods:
            sig, tag = study_sigma(report, method), method.value
            for k, (param, var_entry) in enumerate((("a", sig.s11),
                                                    ("b", sig.s22))):
                theta0 = (law.p1, law.p2)[k]
                decisions = [marginal_test(est[k], theta0, var_entry, n)
                             .reject_at_5pct for est in estimates]
                assert report.marginal_rates[f"{param}:{tag}"] \
                    == np.mean(decisions)
            try:
                decisions = [omnibus_test(a, b, law.p1, law.p2, n, sig)
                             .reject_at_5pct for a, b in estimates]
            except SingularCovarianceError:
                assert report.omnibus_rates[tag] is None
            else:
                assert report.omnibus_rates[tag] == np.mean(decisions)

    def test_singular_plugin_case_is_reached(self):
        report = run_simulation(RATE_STUDIES[-1])
        assert report.infeasible_count == 1105
        assert report.omnibus_rates["plugin"] is None
        assert report.omnibus_rates["replication"] is not None

    @pytest.mark.parametrize("seed", [2, 3])
    def test_two_replications_give_no_replication_omnibus_rate(self, seed):
        """Two replications give a rank-one Σ whose determinant is round-off:
        positive but below the floor for seed 2, negative for seed 3."""
        cfg = SimulationConfig(law=GAMMA23, n=50, replications=2,
                               master_seed=seed,
                               sigma_methods=(SigmaMethod.REPLICATION,))
        report = run_simulation(cfg)
        assert (report.sigma_replication.det > 0.0) == (seed == 2)
        assert report.omnibus_rates == {"replication": None}
        with pytest.raises(SingularCovarianceError):
            omnibus_test(report.a_hat[0], report.b_hat[0], 2.0, 3.0, 50,
                         report.sigma_replication)

    def test_infinite_variance_gives_nan_rate(self):
        cfg = SimulationConfig(law=GAMMA23, n=50, replications=20,
                               master_seed=4,
                               sigma_methods=(SigmaMethod.EXACT_MOMENTS,))
        report = run_simulation(cfg)
        sig = Covariance2(s11=math.inf, s22=report.sigma_exact.s22, s12=0.0,
                          det=math.inf, method=SigmaMethod.EXACT_MOMENTS)
        marginal, omnibus = montecarlo._rates(
            GAMMA23, 50, report.a_hat, report.b_hat, [sig])
        assert math.isnan(marginal["a:exact-moments"])
        assert marginal["b:exact-moments"] \
            == report.marginal_rates["b:exact-moments"]
        assert omnibus == {"exact-moments": None}


class TestCalibrationChain:
    def test_replication_sigma_rate_approaches_nominal(self):
        # omnibus rejection with replication covariance along growing n
        rates = {}
        for n in (50, 200, 1000):
            cfg = SimulationConfig(
                law=GAMMA23, n=n, replications=2000, master_seed=1001,
                sigma_methods=(SigmaMethod.REPLICATION,))
            rates[n] = run_simulation(cfg).omnibus_rates["replication"]
        gaps = [abs(rates[n] - 0.05) for n in (50, 200, 1000)]
        assert gaps[1] <= gaps[0] + 0.015
        assert gaps[2] <= gaps[1] + 0.015
        assert abs(rates[1000] - 0.05) <= 0.02

"""The traced run: per-layer metrics of momest.

Spans are recorded by this file around each call it makes into a layer;
nothing inside ``src/`` is instrumented.  Each study is first run as is
(``run_simulation`` plus ``write_report``, the time the replay is compared
with), then replayed stage by stage: ``substream_seed`` -> ``sample`` ->
``empirical_moments``/``estimate`` -> influence ``evaluate`` + ``np.cov`` ->
``covariance_replication``/``error_table``/``ratio_table``/rejection rates
-> ``write_report``.  The replay must give ``run_simulation``'s
``a_hat``/``b_hat`` and rejection rates bit for bit, so it times the same
work.  Layers that no study touches (the rng streams, the exact covariance
routes, quadrature, the tests and sample-file parsing) are timed by fixed
probes that are the same on every workload.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from momest import (DEFAULT_QUAD_CONFIG, Covariance2, DegenerateSampleError,
                    LawKind, SigmaMethod, Stream, chisq_quantile, cli,
                    covariance_exact_moments, covariance_exact_quadrature,
                    covariance_replication, empirical_moments, error_table,
                    estimate, influence_pair, marginal_test, normal_quantile,
                    omnibus_test, pdf, quantile, ratio_table, sample,
                    substream_seed, trapezoid_integrate, write_report)
from momest.significance import det_floor

import workloads as w

#: Replications per study whose raw draws are counted.
COUNTED_REPS = 10
RNG_DRAWS = 1_000_000
PARSE_LINES = 100_000
LEAF_STAGES = ("asymptotics.sigma_exact", "laws.sample",
               "estimation.estimate", "asymptotics.plugin",
               "montecarlo.aggregate", "reportio.write")
#: Critical values of the marginal and omnibus tests at 5%.
Z_CRIT = normal_quantile(0.975)
CHI2_CRIT = chisq_quantile(0.95, 2)


class Spans:
    """Spans kept in memory: name, start and end (ns), parent span index
    (-1 for none) and study id."""

    def __init__(self):
        self.rows: list = []

    def open(self, name: str, parent: int, study: int) -> int:
        self.rows.append([name, perf_counter_ns(), 0, parent, study])
        return len(self.rows) - 1

    def close(self, index: int) -> None:
        self.rows[index][2] = perf_counter_ns()

    def durations(self, name: str) -> dict:
        """Seconds of every closed span called ``name``, by study id."""
        out = defaultdict(list)
        for row in self.rows:
            if row[0] == name:
                out[row[4]].append((row[2] - row[1]) * 1e-9)
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, study in self.rows:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "study": study}) + "\n")


def replay(study: w.Study, report, outdir: Path, spans: Spans,
           sid: int) -> list:
    """Replay one study under spans; returns problems if it does not
    reproduce ``report``."""
    cfg = study.cfg
    law, n, methods = cfg.law, cfg.n, cfg.sigma_methods
    root = spans.open("study", -1, sid)
    i = spans.open("asymptotics.sigma_exact", root, sid)
    h, l = influence_pair(law, cfg.coefficient_mode)
    sigmas = {}
    if SigmaMethod.EXACT_MOMENTS in methods:
        sigmas[SigmaMethod.EXACT_MOMENTS] = covariance_exact_moments(law, h, l)
    if SigmaMethod.EXACT_QUADRATURE in methods:
        sigmas[SigmaMethod.EXACT_QUADRATURE] = covariance_exact_quadrature(
            law, h, l, DEFAULT_QUAD_CONFIG)
    sigma_exact = next(iter(sigmas.values()), None)
    spans.close(i)
    loop = spans.open("montecarlo.replications", root, sid)
    a_hat, b_hat, sd_h, sd_l, cov_hl = [], [], [], [], []
    for j in range(1, cfg.replications + 1):
        i = spans.open("laws.sample", loop, sid)
        x = sample(law, n, substream_seed(cfg.master_seed, j))
        spans.close(i)
        i = spans.open("estimation.estimate", loop, sid)
        try:
            est = estimate(law.kind, empirical_moments(x))
        except DegenerateSampleError:
            continue
        finally:
            spans.close(i)
        i = spans.open("asymptotics.plugin", loop, sid)
        c = np.cov(h.evaluate(x), l.evaluate(x), ddof=1)
        sd_h.append(float(np.sqrt(c[0, 0])))
        sd_l.append(float(np.sqrt(c[1, 1])))
        cov_hl.append(float(c[0, 1]))
        spans.close(i)
        a_hat.append(est.a_hat)
        b_hat.append(est.b_hat)
    spans.close(loop)
    i = spans.open("montecarlo.aggregate", root, sid)
    a, b = np.array(a_hat), np.array(b_hat)
    sd_h, sd_l, cov_hl = np.array(sd_h), np.array(sd_l), np.array(cov_hl)
    dev_a, dev_b = np.sqrt(n) * (a - law.p1), np.sqrt(n) * (b - law.p2)
    error_table(a, b, law.p1, law.p2)
    if SigmaMethod.REPLICATION in methods:
        sigmas[SigmaMethod.REPLICATION] = covariance_replication(dev_a, dev_b)
    if SigmaMethod.PLUGIN in methods:
        sigmas[SigmaMethod.PLUGIN] = plugin_sigma(sd_h, sd_l, cov_hl)
    if SigmaMethod.REPLICATION in methods and sigma_exact is not None:
        ratio_table(sd_h, sd_l, cov_hl, sigmas[SigmaMethod.REPLICATION],
                    sigma_exact, cfg.coefficient_mode)
    rates = rejection_rates(methods, dev_a, dev_b, sigmas)
    spans.close(i)
    i = spans.open("reportio.write", root, sid)
    write_report(report, outdir)
    spans.close(i)
    spans.close(root)
    problems = []
    if (a.tobytes() != report.a_hat.tobytes()
            or b.tobytes() != report.b_hat.tobytes()):
        problems.append(f"{study.key}: replay does not reproduce "
                        f"a_hat/b_hat")
    if json.dumps(rates) != json.dumps((report.marginal_rates,
                                        report.omnibus_rates)):
        problems.append(f"{study.key}: replay does not reproduce the "
                        f"rejection rates")
    return problems


def plugin_sigma(sd_h, sd_l, cov_hl) -> Covariance2:
    """The plugin covariance aggregated over the replications, in the
    canonical coefficient mode every benchmark study uses."""
    s11 = float(np.mean(np.square(sd_h)))
    s22 = float(np.mean(np.square(sd_l)))
    s12 = float(np.mean(cov_hl))
    return Covariance2(s11=s11, s22=s22, s12=s12, det=s11 * s22 - s12 * s12,
                       method=SigmaMethod.PLUGIN)


def rejection_rates(methods, dev_a, dev_b, sigmas: dict) -> tuple:
    """(marginal, omnibus) rejection rates at 5% of each covariance method,
    as ``run_simulation`` reports them."""
    marginal, omnibus = {}, {}
    for method in methods:
        sig = sigmas.get(method)
        if sig is None:
            continue
        for param, dev, var in (("a", dev_a, sig.s11), ("b", dev_b, sig.s22)):
            marginal[f"{param}:{method.value}"] = (
                float(np.mean(np.abs(dev) > Z_CRIT * np.sqrt(var)))
                if var > 0.0 else float("nan"))
        if sig.det > det_floor(sig):
            q = (sig.s22 * dev_a ** 2 + sig.s11 * dev_b ** 2
                 - 2.0 * sig.s12 * dev_a * dev_b) / sig.det
            omnibus[method.value] = float(np.mean(q > CHI2_CRIT))
        else:
            omnibus[method.value] = None
    return marginal, omnibus


def gamma_shapes(law) -> tuple:
    """Gamma shapes ``sample`` draws for ``law``, in draw order."""
    a, b = law.p1, law.p2
    return {LawKind.GAMMA: (a,), LawKind.BETA: (a, b), LawKind.UNIFORM: (),
            LawKind.FISHER: (0.5 * a, 0.5 * b)}[law.kind]


def draw_counts(law, n: int, seed: int) -> tuple:
    """Draw one sample through :class:`Stream` in the documented order;
    returns (values, raw draws, gamma deviates, gamma candidates).  Every
    shape used here is >= 1, where a candidate consumes three raw draws."""
    stream = Stream(seed)
    if law.kind is LawKind.UNIFORM:
        values = law.p1 + (law.p2 - law.p1) * stream.uniforms(n)
        return values, stream.consumed, 0, 0
    g = [stream.gammas(shape, n) for shape in gamma_shapes(law)]
    a, b = law.p1, law.p2
    if law.kind is LawKind.GAMMA:
        values = g[0] / b
    elif law.kind is LawKind.BETA:
        values = g[0] / (g[0] + g[1])
    else:
        values = (b * g[0]) / (a * g[1])
    return values, stream.consumed, n * len(g), stream.consumed // 3


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def probe_rng(m: dict) -> None:
    def ns_per_draw(draw):
        return 1e9 * median_time(lambda: draw(Stream(1)), 3) / RNG_DRAWS

    m["rng.raw_ns_per_draw"] = (ns_per_draw(lambda s: s.raw(RNG_DRAWS)), "ns")
    m["rng.normal_ns_per_draw"] = (
        ns_per_draw(lambda s: s.normals(RNG_DRAWS)), "ns")
    shapes = sorted({s for law in w.LAWS for s in gamma_shapes(law)})
    for shape in shapes:
        m[f"rng.gamma_ns_per_draw.shape{shape:g}"] = (ns_per_draw(
            lambda s: s.gammas(shape, RNG_DRAWS)), "ns")


def probe_sigma(m: dict) -> None:
    moments_s = []
    for law in w.LAWS:
        name = law.kind.value
        h, l = influence_pair(law)
        for _ in range(200):
            t0 = perf_counter()
            covariance_exact_moments(law, h, l)
            moments_s.append(perf_counter() - t0)
        m[f"asymptotics.exact_quadrature_ms.{name}"] = (1e3 * median_time(
            lambda: covariance_exact_quadrature(law, h, l), 5), "ms")
        lo, hi = quantile(law, 1e-9), quantile(law, 1.0 - 1e-9)
        m[f"special.trapezoid_ms.{name}"] = (1e3 * median_time(
            lambda: trapezoid_integrate(lambda x: x ** 4 * pdf(law, x),
                                        lo, hi), 5), "ms")
    m["asymptotics.exact_moments_us"] = (
        1e6 * statistics.median(moments_s), "us")


def probe_tests(m: dict) -> None:
    law = w.LAWS[0]
    sigma = covariance_exact_moments(law, *influence_pair(law))
    batch = 200

    def tests():
        for _ in range(batch):
            marginal_test(2.1, 2.0, sigma.s11, 1000)
            marginal_test(3.2, 3.0, sigma.s22, 1000)
            omnibus_test(2.1, 3.2, 2.0, 3.0, 1000, sigma)

    m["significance.tests_us"] = (1e6 * median_time(tests, 7) / batch, "us")


def probe_parse(m: dict, seed: int, tmp: Path) -> None:
    plain, table = w.write_sample_files(w.LAWS[0], PARSE_LINES, seed, tmp)
    for label, path, column in (("plain", plain, None),
                                ("csv", table, "value")):
        m[f"cli.parse_ns_per_line.{label}"] = (1e9 * median_time(
            lambda: cli.read_sample(str(path), column), 3) / PARSE_LINES,
            "ns")


def probe_spans(m: dict) -> None:
    spans, count = Spans(), 100_000

    def record():
        for _ in range(count):
            spans.close(spans.open("probe", -1, 0))

    m["trace.span_ns"] = (1e9 * median_time(record, 3) / count, "ns")


@dataclasses.dataclass
class Replayed:
    """What the traced run learned from its studies."""

    spans: Spans = dataclasses.field(default_factory=Spans)
    # (study, wall seconds of the plain run, feasible count, bundle bytes)
    studies: list = dataclasses.field(default_factory=list)
    # law -> [replications, raw draws, gamma deviates, gamma candidates]
    draws: dict = dataclasses.field(
        default_factory=lambda: defaultdict(lambda: [0, 0, 0, 0]))


def traced_run(workload: str, seed: int, seconds: float, shapes: dict,
               expected: w.Expected, tmp: Path, outdir: Path) -> dict:
    start = perf_counter()
    tally = w.Tally()
    shape = shapes[workload]
    if not isinstance(shape, w.StudyShape):
        # cli-test runs no study: its study layers come from the first
        # study workload
        shape = next(s for s in shapes.values()
                     if isinstance(s, w.StudyShape))
    cycle = w.study_cycle(dataclasses.replace(shape, workers=1), seed)
    m: dict = {"montecarlo.workers2_efficiency": (
        pool_efficiency(cycle, expected, tmp, tally), "ratio")}
    probe_rng(m)
    probe_sigma(m)
    probe_tests(m)
    probe_parse(m, seed, tmp)
    probe_spans(m)
    done = Replayed()
    cycles = 0
    while cycles < 2 or perf_counter() - start < seconds:
        for study in cycle:
            trace_study(study, cycles == 0, done, expected, tmp, tally)
        cycles += 1
    study_metrics(m, done)
    done.spans.write(outdir / f"trace-{workload}-seed{seed}.jsonl",
                     {"workload": workload, "seed": seed,
                      "studies": [s.key for s, *_ in done.studies]})
    return tally.result(dict(sorted(m.items())))


def pool_efficiency(cycle: list, expected: w.Expected, tmp: Path,
                    tally: w.Tally) -> float:
    """reps_per_s with 2 workers over twice reps_per_s with 1 worker, both
    the end-to-end ``work_per_s`` of one cycle of studies with its formula
    and clocks.  A first, untimed pass warms the pool up: its first run of
    each study in a process is slower.  This runs first in the traced run,
    because the heap the probes and spans leave behind slows every forked
    worker."""
    costs = {1: [], 2: []}
    calibrated = w.Calibrated()
    for timed in (False, True):
        for study in cycle:
            for workers in costs:
                unit = dataclasses.replace(study, workers=workers)
                timing, found, _ = w.study_unit(unit, tmp, expected)
                tally.add(found)
                if timing is None:
                    continue
                calibrated_timing = calibrated.rescale(timing)
                if timed:
                    costs[workers].append(
                        (unit, w.cost(unit, calibrated_timing)))
    serial, pooled = (w.summarize(costs[k])[2] for k in (1, 2))
    return pooled / (2.0 * serial)


def trace_study(study: w.Study, first: bool, done: Replayed,
                expected: w.Expected, tmp: Path, tally: w.Tally) -> None:
    """Run a study as is, then replay it under spans.  In the first cycle
    also count its draws."""
    timing, found, report = w.study_unit(study, tmp, expected)
    tally.add(found)
    if report is None:
        return
    outdir = tmp / study.key.replace("/", "_")
    sid = len(done.studies)
    done.studies.append((study, timing.wall, report.feasible,
                         w.bundle_digest(outdir)[2]))
    tally.add(replay(study, report, outdir, done.spans, sid))
    if first:
        tally.add(count_draws(study, done.draws))


def study_metrics(m: dict, done: Replayed) -> None:
    spans, studies = done.spans, done.studies
    law_of = [s.cfg.law.kind.value for s, *_ in studies]
    per_law = defaultdict(list)
    for sid, values in spans.durations("laws.sample").items():
        per_law[law_of[sid]] += values
    for law in w.LAWS:
        name = law.kind.value
        reps, raw, deviates, candidates = done.draws[name]
        sample_s = statistics.median(per_law[name])
        m[f"laws.sample_us.{name}"] = (1e6 * sample_s, "us")
        m[f"laws.sample_ns_per_draw.{name}"] = (1e9 * sample_s * reps / raw,
                                               "ns")
        m[f"rng.raw_draws_per_rep.{name}"] = (raw / reps, "count")
        if candidates:
            m[f"rng.gamma_accept_ratio.{name}"] = (deviates / candidates,
                                                   "ratio")
        mine = [(s, f) for s, _, f, _ in studies if s.cfg.law == law]
        m[f"estimation.feasible_ratio.{name}"] = (
            sum(f for _, f in mine)
            / sum(s.cfg.replications for s, _ in mine), "ratio")

    def pooled_median(name: str) -> float:
        return statistics.median(
            v for values in spans.durations(name).values() for v in values)

    m["estimation.estimate_us"] = (
        1e6 * pooled_median("estimation.estimate"), "us")
    m["asymptotics.plugin_us"] = (
        1e6 * pooled_median("asymptotics.plugin"), "us")
    m["montecarlo.aggregate_ms"] = (
        1e3 * pooled_median("montecarlo.aggregate"), "ms")
    m["reportio.write_ms"] = (1e3 * pooled_median("reportio.write"), "ms")
    m["reportio.bytes_written"] = (
        statistics.median(b for *_, b in studies), "B")
    covered = defaultdict(float)
    for name in LEAF_STAGES:
        for sid, values in spans.durations(name).items():
            covered[sid] += sum(values)
    replayed = spans.durations("study")
    plain = [u for _, u, _, _ in studies]
    m["montecarlo.unattributed_frac"] = (statistics.median(
        1.0 - covered[sid] / replayed[sid][0] for sid in replayed), "ratio")
    m["trace.replay_ratio"] = (statistics.median(
        replayed[sid][0] / u for sid, u in enumerate(plain)), "ratio")


def count_draws(study: w.Study, draws: dict) -> list:
    """Count raw draws and gamma candidates of the first replications of a
    study; returns problems if the documented draw order no longer gives
    ``sample``'s values."""
    cfg = study.cfg
    tally = draws[cfg.law.kind.value]
    for j in range(1, min(COUNTED_REPS, cfg.replications) + 1):
        seed = substream_seed(cfg.master_seed, j)
        values, raw, deviates, candidates = draw_counts(cfg.law, cfg.n, seed)
        if values.tobytes() != sample(cfg.law, cfg.n, seed).tobytes():
            return [f"{study.key}: Stream draws differ from sample() at "
                    f"replication {j}"]
        tally[0] += 1
        tally[1] += raw
        tally[2] += deviates
        tally[3] += candidates
    return []

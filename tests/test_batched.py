"""The batched replication engine against the one-replication-at-a-time
definitions: row samples, row estimates, row plugin statistics and whole
blocks must equal the per-row results bit for bit."""

import itertools
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momest import (Covariance2, DegenerateSampleError, LawKind, LawSpec,
                    RowStreams, SigmaMethod, SimulationConfig, Stream,
                    Workspace, covariance_plugin, empirical_moments, estimate,
                    estimate_rows, influence_pair, plugin_rows,
                    run_simulation, sample, sample_rows, substream_seed,
                    write_report)
from momest import montecarlo
from momest.montecarlo import (_Replicates, _merge, _simulate_block,
                               _thread_ranges)

LAWS = (LawSpec.gamma(2.0, 3.0), LawSpec.beta(2.0, 3.0),
        LawSpec.uniform(0.0, 1.0), LawSpec.fisher(5.0, 12.0),
        LawSpec.gamma(0.5, 2.0), LawSpec.beta(0.7, 3.5))
SIZES = (2, 7, 200, 5000)
MASTER = 0xC0FFEE


def seeds(count, master=MASTER):
    return [substream_seed(master, j) for j in range(1, count + 1)]


def reference_block(law, n, master, j_lo, j_hi, h, l):
    """One replication at a time, with the plugin statistics taken from
    ``np.cov`` directly, as the engine computed them before batching."""
    a_hat, b_hat, sd_h, sd_l, cov_hl = [], [], [], [], []
    infeasible = 0
    for j in range(j_lo, j_hi):
        x = sample(law, n, substream_seed(master, j))
        try:
            est = estimate(law.kind, empirical_moments(x))
        except DegenerateSampleError:
            infeasible += 1
            continue
        c = np.cov(h.evaluate(x), l.evaluate(x), ddof=1)
        sig = Covariance2.build(float(c[0, 0]), float(c[1, 1]),
                                float(c[0, 1]), SigmaMethod.PLUGIN)
        a_hat.append(est.a_hat)
        b_hat.append(est.b_hat)
        sd_h.append(np.sqrt(sig.s11))
        sd_l.append(np.sqrt(sig.s22))
        cov_hl.append(sig.s12)
    return _Replicates(a_hat=np.array(a_hat), b_hat=np.array(b_hat),
                       sd_h=np.array(sd_h), sd_l=np.array(sd_l),
                       cov_hl=np.array(cov_hl), infeasible=infeasible)


def assert_blocks_equal(got, want):
    for name in ("a_hat", "b_hat", "sd_h", "sd_l", "cov_hl"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == np.float64 and g.tobytes() == w.tobytes(), name
    assert type(got.infeasible) is int and got.infeasible == want.infeasible


class TestRowSampler:
    @pytest.mark.parametrize("law", LAWS, ids=str)
    @pytest.mark.parametrize("n", SIZES)
    def test_rows_equal_sample(self, law, n):
        rows = 3 if n == 5000 else 11
        x = sample_rows(law, n, seeds(rows))
        assert x.shape == (rows, n)
        for r, seed in enumerate(seeds(rows)):
            assert x[r].tobytes() == sample(law, n, seed).tobytes()

    def test_streams_equal_stream_call_by_call(self):
        """Counters diverge per row after a rejection round, and every
        later draw must continue each row's own counter."""
        row_seeds = seeds(6)
        streams = RowStreams(row_seeds)
        singles = [Stream(s) for s in row_seeds]
        calls = [("gammas", (2.5, 40)), ("normals", (13,)),
                 ("gammas", (0.4, 9)), ("uniforms", (5,)), ("raw", (3,)),
                 ("gammas", (6.0, 1))]
        for name, args in calls:
            block = getattr(streams, name)(*args)
            for r, single in enumerate(singles):
                assert block[r].tobytes() == \
                    getattr(single, name)(*args).tobytes()
        assert [int(c) for c in streams._counters] == \
            [s.consumed for s in singles]


    def test_seed_array_equals_python_ints(self):
        """A uint64 seed array is taken as it is; other seeds are reduced
        mod 2^64.  Both give the same rows, seeds of 2^63 and above
        included."""
        array = np.array([2 ** 63, 2 ** 64 - 1, 7, 2 ** 63 + 12345],
                         dtype=np.uint64)
        ints = [int(s) for s in array]
        wrapped = [s + 2 ** 64 for s in ints]
        rows = [RowStreams(s).gammas(2.5, 30) for s in (array, ints, wrapped)]
        assert rows[0].tobytes() == rows[1].tobytes() == rows[2].tobytes()
        for r, seed in enumerate(ints):
            want = Stream(seed).gammas(2.5, 30)
            assert rows[0][r].tobytes() == want.tobytes()

    def test_seed_array_is_copied(self):
        array = np.array([1, 2], dtype=np.uint64)
        streams = RowStreams(array)
        array[:] = 0
        assert streams.uniforms(4).tobytes() == \
            RowStreams([1, 2]).uniforms(4).tobytes()


def stream_reference(law, n, seed):
    """``sample`` rebuilt from public :class:`Stream` draws, each of which
    returns an array of its own."""
    stream, a, b = Stream(seed), law.p1, law.p2
    if law.kind is LawKind.GAMMA:
        return stream.gammas(a, n) / b
    if law.kind is LawKind.BETA:
        g1, g2 = stream.gammas(a, n), stream.gammas(b, n)
        return g1 / (g1 + g2)
    g1, g2 = stream.gammas(0.5 * a, n), stream.gammas(0.5 * b, n)
    return (b * g1) / (a * g2)


class TestWorkspace:
    """One workspace reused across calls: its buffers are recycled, and
    never shared by two arrays that are live at once."""

    REUSE_LAWS = (LawSpec.gamma(2.0, 3.0), LawSpec.gamma(0.5, 2.0),
                  LawSpec.beta(2.0, 3.0), LawSpec.fisher(5.0, 12.0),
                  LawSpec.beta(0.7, 0.5))

    @pytest.mark.parametrize("law", REUSE_LAWS, ids=str)
    @pytest.mark.parametrize("n", (7, 200))
    def test_reuse_across_shrinking_and_growing_calls(self, law, n):
        """Row counts shrink, as in a ragged last block, then grow past the
        first.  Gamma(0.5, 2) draws its boost uniforms after a gamma batch;
        Beta and Fisher draw two gamma batches that must not share a
        buffer, and Beta(0.7, 0.5) boosts both.  Rows are checked after
        every call has run, so no returned array may be a workspace buffer
        either."""
        workspace = Workspace()
        row_seeds = iter(seeds(5 + 3 + 1 + 4 + 8))
        calls = []
        for rows in (5, 3, 1, 4, 8):
            block = [next(row_seeds) for _ in range(rows)]
            calls.append((block, sample_rows(law, n, block, workspace)))
        for block, x in calls:
            for r, seed in enumerate(block):
                want = sample(law, n, seed).tobytes()
                assert x[r].tobytes() == want
                assert stream_reference(law, n, seed).tobytes() == want

    @pytest.mark.parametrize("law", LAWS, ids=str)
    @pytest.mark.parametrize("n,b_total", [(5000, 10), (200, 250), (20, 2500)])
    def test_blocks_reuse_the_first_blocks_buffers(self, law, n, b_total,
                                                   monkeypatch):
        """Every block of one ``_simulate_block`` call draws and reduces
        into the same workspace.  After the first block no sampler buffer
        is replaced, the short last block included; the plugin buffers,
        sized by the feasible rows, only when a block has more feasible
        rows than every block before it."""
        seen = []

        def spy(x, h, l, workspace):
            out = plugin_rows(x, h, l, workspace)
            seen.append((workspace, x.shape[0], dict(workspace._arrays)))
            return out

        monkeypatch.setattr(montecarlo, "plugin_rows", spy)
        h, l = influence_pair(law)
        _simulate_block(law, n, MASTER, 1, b_total + 1, h, l)
        rows = montecarlo.ROW_BLOCK_VALUES // n
        assert len(seen) == -(-b_total // rows) >= 3
        workspace, most, before = seen[0]
        for ws, feasible, arrays in seen[1:]:
            assert ws is workspace
            assert arrays.keys() == before.keys()
            replaced = {name for name in arrays
                        if arrays[name] is not before[name]}
            grown = feasible > most
            assert replaced <= ({"plugin_stack", "plugin_scratch"}
                                if grown else set())
            most, before = max(most, feasible), arrays

    def test_each_thread_has_its_own_workspace(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        seen = []

        def spy(law, n, row_seeds, workspace):
            seen.append((threading.get_ident(), workspace))
            return sample_rows(law, n, row_seeds, workspace)

        monkeypatch.setattr(montecarlo, "sample_rows", spy)
        run_simulation(SimulationConfig(law=LawSpec.beta(2.0, 3.0), n=200,
                                        replications=400, master_seed=5),
                       workers=2)
        by_thread = {}
        for ident, workspace in seen:
            by_thread.setdefault(ident, set()).add(workspace)
        assert len(by_thread) == 2
        assert all(len(found) == 1 for found in by_thread.values())
        assert len(set.union(*by_thread.values())) == 2


class TestRowEstimates:
    @pytest.mark.parametrize("law,n", [(LawSpec.fisher(5.0, 10.0), 3)]
                             + [(law, 200) for law in LAWS], ids=str)
    def test_equal_per_row_estimate(self, law, n):
        x = sample_rows(law, n, seeds(60))
        a_hat, b_hat, feasible = estimate_rows(law.kind, x)
        want_a, want_b, want_ok = [], [], []
        for row in x:
            try:
                est = estimate(law.kind, empirical_moments(row))
            except DegenerateSampleError:
                want_ok.append(False)
                continue
            want_ok.append(True)
            want_a.append(est.a_hat)
            want_b.append(est.b_hat)
        assert feasible.tolist() == want_ok
        assert a_hat.tobytes() == np.array(want_a).tobytes()
        assert b_hat.tobytes() == np.array(want_b).tobytes()
        if law == LawSpec.fisher(5.0, 10.0):
            assert 0 < feasible.sum() < feasible.size

    @pytest.mark.parametrize("n", (2, 3, 17, 200, 4099, 100_001))
    def test_moments_equal_numpy(self, n):
        x = np.random.default_rng(n).standard_gamma(0.8, size=(3, n)) * 7.0
        for row in x:
            em = empirical_moments(row)
            assert em.mean == float(np.mean(row))
            assert em.var_biased == float(np.var(row))


class TestRowPlugin:
    @pytest.mark.parametrize("law", LAWS[:4], ids=str)
    @pytest.mark.parametrize("n", (2, 7, 200, 5000, 100_000))
    def test_equal_np_cov(self, law, n):
        """Guards against a BLAS whose stacked product and ``np.cov`` round
        differently."""
        h, l = influence_pair(law)
        rows = 2 if n >= 5000 else 25
        x = sample_rows(law, n, seeds(rows))
        s11, s22, s12 = plugin_rows(x, h, l)
        for r, row in enumerate(x):
            c = np.cov(h.evaluate(row), l.evaluate(row), ddof=1)
            want = Covariance2.build(float(c[0, 0]), float(c[1, 1]),
                                     float(c[0, 1]), SigmaMethod.PLUGIN)
            assert (float(s11[r]), float(s22[r]), float(s12[r])) == \
                (want.s11, want.s22, want.s12)
            assert covariance_plugin(row, h, l) == want


    @pytest.mark.parametrize("law", LAWS[:4], ids=str)
    def test_reused_workspace_equal_bits(self, law):
        """Row counts shrink and grow over one workspace, as the feasible
        rows of successive blocks do."""
        h, l = influence_pair(law)
        workspace = Workspace()
        row_seeds = iter(seeds(40 + 7 + 1 + 60))
        for rows in (40, 7, 1, 60):
            x = sample_rows(law, 200, [next(row_seeds) for _ in range(rows)])
            got = plugin_rows(x, h, l, workspace)
            want = plugin_rows(x, h, l)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(law=st.sampled_from(LAWS), n=st.integers(2, 5000),
           rows=st.integers(1, 50), master=st.integers(0, 2 ** 64 - 1))
    def test_entries_meet_covariance_conditions(self, law, n, rows, master):
        """Each row's entries pass :meth:`Covariance2.build`'s checks as
        they are: the diagonals are sums of squares (never negative, never
        -0.0) and Cauchy-Schwarz holds up to the build tolerance."""
        h, l = influence_pair(law)
        x = sample_rows(law, n, seeds(rows, master))
        s11, s22, s12 = plugin_rows(x, h, l)
        for a, b, c in zip(s11.tolist(), s22.tolist(), s12.tolist()):
            assert math.copysign(1.0, a) == 1.0 and a >= 0.0
            assert math.copysign(1.0, b) == 1.0 and b >= 0.0
            assert abs(c) <= math.sqrt(a * b) + 1e-9 * max(a, b, 1.0)


class TestBlocks:
    @pytest.mark.parametrize("law", LAWS, ids=str)
    @pytest.mark.parametrize("n,b_total", [(3, 50), (200, 97), (5000, 4)])
    def test_block_equals_reference(self, law, n, b_total):
        rows = max(1, montecarlo.ROW_BLOCK_VALUES // n)
        assert b_total % rows != 0
        h, l = influence_pair(law)
        got = _merge(_simulate_block(law, n, MASTER, 1, b_total + 1, h, l))
        assert_blocks_equal(got, reference_block(law, n, MASTER, 1,
                                                 b_total + 1, h, l))

    def test_infeasible_rows_counted(self):
        law = LawSpec.fisher(5.0, 10.0)
        h, l = influence_pair(law)
        got = _merge(_simulate_block(law, 3, MASTER, 5, 95, h, l))
        want = reference_block(law, 3, MASTER, 5, 95, h, l)
        assert_blocks_equal(got, want)
        assert 0 < got.infeasible < 90

    def test_workers_equal_serial(self, tmp_path, monkeypatch):
        """n = 9000 puts one row in a block; B = 2 with 3 workers has more
        workers than replications.  Enough CPUs are reported that every
        worker count gets its own threads."""
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
        for n, b_total in itertools.product((3, 200, 9000), (2, 37, 400)):
            cfg = SimulationConfig(law=LawSpec.beta(2.0, 3.0), n=n,
                                   replications=b_total, master_seed=2024,
                                   sigma_methods=tuple(SigmaMethod))
            bundles = []
            for workers in (1, 2, 3):
                outdir = tmp_path / f"n{n}-B{b_total}-w{workers}"
                write_report(run_simulation(cfg, workers=workers), outdir)
                bundles.append({p.name: p.read_bytes()
                                for p in sorted(outdir.iterdir())})
            assert bundles[1] == bundles[0], (n, b_total, 2)
            assert bundles[2] == bundles[0], (n, b_total, 3)


class TestThreadRanges:
    """The split and its cap, from the pure helper: no thread is started."""

    @pytest.mark.parametrize("b_total", (2, 3, 37, 400))
    @pytest.mark.parametrize("workers", (1, 2, 3, 7, 1000))
    def test_contiguous_near_equal_capped(self, b_total, workers,
                                          monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        ranges = _thread_ranges(b_total, workers)
        assert len(ranges) == min(workers, b_total, 4)
        assert ranges[0][0] == 1 and ranges[-1][1] == b_total + 1
        assert all(hi == lo for (_, hi), (lo, _) in zip(ranges, ranges[1:]))
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1

    def test_unknown_cpu_count_gives_one_range(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
        assert _thread_ranges(400, 1000) == [(1, 401)]


def laws_strategy():
    positive = st.floats(0.3, 8.0)
    return st.one_of(
        st.builds(LawSpec.gamma, positive, st.floats(0.5, 5.0)),
        st.builds(LawSpec.beta, positive, positive),
        st.builds(lambda lo, width: LawSpec.uniform(lo, lo + width),
                  st.floats(-3.0, 3.0), st.floats(0.1, 5.0)),
        st.builds(LawSpec.fisher, st.floats(1.0, 10.0),
                  st.floats(4.5, 30.0)),
    )


@settings(max_examples=30, deadline=None)
@given(law=laws_strategy(), n=st.integers(2, 300),
       master=st.integers(0, 2 ** 64 - 1), b_total=st.integers(1, 60),
       budget=st.integers(1, 4000))
def test_batched_equals_per_row(law, n, master, b_total, budget):
    """Any row budget, so that blocks of every size and a short last block
    occur."""
    h, l = influence_pair(law)
    saved = montecarlo.ROW_BLOCK_VALUES
    montecarlo.ROW_BLOCK_VALUES = budget
    try:
        got = _merge(_simulate_block(law, n, master, 1, b_total + 1, h, l))
    finally:
        montecarlo.ROW_BLOCK_VALUES = saved
    assert_blocks_equal(got, reference_block(law, n, master, 1, b_total + 1,
                                             h, l))


@settings(max_examples=30, deadline=None)
@given(law=laws_strategy(), n=st.integers(2, 300),
       master=st.integers(0, 2 ** 64 - 1), data=st.data())
def test_merged_ranges_equal_one_range(law, n, master, data):
    """Any cut of [1, B] into contiguous ranges, each simulated on its own,
    merges in order into the record of the whole range, the infeasible
    count included; no thread is started."""
    b_total = data.draw(st.integers(1, 60), label="b_total")
    cut = data.draw(st.lists(st.booleans(), min_size=b_total - 1,
                             max_size=b_total - 1), label="cut before j")
    bounds = [1, *(j for j, c in zip(range(2, b_total + 1), cut) if c),
              b_total + 1]
    h, l = influence_pair(law)
    parts = [record for lo, hi in zip(bounds[:-1], bounds[1:])
             for record in _simulate_block(law, n, master, lo, hi, h, l)]
    assert_blocks_equal(_merge(parts), _merge(_simulate_block(
        law, n, master, 1, b_total + 1, h, l)))

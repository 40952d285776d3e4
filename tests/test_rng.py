"""The counter-based generator against an independent pure-python reference,
plus sampler moment checks."""

import numpy as np
import pytest

from momest import DomainError, RowStreams, Stream, substream_seed
from momest.rng import _to_uniforms

MASK = (1 << 64) - 1


def reference_mix(z):
    """Pure-python splitmix64 finalizer, written apart from momest.rng."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def reference_outputs(seed, count):
    """Pure-python splitmix64 stream."""
    return [reference_mix((seed + k * 0x9E3779B97F4A7C15) & MASK)
            for k in range(1, count + 1)]


class TestRawStream:
    def test_matches_reference(self):
        for seed in (0, 1, 42, 987654321, MASK):
            got = [int(v) for v in Stream(seed).raw(64)]
            assert got == reference_outputs(seed, 64)

    def test_frozen_first_outputs(self):
        got = [int(v) for v in Stream(987654321).raw(3)]
        assert got == [0xB0DE530201A9D17C, 0xE0B60B3994B35AA2,
                       0xE048F39ADC9EE4A0]

    def test_counter_advances(self):
        s = Stream(7)
        first = list(s.raw(5)) + list(s.raw(5))
        assert first == [int(v) for v in Stream(7).raw(10)]
        assert s.consumed == 10


class TestOwnResults:
    """A stream reuses its scratch arrays from draw to draw, but every array
    it returns belongs to the caller."""

    @pytest.mark.parametrize("draw,args", [
        ("raw", (50,)), ("uniforms", (50,)), ("normals", (50,)),
        ("gammas", (2.5, 50)), ("gammas", (0.4, 50))], ids=str)
    def test_result_survives_later_draws(self, draw, args):
        stream = Stream(21)
        first = getattr(stream, draw)(*args)
        kept = first.copy()
        for name, more in (("raw", (50,)), ("normals", (50,)),
                           ("gammas", (0.4, 50))):
            getattr(stream, name)(*more)
        assert first.tobytes() == kept.tobytes()


class TestUniforms:
    def test_open_interval(self):
        u = Stream(3).uniforms(100_000)
        assert np.all((u > 0.0) & (u < 1.0))

    def test_moments(self):
        u = Stream(4).uniforms(1_000_000)
        assert abs(u.mean() - 0.5) < 5.0 * np.sqrt(1.0 / 12.0 / 1e6)
        assert abs(u.var() - 1.0 / 12.0) < 5e-4

    def test_determinism(self):
        assert np.array_equal(Stream(11).uniforms(1000),
                              Stream(11).uniforms(1000))

    @pytest.mark.parametrize("raw, want", [
        (0, 2.0 ** -54),
        ((2 ** 53 - 2) << 11, 1.0 - 2.0 ** -52),
        ((2 ** 53 - 2) << 11 | 0x7FF, 1.0 - 2.0 ** -52),
        ((2 ** 53 - 1) << 11, 1.0),
        (MASK, 1.0),
    ], ids=["zero", "largest-below-one", "low-bits-ignored", "one", "max"])
    def test_edges(self, raw, want):
        """The conversion's ends: (0, 1], with exactly 1.0 when the top 53
        bits are all ones, because 2^53 - 1 + 0.5 rounds to even."""
        got = _to_uniforms(np.array([raw], dtype=np.uint64), np.empty(1))
        assert got[0] == want


class TestNormals:
    def test_moments(self):
        z = Stream(5).normals(1_000_000)
        n = z.size
        assert abs(z.mean()) < 5.0 / np.sqrt(n)
        assert abs(z.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)
        assert abs((z ** 3).mean()) < 5.0 * np.sqrt(15.0 / n)


class TestGammas:
    def test_moments_shape_ge_1(self):
        g = Stream(6).gammas(2.0, 1_000_000)
        n = g.size
        assert abs(g.mean() - 2.0) < 5.0 * np.sqrt(2.0 / n)
        assert abs(g.var() - 2.0) < 5.0 * np.sqrt(
            (3.0 * 2.0 * 4.0 + 2.0 * 4.0) / n)  # crude bound on var of var

    def test_moments_shape_below_1(self):
        g = Stream(8).gammas(0.5, 1_000_000)
        assert abs(g.mean() - 0.5) < 5.0 * np.sqrt(0.5 / 1e6)

    def test_positive(self):
        assert np.all(Stream(9).gammas(0.3, 50_000) > 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            Stream(1).gammas(0.0, 10)

    @pytest.mark.parametrize("shape", [np.inf, -np.inf, np.nan])
    def test_non_finite_shape_refused(self, shape):
        with pytest.raises(DomainError, match="finite"):
            RowStreams([1, 2]).gammas(shape, 10)


class TestSubstreams:
    def test_index_validation(self):
        with pytest.raises(DomainError):
            substream_seed(1, 0)

    def test_index_beyond_64_bits_refused(self):
        assert substream_seed(1, MASK) == reference_mix(
            (1 + MASK * 0xD1B54A32D192ED03) & MASK)
        with pytest.raises(DomainError, match=r"< 2\*\*64"):
            substream_seed(1, MASK + 1)

    @pytest.mark.parametrize("master", [0, 7, MASK])
    def test_matches_reference(self, master):
        got = [substream_seed(master, j) for j in range(1, 2001)]
        assert got == [reference_mix((master + j * 0xD1B54A32D192ED03) & MASK)
                       for j in range(1, 2001)]

    def test_distinct_and_deterministic(self):
        seeds = [substream_seed(2024, j) for j in range(1, 2001)]
        assert len(set(seeds)) == 2000
        assert seeds[0] == substream_seed(2024, 1)
        assert all(0 <= s <= MASK for s in seeds)

"""The counter-based generator against an independent pure-python reference,
plus sampler moment checks."""

import math

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


def reference_outputs(seed, count, start=0):
    """Pure-python splitmix64 stream: outputs start + 1 .. start + count."""
    return [reference_mix((seed + k * 0x9E3779B97F4A7C15) & MASK)
            for k in range(start + 1, start + count + 1)]


def reference_uniforms(seed, count, start):
    """Uniforms in (0, 1] from outputs start + 1 .. start + count: the top
    53 bits plus one half, times 2^-53, in python floats."""
    return np.array([((r >> 11) + 0.5) * 2.0 ** -53
                     for r in reference_outputs(seed, count, start)])


def reference_gammas(seed, shape, count):
    """Gamma(shape) deviates and the counter after them, rebuilt from the
    module docstring of momest.rng: per round the slot of rank i among m
    empty ones takes u1, u2 and u from outputs c + 1 + i, c + 1 + m + i and
    c + 1 + 2m + i, and the counter advances by 3m; a shape below 1 boosts
    a Gamma(shape + 1) batch by one more uniform per value.  The maths runs
    in numpy arrays, in the operation order of the generator."""
    if shape < 1.0:
        g, used = reference_gammas(seed, shape + 1.0, count)
        boost = reference_uniforms(seed, count, used)
        return g * boost ** (1.0 / shape), used + count
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(count)
    pending = np.arange(count)
    used = 0
    while pending.size:
        m = pending.size
        u1, u2, u = (reference_uniforms(seed, m, used + lane * m)
                     for lane in range(3))
        used += 3 * m
        x = np.sqrt(np.log(u1) * -2.0) * np.cos(u2 * (2.0 * np.pi))
        v = (x * c + 1.0) ** 3
        x2 = x * x
        quick = (u < 1.0 - x2 * 0.0331 * x2) & (v > 0.0)
        slow = np.flatnonzero((v > 0.0) & ~quick)
        accept = quick.copy()
        accept[slow] = np.log(u[slow]) < (
            0.5 * x2[slow] + d * (1.0 - v[slow] + np.log(v[slow])))
        out[pending[accept]] = d * v[accept]
        pending = pending[~accept]
    return out, used


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


class TestGammaRounds:
    """Every gamma draw, one row or many, against the rejection rounds
    rebuilt from the documented counter layout alone."""

    @pytest.mark.parametrize("seed", [5, 2024, 2 ** 63 + 97])
    @pytest.mark.parametrize("shape", [0.4, 1.0, 2.5, 6.0])
    def test_matches_reference(self, shape, seed):
        want, used = reference_gammas(seed, shape, 3000)
        stream = Stream(seed)
        got = stream.gammas(shape, 3000)
        assert got.tobytes() == want.tobytes()
        assert stream.consumed == used
        rows = RowStreams([seed ^ 1, seed, 77])
        block = rows.gammas(shape, 3000)
        assert block[1].tobytes() == want.tobytes()
        # the row's next raw output is the one after its last round
        assert int(rows.raw(1)[1, 0]) == reference_outputs(seed, 1, used)[0]


class TestIntegerArguments:
    """Seeds and substream indices go through operator.index: a value that
    is not an integer is refused by name, never truncated."""

    @pytest.mark.parametrize("call, message", [
        (lambda: Stream(2.5), "seed must be an integer, got 2.5"),
        (lambda: RowStreams([1.9, 2.1]), "seed must be an integer, got 1.9"),
        (lambda: RowStreams(np.array([3.0])),
         f"seed must be an integer, got {np.float64(3.0)!r}"),
        (lambda: Stream("7"), "seed must be an integer, got '7'"),
        (lambda: substream_seed(1, 1.5),
         "substream index must be an integer, got 1.5"),
        (lambda: substream_seed(1.5, 1),
         "master seed must be an integer, got 1.5"),
    ], ids=["stream", "row-streams", "float-array", "str", "index",
            "master"])
    def test_non_integer_refused(self, call, message):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message

    def test_integers_still_accepted(self):
        """numpy integers, uint64 seed arrays and ints reduced mod 2^64."""
        want = Stream(7).raw(3).tolist()
        assert Stream(np.int64(7)).raw(3).tolist() == want
        assert Stream(7 + (MASK + 1)).raw(3).tolist() == want
        assert Stream(-1).raw(3).tolist() == Stream(MASK).raw(3).tolist()
        seeds = np.array([7, MASK], dtype=np.uint64)
        assert RowStreams(seeds).raw(3)[0].tolist() == want
        assert (substream_seed(np.uint64(7), np.int64(3))
                == substream_seed(7, 3))


class TestCountArguments:
    """A draw count goes through operator.index and must be >= 0: a
    non-integer or negative count is refused by name, never truncated or
    left to numpy's own error."""

    DRAWS = {"raw": (), "uniforms": (), "normals": (), "gammas": (2.0,),
             "gammas-boosted": (0.5,)}

    @pytest.mark.parametrize("make", [lambda: Stream(1),
                                      lambda: RowStreams([1, 2])],
                             ids=["stream", "row-streams"])
    @pytest.mark.parametrize("draw", DRAWS, ids=str)
    @pytest.mark.parametrize("count, message", [
        (2.5, "count must be an integer, got 2.5"),
        ("3", "count must be an integer, got '3'"),
        (-1, "count must be >= 0, got -1"),
        (-3, "count must be >= 0, got -3"),
    ], ids=["float", "str", "minus-one", "minus-three"])
    def test_refused(self, make, draw, count, message):
        stream = make()
        with pytest.raises(DomainError) as info:
            getattr(stream, draw.split("-")[0])(*self.DRAWS[draw], count)
        assert type(info.value) is DomainError
        assert str(info.value) == message

    @pytest.mark.parametrize("draw", DRAWS, ids=str)
    def test_zero_gives_an_empty_row(self, draw):
        method = draw.split("-")[0]
        stream = Stream(1)
        assert getattr(stream, method)(*self.DRAWS[draw], 0).shape == (0,)
        assert stream.consumed == 0
        rows = getattr(RowStreams([1, 2]), method)(*self.DRAWS[draw], 0)
        assert rows.shape == (2, 0)

    def test_integer_counts_still_accepted(self):
        want = Stream(7).gammas(2.5, 4).tobytes()
        assert Stream(7).gammas(2.5, np.int64(4)).tobytes() == want
        assert Stream(7).raw(np.uint8(3)).tolist() == \
            Stream(7).raw(3).tolist()


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

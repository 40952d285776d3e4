"""Seedable counter-based random number generation.

The generator is fixed by this project so that runs are bit-reproducible and
so that the exact draw streams can be recreated in any language.  The full
algorithm, in order of consumption:

* Raw 64-bit stream.  Output ``k`` (1-based) of the stream with seed ``s`` is
  ``mix64((s + k * 0x9E3779B97F4A7C15) mod 2^64)`` where ``mix64`` is the
  standard splitmix64 finalizer::

      z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
      z ^= z >> 27;  z *= 0x94D049BB133111EB
      z ^= z >> 31

* Uniform in (0, 1]: take the top 53 bits, ``u = (raw >> 11 + 0.5) * 2^-53``,
  the sum rounded to float64 (ties to even).  Never returns 0.0; the least
  value is 2^-54.  It returns exactly 1.0 when the top 53 bits are all ones,
  since 2^53 - 1 + 0.5 rounds to 2^53; that has probability 2^-53 per draw,
  and the largest value below it is 1 - 2^-52.  The consumers accept 1.0:
  ``ln 1 = 0`` in Box-Muller and in the gamma test, and a Uniform(a, b)
  draw ``min(a + (b - a) u, b)`` is then b, though ``(b - a) + a`` alone
  can round one ulp above it (Uniform(-0.1, 0.3) would give
  0.30000000000000004).

* Standard normal: two uniforms per deviate,
  ``z = sqrt(-2 ln u1) * cos(2 pi u2)`` with ``u1`` then ``u2`` drawn as two
  consecutive blocks of the batch size.

* Gamma(shape >= 1, rate 1): squeeze rejection sampling.  Each round draws
  one candidate per still-empty slot, in slot order; a candidate consumes
  exactly one normal deviate and one uniform (three uniforms total).  With
  ``d = shape - 1/3``, ``c = 1/sqrt(9 d)``, ``v = (1 + c x)^3``, the
  candidate ``d v`` is accepted when ``v > 0`` and either
  ``u < 1 - 0.0331 x^4`` or ``ln u < x^2 / 2 + d (1 - v + ln v)``.
  For shape < 1 a Gamma(shape + 1) batch is drawn first, then one uniform
  per value for the boost ``g * u^(1/shape)``.

* Counter layout of one round.  Let the round start at counter ``c`` with
  ``m`` still-empty slots.  The slot of rank ``i`` (0-based, in slot order)
  takes ``u1`` from output ``c + 1 + i``, ``u2`` from ``c + 1 + m + i`` and
  its acceptance uniform ``u`` from ``c + 1 + 2 m + i``; the round then
  advances the counter to ``c + 3 m``.  The first round is therefore one
  contiguous block of ``3 n`` outputs.  A Beta or Fisher sample draws its
  second Gamma batch from the same stream, continuing the counter.

* Substream seeds: replication ``j`` of a run with master seed ``s`` uses
  ``mix64((s + j * 0xD1B54A32D192ED03) mod 2^64)``.

:class:`RowStreams` advances many such streams at once, one per row of its
output: each row keeps its own seed and counter, and the layout above holds
within every row, so row ``r`` holds exactly what ``Stream(seeds[r])`` draws.
:class:`Stream` is its one-row case: one rejection-round path serves one
row and many, so a single stream runs the same code as every row of a
block.  A seed is any integer (``operator.index``), reduced mod 2^64, and a
substream index an integer in [1, 2^64); a float, a string or any other
value raises :class:`DomainError` rather than being truncated.  All state
lives in the instance; nothing global is touched.  Draws write their
intermediates into the scratch arrays of a :class:`Workspace`, which one
caller may reuse from call to call; reused buffers change no draw.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import DomainError, _integer

__all__ = ["RowStreams", "Stream", "Workspace", "substream_seed"]

_MASK = (1 << 64) - 1
_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_SUBSTREAM = _U64(0xD1B54A32D192ED03)
_MUL1 = _U64(0xBF58476D1CE4E5B9)
_MUL2 = _U64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = _U64(30), _U64(27), _U64(31), _U64(11)
_TWO_M53 = 2.0 ** -53
_TWO_PI = 2.0 * np.pi

#: Most values per chunk of a gamma batch's first rejection round, whose
#: three lanes of keys, shifts and uniforms then stay in the L2 cache.
FIRST_ROUND_VALUES = 16384


def _mix(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place on a uint64 array; ``t`` is
    scratch of the same shape."""
    z ^= np.right_shift(z, _S30, out=t)
    z *= _MUL1
    z ^= np.right_shift(z, _S27, out=t)
    z *= _MUL2
    z ^= np.right_shift(z, _S31, out=t)
    return z


def _to_uniforms(raw: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Uniforms from raw outputs, whose array is overwritten, into ``out``."""
    raw >>= _S11
    out[...] = raw
    out += 0.5
    out *= _TWO_M53
    return out


def _box_muller(u1: np.ndarray, u2: np.ndarray, out: np.ndarray
                ) -> np.ndarray:
    """Normals into ``out``, which may be ``u1``; ``u2`` is overwritten."""
    np.log(u1, out=out)
    out *= -2.0
    np.sqrt(out, out=out)
    u2 *= _TWO_PI
    out *= np.cos(u2, out=u2)
    return out


def _substream_seeds(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """Seeds of substreams lo..hi-1 (lo >= 1) of ``master_seed``, uint64."""
    z = np.arange(lo, hi, dtype=_U64) * _SUBSTREAM + _U64(master_seed & _MASK)
    return _mix(z, np.empty_like(z))


def substream_seed(master_seed: int, index: int) -> int:
    """Derived seed for substream ``index`` (1 <= index < 2^64) of
    ``master_seed``."""
    master_seed = _integer(master_seed, "master seed")
    index = _integer(index, "substream index")
    if not 1 <= index <= _MASK:
        raise DomainError(
            f"substream index must be >= 1 and < 2**64, got {index}")
    return int(_substream_seeds(master_seed, index, index + 1)[0])


class Workspace:
    """Scratch arrays of one caller, reused by every draw it makes and by
    the plugin statistics of its row blocks.

    :meth:`take` hands out a view of a named buffer, which is allocated on
    first use and replaced only when a larger size is asked for, so a study
    of equal row blocks allocates its buffers in its first block.  A gamma
    batch's first rejection round takes its key, shift and uniform buffers
    at the size of one chunk of at most ``FIRST_ROUND_VALUES`` values, the
    later rounds at the size of the rejected slots.  The buffers hold no
    generator state.  A workspace must not be shared between threads: give
    each its own.
    """

    def __init__(self):
        self._arrays: dict = {}

    def take(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """A view of the given shape on buffer ``name``; its contents are
        whatever the last user left there."""
        size = math.prod(shape)
        buf = self._arrays.get(name)
        if buf is None or buf.size < size:
            buf = self._arrays[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def steps(self, count: int) -> np.ndarray:
        """The counter offsets ``k * 0x9E3779B97F4A7C15`` for k < count."""
        buf = self._arrays.get("steps")
        if buf is None or buf.size < count:
            buf = self._arrays["steps"] = (
                np.arange(count, dtype=_U64) * _GOLDEN)
        return buf[:count]


class RowStreams:
    """Counter-based deviate streams advanced together, one per seed.

    Every draw returns one row per stream, and row ``r`` is bit for bit what
    ``Stream(seeds[r])`` returns for the same sequence of calls; see the
    module docstring for the exact algorithm and counter layout.  Scratch
    arrays come from ``workspace``, a new one if none is given.
    """

    def __init__(self, seeds, workspace: Optional[Workspace] = None):
        if isinstance(seeds, np.ndarray) and seeds.dtype == _U64:
            self._seeds = seeds.copy()
        else:
            self._seeds = np.array(
                [_integer(s, "seed") & _MASK for s in seeds], dtype=_U64)
        self._counters = np.zeros(self._seeds.size, dtype=_U64)
        self._ws = Workspace() if workspace is None else workspace

    @property
    def rows(self) -> int:
        return self._seeds.size

    def _draw(self, lanes: int, m, row=None, span=slice(None)
              ) -> np.ndarray:
        """Raw outputs of shape (lanes, P) for P pending slots, in the
        workspace: the slot of rank i in a row with m_r slots reads counter
        c_r + 1 + t m_r + i in lane t.  With ``row`` None every row of the
        slice ``span`` has ``m`` slots (an int), laid out row after row;
        otherwise ``m`` holds the count of every row and ``row`` the row of
        each slot, in ascending order."""
        ws = self._ws
        if row is None:
            counters = self._counters[span]
            base = self._seeds[span] + (counters + _U64(1)) * _GOLDEN
            keys = ws.take("keys", (lanes, base.size * m), _U64)
            np.add(base[:, None], ws.steps(lanes * m).reshape(lanes, 1, m),
                   out=keys.reshape(lanes, base.size, m))
            counters += _U64(lanes * m)  # a view: advances those rows
        else:
            # slot p of the round has rank p - start_r in its row
            start = np.cumsum(m) - m
            base = self._seeds + (self._counters + _U64(1) - start) * _GOLDEN
            lane = np.arange(lanes, dtype=_U64)[:, None]
            keys = ws.take("keys", (lanes, row.size), _U64)
            np.take(base + lane * m * _GOLDEN, row, axis=1, out=keys,
                    mode="clip")  # "raise" would buffer the output
            keys += ws.steps(row.size)
            self._counters += _U64(lanes) * m
        return _mix(keys, ws.take("shift", keys.shape, _U64))

    def _uniform_lanes(self, lanes: int, m, row=None, span=slice(None)
                       ) -> np.ndarray:
        """Uniforms of shape (lanes, P) in the workspace; see :meth:`_draw`."""
        raw = self._draw(lanes, m, row, span)
        return _to_uniforms(raw, self._ws.take("uniforms", raw.shape))

    def raw(self, count: int) -> np.ndarray:
        return self._draw(1, count).reshape(self.rows, count).copy()

    def uniforms(self, count: int, out=None) -> np.ndarray:
        """i.i.d. uniforms in (0, 1], written into ``out``, a C-contiguous
        (rows, count) array, when given; a value is 1.0 only when a raw
        output's top 53 bits are all ones (see the module docstring)."""
        if out is None:
            out = np.empty((self.rows, count))
        return _to_uniforms(self._draw(1, count).reshape(out.shape), out)

    def normals(self, count: int) -> np.ndarray:
        """i.i.d. standard normal deviates."""
        u1, u2 = self._uniform_lanes(2, count)
        return _box_muller(u1, u2, np.empty(u1.size)).reshape(self.rows,
                                                              count)

    def gammas(self, shape: float, count: int, out=None) -> np.ndarray:
        """i.i.d. Gamma(shape, rate 1) deviates, written into ``out``, a
        C-contiguous (rows, count) array, when given.

        The first round runs over chunks of whole rows, of at most
        ``FIRST_ROUND_VALUES`` values (one row if a row is longer), so that
        its workspace buffers stay cache-sized however many rows there are;
        the later rounds then run once over the rejected slots of every
        row, on the same path for one row as for many.  Rows are
        independent streams, so the chunking changes no draw."""
        if not 0.0 < shape < math.inf:
            raise DomainError(
                f"gamma shape must be finite and > 0, got {shape}")
        rows, ws = self.rows, self._ws
        if out is None:
            out = np.empty((rows, count))
        if not out.size:  # no slot to fill, no counter to advance
            return out
        if shape < 1.0:
            self.gammas(shape + 1.0, count, out)
            boost = self.uniforms(count, ws.take("boost", out.shape))
            boost **= 1.0 / shape
            out *= boost
            return out
        d = shape - 1.0 / 3.0
        c = 1.0 / np.sqrt(9.0 * d)
        flat = out.reshape(-1)
        step = max(1, FIRST_ROUND_VALUES // count)
        pending = []
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            v, accept = self._candidates(d, c, count, span=slice(lo, hi))
            # slot p is candidate p; a rejected slot is rewritten later
            np.multiply(v, d, out=flat[lo * count:hi * count])
            pending.append(np.flatnonzero(np.logical_not(accept, out=accept))
                           + lo * count)
        pending = np.concatenate(pending)
        while pending.size:
            row = pending // count
            v, accept = self._candidates(
                d, c, np.bincount(row, minlength=rows).astype(_U64), row)
            flat[pending[accept]] = d * v[accept]
            pending = pending[~accept]
        return out

    def _candidates(self, d: float, c: float, m, row=None, span=slice(None)
                    ) -> tuple:
        """One squeeze round of Gamma(d + 1/3) candidates for the slots of
        :meth:`_draw`: ``v`` and the acceptance mask, both in the
        workspace; slot p's candidate is ``d * v[p]``."""
        ws = self._ws
        u1, u2, u = self._uniform_lanes(3, m, row, span)
        x = _box_muller(u1, u2, u1)
        v = np.multiply(x, c, out=u2)
        v += 1.0
        v **= 3
        pos = np.greater(v, 0.0, out=ws.take("pos", v.shape, bool))
        x2 = np.multiply(x, x, out=x)
        bound = np.multiply(x2, 0.0331, out=ws.take("bound", v.shape))
        bound *= x2
        accept = np.less(u, np.subtract(1.0, bound, out=bound),
                         out=ws.take("accept", v.shape, bool))
        accept &= pos
        pos ^= accept  # accept implies pos: now pos & ~accept
        slow = np.flatnonzero(pos)
        vs = v[slow]
        accept[slow] = np.log(u[slow]) < (
            0.5 * x2[slow] + d * (1.0 - vs + np.log(vs)))
        return v, accept


class Stream:
    """One counter-based deviate stream, the one-row case of
    :class:`RowStreams`, whose draws, rejection rounds included, run the
    same code as a row of a block; see the module docstring for the exact
    algorithm of every draw."""

    def __init__(self, seed: int):
        self._rows = RowStreams([seed])

    @property
    def consumed(self) -> int:
        """Number of raw 64-bit outputs consumed so far."""
        return int(self._rows._counters[0])

    def raw(self, count: int) -> np.ndarray:
        return self._rows.raw(count)[0]

    def uniforms(self, count: int) -> np.ndarray:
        """i.i.d. uniforms in (0, 1]; a value is 1.0 only when a raw
        output's top 53 bits are all ones (see the module docstring)."""
        return self._rows.uniforms(count)[0]

    def normals(self, count: int) -> np.ndarray:
        """i.i.d. standard normal deviates."""
        return self._rows.normals(count)[0]

    def gammas(self, shape: float, count: int) -> np.ndarray:
        """i.i.d. Gamma(shape, rate 1) deviates."""
        return self._rows.gammas(shape, count)[0]

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

* Uniform in (0, 1): take the top 53 bits, ``u = (raw >> 11 + 0.5) * 2^-53``.
  Never returns 0.0 or 1.0.

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
:class:`Stream` is its one-row case.  All state lives in the instance;
nothing global is touched.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["RowStreams", "Stream", "substream_seed", "mix64"]

_MASK = (1 << 64) - 1
_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_SUBSTREAM = _U64(0xD1B54A32D192ED03)
_MUL1 = _U64(0xBF58476D1CE4E5B9)
_MUL2 = _U64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = _U64(30), _U64(27), _U64(31), _U64(11)
_TWO_M53 = 2.0 ** -53
_TWO_PI = 2.0 * np.pi


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place on a uint64 array."""
    z ^= z >> _S30
    z *= _MUL1
    z ^= z >> _S27
    z *= _MUL2
    z ^= z >> _S31
    return z


def _to_uniforms(raw: np.ndarray) -> np.ndarray:
    """Uniforms from raw outputs, whose array is overwritten."""
    raw >>= _S11
    u = raw.astype(np.float64)
    u += 0.5
    u *= _TWO_M53
    return u


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    z = np.log(u1)
    z *= -2.0
    np.sqrt(z, out=z)
    z *= np.cos(_TWO_PI * u2)
    return z


def _steps(count: int) -> np.ndarray:
    return np.arange(count, dtype=_U64) * _GOLDEN


def mix64(value: int) -> int:
    """The splitmix64 finalizer on a single 64-bit integer."""
    z = value & _MASK
    z = ((z ^ (z >> 30)) * int(_MUL1)) & _MASK
    z = ((z ^ (z >> 27)) * int(_MUL2)) & _MASK
    return z ^ (z >> 31)


def substream_seed(master_seed: int, index: int) -> int:
    """Derived seed for substream ``index`` (>= 1) of ``master_seed``."""
    if index < 1:
        raise DomainError(f"substream index must be >= 1, got {index}")
    return mix64(master_seed + index * int(_SUBSTREAM))


class RowStreams:
    """Counter-based deviate streams advanced together, one per seed.

    Every draw returns one row per stream, and row ``r`` is bit for bit what
    ``Stream(seeds[r])`` returns for the same sequence of calls; see the
    module docstring for the exact algorithm and counter layout.
    """

    def __init__(self, seeds):
        self._seeds = np.array([int(s) & _MASK for s in seeds], dtype=_U64)
        self._counters = np.zeros(self._seeds.size, dtype=_U64)

    @property
    def rows(self) -> int:
        return self._seeds.size

    def _draw(self, lanes: int, m, row=None) -> np.ndarray:
        """Raw outputs of shape (lanes, P) for P pending slots: the slot of
        rank i in a row with m_r slots reads counter c_r + 1 + t m_r + i in
        lane t.  With ``row`` None every row has ``m`` slots (an int),
        laid out row after row; otherwise ``m`` holds the count of every
        row and ``row`` the row of each slot, in ascending order."""
        if row is None:
            base = self._seeds + (self._counters + _U64(1)) * _GOLDEN
            keys = base[:, None] + _steps(lanes * m).reshape(lanes, 1, m)
            self._counters += _U64(lanes * m)
            return _mix(keys.reshape(lanes, -1))
        # slot p of the round has rank p - start_r in its row
        start = np.cumsum(m) - m
        base = self._seeds + (self._counters + _U64(1) - start) * _GOLDEN
        lane = np.arange(lanes, dtype=_U64)[:, None]
        keys = (base + lane * m * _GOLDEN)[:, row] + _steps(row.size)
        self._counters += _U64(lanes) * m
        return _mix(keys)

    def raw(self, count: int) -> np.ndarray:
        return self._draw(1, count).reshape(self.rows, count)

    def uniforms(self, count: int) -> np.ndarray:
        """i.i.d. uniforms strictly inside (0, 1)."""
        return _to_uniforms(self.raw(count))

    def normals(self, count: int) -> np.ndarray:
        """i.i.d. standard normal deviates."""
        u1, u2 = _to_uniforms(self._draw(2, count))
        return _box_muller(u1, u2).reshape(self.rows, count)

    def gammas(self, shape: float, count: int) -> np.ndarray:
        """i.i.d. Gamma(shape, rate 1) deviates."""
        if not shape > 0.0:
            raise DomainError(f"gamma shape must be > 0, got {shape}")
        if shape < 1.0:
            g = self.gammas(shape + 1.0, count)
            return g * self.uniforms(count) ** (1.0 / shape)
        d = shape - 1.0 / 3.0
        c = 1.0 / np.sqrt(9.0 * d)
        rows = self.rows
        out = np.empty(rows * count)
        pending = np.arange(rows * count)  # flat slots, row after row
        m, row = count, None
        while pending.size:
            u1, u2, u = _to_uniforms(self._draw(3, m, row))
            x = _box_muller(u1, u2)
            v = (1.0 + c * x) ** 3
            pos = v > 0.0
            x2 = x * x
            accept = pos & (u < 1.0 - 0.0331 * x2 * x2)
            slow = np.flatnonzero(pos & ~accept)
            if slow.size:
                vs = v[slow]
                accept[slow] = np.log(u[slow]) < (
                    0.5 * x2[slow] + d * (1.0 - vs + np.log(vs)))
            out[pending[accept]] = d * v[accept]
            pending = pending[~accept]
            if rows == 1:
                m = pending.size
            else:
                row = pending // count
                m = np.bincount(row, minlength=rows).astype(_U64)
        return out.reshape(rows, count)


class Stream:
    """One counter-based deviate stream, the one-row case of
    :class:`RowStreams`; see the module docstring for the exact algorithm
    of every draw."""

    def __init__(self, seed: int):
        self._rows = RowStreams([seed])

    @property
    def consumed(self) -> int:
        """Number of raw 64-bit outputs consumed so far."""
        return int(self._rows._counters[0])

    def raw(self, count: int) -> np.ndarray:
        return self._rows.raw(count)[0]

    def uniforms(self, count: int) -> np.ndarray:
        """i.i.d. uniforms strictly inside (0, 1)."""
        return self._rows.uniforms(count)[0]

    def normals(self, count: int) -> np.ndarray:
        """i.i.d. standard normal deviates."""
        return self._rows.normals(count)[0]

    def gammas(self, shape: float, count: int) -> np.ndarray:
        """i.i.d. Gamma(shape, rate 1) deviates."""
        return self._rows.gammas(shape, count)[0]

"""Counter-based random numbers.

Every draw is a pure function of (seed, stream, index, slot), so results do
not depend on call order, process count, or platform.  This is what makes
the pipeline reproducible under parallel execution: a worker can generate
the i-th sample without generating the first i-1.
"""

from __future__ import annotations

import hashlib

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_INV_2_53 = float(2.0**-53)


def mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise on uint64 (wraparound intended)."""
    with np.errstate(over="ignore"):
        z = (x + np.uint64(_GAMMA)).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
        return z ^ (z >> np.uint64(31))


def _mix64_int(x: int) -> int:
    """`mix64` of one value held in a Python int, masked to 64 bits."""
    z = (x + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def _hash(seed: int, stream: int, index, slot: int) -> np.ndarray:
    idx = np.asarray(index, dtype=np.uint64)
    h = mix64(np.uint64(seed & _MASK) + np.zeros_like(idx))
    h = mix64(h ^ np.uint64(stream & _MASK))
    h = mix64(h ^ idx)
    return mix64(h ^ np.uint64(slot & _MASK))


def _hash_int(seed: int, stream: int, index: int, slot: int) -> int:
    """`_hash` of one index on Python ints: the same bits, without the cost
    of numpy scalars, for draws taken one at a time."""
    h = _mix64_int(seed & _MASK)
    h = _mix64_int(h ^ (stream & _MASK))
    h = _mix64_int(h ^ (index & _MASK))
    return _mix64_int(h ^ (slot & _MASK))


def uniform(seed: int, stream: int, index, slot: int = 0) -> np.ndarray:
    """Uniform float64 in [0, 1) for each index."""
    return (_hash(seed, stream, index, slot) >> np.uint64(11)) * _INV_2_53


def normal(seed: int, stream: int, index, slot: int = 0) -> np.ndarray:
    """Standard normal via Box-Muller; consumes uniform slots 2*slot, 2*slot+1."""
    u1 = uniform(seed, stream, index, 2 * slot)
    u2 = uniform(seed, stream, index, 2 * slot + 1)
    # 1-u1 is in (0, 1], so the log is finite.
    r = np.sqrt(-2.0 * np.log1p(-u1))
    return r * np.cos(2.0 * np.pi * u2)


def uniform_int(seed: int, stream: int, index, lo: int, hi: int, slot: int = 0) -> np.ndarray:
    """Uniform integer in [lo, hi] inclusive."""
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    u = uniform(seed, stream, index, slot)
    return lo + np.minimum((u * (hi - lo + 1)).astype(np.int64), hi - lo)


def derive_seed(master_seed: int, label: str) -> int:
    """Stable 63-bit sub-seed for a named stage."""
    h = hashlib.blake2b(digest_size=8)
    h.update(master_seed.to_bytes(8, "little", signed=False))
    h.update(label.encode("utf-8"))
    return int.from_bytes(h.digest(), "little") & 0x7FFFFFFFFFFFFFFF


class Stream:
    """Stateful convenience wrapper: sequential draws from one counter stream.

    Used where a generator walks a structure in a fixed order (skeleton
    growth).  The state is just an integer counter, so two runs with the
    same seed produce identical sequences on any platform.  Each draw is
    `uniform` (or `uniform_int`) at the next index, hashed on Python ints.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._counter = 0

    def _next_index(self) -> int:
        i = self._counter
        self._counter += 1
        return i

    def _next_uniform(self) -> float:
        """`uniform` at the next index, slot 0, on Python ints."""
        return (_hash_int(self.seed, self.stream, self._next_index(), 0) >> 11) * _INV_2_53

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + self._next_uniform() * (hi - lo)

    def integer(self, lo: int, hi: int) -> int:
        """Uniform int in [lo, hi] inclusive: `uniform_int` at the next index."""
        u = self._next_uniform()
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return int(lo + min(int(u * (hi - lo + 1)), hi - lo))

"""Deterministic randomness: a SplitMix64 stream with Gaussian output.

Every stochastic routine in the package draws from this generator. The
integer stream is exact everywhere: each state update and output is pure
64-bit arithmetic. A Gaussian is a Box-Muller pair, which also goes through
libm's ``log``, ``cos`` and ``sin``; IEEE-754 fixes every other operation's
rounding, but not theirs, so a Gaussian (and all that is built from it) is
bit-reproducible on one platform and libm, and may differ in its last bits
on another. :func:`normal_block` therefore takes ``math.log``, ``math.cos``
and ``math.sin`` one element at a time, the functions ``normal`` calls, and
not numpy's vectorized ones: ``np.log`` rounds differently from
``math.log`` on about one input in 280 on an AVX-512 CPU. ``np.sqrt`` is
correctly rounded, as ``math.sqrt`` is, so the block may use it.

Per-trial streams are derived with :func:`derive_seed`, which matches

    trial_seed = SplitMix64(master_seed XOR (index * 0x9E3779B97F4A7C15))

i.e. the first output of a SplitMix64 stream seeded with the xored value.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _box_muller(a: int, b: int) -> tuple[float, float]:
    """The Gaussian pair of two outputs: (cosine half, sine half)."""
    # u1 in (0, 1] so log is finite
    u1 = ((a >> 11) + 1) * 2.0**-53
    u2 = (b >> 11) * 2.0**-53
    radius = math.sqrt(-2.0 * math.log(u1))
    theta = 2.0 * math.pi * u2
    return radius * math.cos(theta), radius * math.sin(theta)


class SplitMix64:
    """The SplitMix64 generator (Steele/Lea/Flood; Vigna's reference constants)."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = seed & _MASK64
        self._spare: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        """Standard Gaussian via Box-Muller (deterministic, cached spare)."""
        if self._spare is not None:
            z = self._spare
            self._spare = None
            return z
        z, self._spare = _box_muller(self.next_u64(), self.next_u64())
        return z

    def skip(self, count: int) -> None:
        """Move past the next ``count`` Gaussians without drawing them: the
        state and spare that ``count`` normal() calls leave, in closed form
        (two outputs per pair; the sine half of a pair half used is kept)."""
        if count and self._spare is not None:
            self._spare = None
            count -= 1
        pairs, odd = divmod(count, 2)
        self._state = (self._state + 2 * pairs * _GAMMA) & _MASK64
        if odd:
            _z, self._spare = _box_muller(self.next_u64(), self.next_u64())

    def state(self) -> tuple:
        """The generator's whole state: its integer state and spare."""
        return self._state, self._spare

    def normals(self, shape: tuple[int, ...] | int) -> np.ndarray:
        if isinstance(shape, int):
            shape = (shape,)
        n = int(np.prod(shape)) if shape else 1
        out = np.empty(n, dtype=np.float64)
        for i in range(n):
            out[i] = self.normal()
        return out.reshape(shape)

    def complex_normals(self, shape: tuple[int, ...] | int) -> np.ndarray:
        re = self.normals(shape)
        im = self.normals(shape)
        return re + 1j * im

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in [low, high) by rejection-free modular draw.

        The tiny modulo bias (< 2^-50 for our ranges) is irrelevant here; what
        matters is determinism.
        """
        if high <= low:
            raise ValueError("empty range")
        return low + self.next_u64() % (high - low)

    def spawn(self, index: int) -> "SplitMix64":
        """Independent child stream for a trial index."""
        return SplitMix64(derive_seed(self.seed, index))


def normal_block(rngs: list[SplitMix64], count: int) -> np.ndarray:
    """The next ``count`` Gaussians of each generator, one row per
    generator, as ``count`` normal() calls would return them; the
    generators do not move (``skip`` moves them).

    Each row starts from its generator's own state and spare, so a stream
    with a pending spare, or one that ``integers`` has moved on, fits in
    the same block. The k-th state of a stream is state + k * gamma, mixed
    in wrapping uint64 arithmetic.
    """
    pairs = (count + 1) // 2
    steps = np.arange(1, 2 * pairs + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z = np.array([g._state for g in rngs], dtype=np.uint64)[:, None] + steps
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    u1 = ((z[:, 0::2] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
    u2 = (z[:, 1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    logs = np.fromiter(map(math.log, u1.ravel().tolist()), np.float64, u1.size)
    radius = np.sqrt(-2.0 * logs.reshape(u1.shape))
    theta = (2.0 * math.pi * u2).ravel().tolist()
    both = np.empty(u1.shape + (2,))
    both[..., 0] = radius * np.fromiter(map(math.cos, theta), np.float64,
                                        len(theta)).reshape(u1.shape)
    both[..., 1] = radius * np.fromiter(map(math.sin, theta), np.float64,
                                        len(theta)).reshape(u1.shape)
    drawn = both.reshape(len(rngs), 2 * pairs)
    out = drawn[:, :count].copy()
    spare = [k for k, g in enumerate(rngs) if g._spare is not None]
    if spare and count:
        out[spare, 1:] = drawn[spare, :count - 1]
        out[spare, 0] = [rngs[k]._spare for k in spare]
    return out


def derive_seed(master_seed: int, index: int) -> int:
    """First SplitMix64 output of the stream seeded with master ^ (index * gamma)."""
    mixed = (master_seed ^ ((index * _GAMMA) & _MASK64)) & _MASK64
    return SplitMix64(mixed).next_u64()

"""Deterministic randomness: a SplitMix64 stream with Gaussian output.

Every stochastic routine in the package draws from this generator so that runs
are bit-reproducible across platforms (pure integer state updates plus IEEE-754
double arithmetic). Per-trial streams are derived with :func:`derive_seed`,
which matches

    trial_seed = SplitMix64(master_seed XOR (index * 0x9E3779B97F4A7C15))

i.e. the first output of a SplitMix64 stream seeded with the xored value.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


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
        # u1 in (0, 1] so log is finite
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
        u2 = (self.next_u64() >> 11) * 2.0**-53
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare = radius * math.sin(theta)
        return radius * math.cos(theta)

    def state(self) -> tuple:
        """The generator's whole state, for ``resume``."""
        return self._state, self._spare

    def resume(self, state: tuple) -> None:
        """Put the generator back to a state that ``state`` returned."""
        self._state, self._spare = state

    def normal_runs(self, count: int, size: int) -> tuple[np.ndarray, list]:
        """``count`` runs of ``size`` standard Gaussians, drawn as ``count``
        calls of normals(size) draw them, as a (count, size) array, and the
        generator's state after each run."""
        normal = self.normal
        runs, states = [], []
        for _ in range(count):
            runs.append([normal() for _ in range(size)])
            states.append(self.state())
        return np.array(runs, dtype=np.float64), states

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


def derive_seed(master_seed: int, index: int) -> int:
    """First SplitMix64 output of the stream seeded with master ^ (index * gamma)."""
    mixed = (master_seed ^ ((index * _GAMMA) & _MASK64)) & _MASK64
    return SplitMix64(mixed).next_u64()

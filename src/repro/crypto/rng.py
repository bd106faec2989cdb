"""Deterministic random number generator.

A counter-mode generator built on SHA-256.  Given the same seed it
produces the same stream on every platform and Python version, which
makes whole synthetic PKIs, BGP tables, and web ecosystems
reproducible bit-for-bit.  It is *not* meant to be secure against an
adaptive adversary — determinism is the point.
"""

from __future__ import annotations

import hashlib
from typing import Sequence, TypeVar, Union

T = TypeVar("T")

Seed = Union[int, str, bytes]


def _seed_bytes(seed: Seed) -> bytes:
    if isinstance(seed, bytes):
        return seed
    if isinstance(seed, str):
        return seed.encode("utf-8")
    return str(int(seed)).encode("ascii")


class DeterministicRNG:
    """SHA-256 counter-mode byte stream with convenience samplers."""

    def __init__(self, seed: Seed):
        self._key = hashlib.sha256(b"repro-rng:" + _seed_bytes(seed)).digest()
        self._counter = 0
        self._buffer = b""

    def fork(self, label: Seed) -> "DeterministicRNG":
        """Derive an independent child generator.

        Forking lets subsystems draw randomness without perturbing each
        other's streams — adding a consumer never changes the values an
        existing consumer sees.
        """
        return DeterministicRNG(self._key + b"/" + _seed_bytes(label))

    def bytes(self, count: int) -> bytes:
        """Return ``count`` pseudo-random bytes."""
        while len(self._buffer) < count:
            block = hashlib.sha256(
                self._key + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            self._buffer += block
        result, self._buffer = self._buffer[:count], self._buffer[count:]
        return result

    def getrandbits(self, bits: int) -> int:
        """Return a uniform integer in ``[0, 2**bits)``."""
        if bits <= 0:
            return 0
        count = (bits + 7) // 8
        value = int.from_bytes(self.bytes(count), "big")
        return value >> (count * 8 - bits)

    def randint(self, low: int, high: int) -> int:
        """Return a uniform integer in the inclusive range [low, high]."""
        if low > high:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        bits = span.bit_length()
        # Rejection sampling keeps the distribution exactly uniform.
        while True:
            value = self.getrandbits(bits)
            if value < span:
                return low + value

    def random(self) -> float:
        """Return a float in [0, 1) with 53 bits of precision."""
        return self.getrandbits(53) / (1 << 53)

    def choice(self, seq: Sequence[T]) -> T:
        """Return a uniformly chosen element of a non-empty sequence."""
        if not seq:
            raise IndexError("choice from an empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def sample(self, seq: Sequence[T], count: int) -> list:
        """Return ``count`` distinct elements, order randomised."""
        if count > len(seq):
            raise ValueError(f"sample of {count} from {len(seq)} elements")
        pool = list(seq)
        picked = []
        for _ in range(count):
            index = self.randint(0, len(pool) - 1)
            picked.append(pool.pop(index))
        return picked

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Choose one element with probability proportional to its weight."""
        if len(items) != len(weights):
            raise ValueError("items and weights length mismatch")
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        threshold = self.random() * total
        running = 0.0
        for item, weight in zip(items, weights):
            running += weight
            if threshold < running:
                return item
        return items[-1]

"""SplitMix64 pseudo-random stream used for reproducible network faults.

The generator is fully specified so that drop sequences can be reproduced
from a scenario seed alone, independently of the host platform: state
advances by the 64-bit golden-gamma constant and each output is the
finalized mix of the new state.
"""

from __future__ import annotations

import hashlib

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit generator with a tiny, portable state."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_float(self) -> float:
        """Uniform draw in [0, 1): the top 53 bits of the next 64-bit output."""
        z = self._state = (self._state + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return ((z ^ (z >> 31)) >> 11) / float(1 << 53)


def stream_for_link(seed: int, endpoint_a: str, endpoint_b: str) -> SplitMix64:
    """Derive the per-link fault stream from the scenario seed.

    The link key is the sorted endpoint pair, hashed with SHA-256 and
    folded to 64 bits, so both directions of a link share one stream and
    the derivation does not depend on Python's randomized ``hash``.
    """
    key = "~".join(sorted((endpoint_a, endpoint_b)))
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    sub = int.from_bytes(digest[:8], "big")
    return SplitMix64((seed ^ sub) & _MASK64)

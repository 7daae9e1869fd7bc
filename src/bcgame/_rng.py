"""Deterministic stream seeding shared by the Monte Carlo routines.

Batches get independent Philox4x64 streams (period 2**256 - 1, documented
counter/key state) whose 128-bit keys are derived from the master seed and
the batch index by SplitMix64 finalization:

    key = mix(seed + (2 i + 1) g) | mix(seed + (2 i + 2) g) << 64

with g the 64-bit golden-ratio increment and the sums taken modulo
2**64.  Within one seed the batches have distinct keys, and for one batch
index distinct seeds in [0, 2**64) have distinct keys, since g is odd and
SplitMix64 finalization is a bijection.  Across seeds keys do repeat:
batch i of seed s has the key of batch i - 1 of seed s + 2 g.  The
oracle draws 53-bit-mantissa doubles in [0, 1) from a stream; ``simulate``
reads its raw 64-bit words, each as two 32-bit uniforms
(``valuation._play_batch``).

The CLI keeps the OpenSSL library that importing ``numpy.random`` would
map out of its process (``cli._keep_openssl_out``).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4B7C15


def splitmix64(value: int) -> int:
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def batch_key(seed: int, batch_index: int) -> int:
    """128-bit Philox key for one batch of one master seed."""
    lo = splitmix64(seed + (2 * batch_index + 1) * _GOLDEN)
    hi = splitmix64(seed + (2 * batch_index + 2) * _GOLDEN)
    return lo | (hi << 64)


def batch_generator(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=batch_key(seed, batch_index)))

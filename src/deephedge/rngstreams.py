"""Deterministic random-number streams derived from one root seed.

Every source of randomness in the package (market simulation, parameter
initialization, batch shuffling, pseudo-target sampling) draws from its
own counter-based Philox stream, keyed by the root seed, a purpose tag,
and an optional sub-index. Streams are mutually independent and
reproducible regardless of evaluation order. The Monte Carlo pricing
oracle of the test suite simulates through :func:`substep_normals` on
market stream ids of 1000 and above.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

# Purpose tags. Values are part of the reproducibility contract: changing
# them changes every derived stream.
MARKET_TRAIN = 1
MARKET_VAL = 2
MARKET_TEST = 3
POLICY_INIT = 4
BATCH_SHUFFLE = 5
PSEUDO_PATH = 6
PSEUDO_NOISE = 7
MARKET_SUBSTEP = 9  # 8 is unassigned


def stream(seed: int, tag: int, index: int = 0) -> Generator:
    """Return an independent Philox generator for ``(seed, tag, index)``.

    The 128-bit Philox key packs the root seed into the low word and
    (tag, index) into the high word; index may use up to 56 bits.
    """
    if not 0 <= index < (1 << 56):
        raise ValueError("stream index out of range")
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, (tag << 56) | index], dtype=np.uint64)
    return Generator(Philox(key=key))


def substep_normals(seed: int, stream_id: int, substep: int, n: int) -> np.ndarray:
    """Two standard-normal columns for one simulation substep, shape (n, 2).

    Normals come from inverse-CDF applied to fixed-width uniform draws, so
    path ``p`` always consumes the same counter positions: a worker that
    simulates only a slice of paths reproduces exactly the same numbers.
    """
    gen = stream(seed, MARKET_SUBSTEP, (stream_id << 32) | substep)
    bits = gen.integers(0, 1 << 53, size=(n, 2), dtype=np.int64)
    u = (bits.astype(np.float64) + 0.5) * (2.0 ** -53)
    return ndtri(u)

"""Generators for a chunk of Monte Carlo replicas, seeded as default_rng([seed, r]).

numpy's SeedSequence turns the entropy [seed, r] into PCG64's four seed
words with a fixed uint32 hash (O'Neill's seed_seq_fe).  Per replica that
hash costs more than the generator it seeds, but it is the same
arithmetic for every r, so seed_words runs it on a whole chunk of replica
numbers at once and replica_rngs hands each replica's words to numpy's own
PCG64 seeding.  stochastic imports this module when it builds a chunk, so
simulate, bound and search-beta never load it.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence hash on uint32 words
_MASK32 = 2**32 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hasher(const: int, mult: int):
    """numpy SeedSequence's hashmix on uint32 arrays; its constant advances by `mult` per call."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value *= const
        return value ^ value >> 16
    return hashmix


def seed_words(seed: int, start: int, stop: int) -> np.ndarray:
    """SeedSequence([seed, r]).generate_state(4, np.uint64) for r = start .. stop-1, one row each.

    The entropy of [seed, r] is the little-endian 32-bit words of seed (at
    least one, so 0 gives [0]), then those of r.  With seed and r below
    2^64 that is 2 to 4 words, which fill the pool of 4 as they are,
    zero-padded; so the pool is [seed, r mod 2^32, r >> 32, 0] or, for a
    two-word seed, [seed mod 2^32, seed >> 32, r mod 2^32, r >> 32].
    """
    r = np.arange(start, stop, dtype=np.uint64)
    words = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    pool = [np.full(len(r), w, np.uint32) for w in words]
    pool += [(r & _MASK32).astype(np.uint32), (r >> 32).astype(np.uint32), np.zeros(len(r), np.uint32)]
    hashmix = _hasher(_INIT_A, _MULT_A)
    mixer = [hashmix(w) for w in pool[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v = mixer[dst] * _MIX_L - hashmix(mixer[src]) * _MIX_R
                mixer[dst] = v ^ v >> 16
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(mixer[i % 4]).astype(np.uint64) for i in range(8)]
    return np.stack([lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])], axis=1)


@ISeedSequence.register
class _SeedWords:
    """One replica's four seed words, handed to PCG64 as its seed sequence's output.

    PCG64 asks its seed sequence for generate_state(4, np.uint64) once and
    keeps the object, so it holds those words and nothing else.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype: object = None) -> np.ndarray:
        return self.words


def replica_rngs(seed: int, start: int, stop: int) -> list[np.random.Generator]:
    """default_rng([seed, r]) for r = start .. stop-1, from seed words hashed in one pass.

    numpy's own PCG64 seeding runs on the words (registered as an
    ISeedSequence), so its 128-bit state formula is not copied here.  Each
    generator keeps a copy of its row, not a view that would hold the
    chunk's words.
    """
    return [np.random.Generator(np.random.PCG64(_SeedWords(w.copy()))) for w in seed_words(seed, start, stop)]

"""Seeded random streams with a pinned-down sample mapping.

Uniform doubles come from numpy's PCG64 bit generator.  Everything else is
an explicit transform of those uniforms written out in this file, so the
seed-to-sample mapping is fixed by this code rather than by numpy internals:

  * phases: 2*pi*u
  * circularly-symmetric complex normals (unit variance): radius
    sqrt(-log(1 - u1)), angle 2*pi*u2, with u1 the first n uniforms of the
    stream and u2 the next n
  * the power ||z||^2 of those n complex normals: sum(-log(1 - u1)),
    because |radius * exp(j*angle)|^2 = radius^2.  It reads only u1, and
    PCG64 fills arrays in order, so it draws just the first n uniforms and
    agrees with the full draw to rounding (~1e-15 relative)

Parallel Monte-Carlo runs split work by deriving one child seed per draw
index with :func:`derive_seed`, so results do not depend on how draws are
distributed over workers.  :func:`child_streams` walks those children
without numpy's per-seed setup: it runs numpy's SeedSequence hash (pool of
four 32-bit words) over a block of child seeds at once in uint32 arrays,
seeds PCG64's 128-bit state from the result in Python ints, and sets that
state on one reused generator.  Both steps are written out below, so the
seeding is fixed by this code as well; the tests pin them against
``np.random.PCG64(seed)``.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator

import numpy as np

GENERATOR_ALGORITHM = "pcg64+polar-inverse-cdf"
"""Identifier of the uniform source and the normal transform in use."""

_SEED_MASK = (1 << 64) - 1
_SEED_BLOCK = 1024  # child seeds hashed at once by child_streams

# numpy's SeedSequence constants (O'Neill's seed_seq_fe); Python ints, so
# uint32 array arithmetic wraps without a numpy scalar overflow warning
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16

_MASK128 = (1 << 128) - 1
_PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def derive_seed(parent_seed: int, index: int) -> int:
    """Deterministic 64-bit child seed for worker/draw ``index``.

    child = first 8 bytes of SHA-256(parent_le64 || index_le64), so child
    streams are decorrelated and identical across platforms.
    """
    if index < 0:
        raise ValueError(f"index must be nonnegative, got {index}")
    payload = (parent_seed & _SEED_MASK).to_bytes(8, "little") + index.to_bytes(8, "little")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


class RandomStream:
    """A single seeded stream of uniforms, phases, and complex normals."""

    def __init__(self, seed: int):
        self.seed = seed & _SEED_MASK
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        u = self._gen.random(n)
        return low + (high - low) * u

    def phases(self, n: int) -> np.ndarray:
        """Uniform phases on [0, 2*pi)."""
        return 2.0 * np.pi * self._gen.random(n)

    def complex_normal(self, n: int) -> np.ndarray:
        """n i.i.d. CN(0, 1) samples: E|z|^2 = 1 per entry."""
        u = self._gen.random((2, n))
        radius = np.sqrt(-np.log1p(-u[0]))  # 1 - u in (0, 1], no infinities
        return radius * np.exp(2j * np.pi * u[1])

    def complex_normal_power(self, n: int) -> float:
        """||z||^2 of ``complex_normal(n)`` drawn from this stream's current state.

        Draws only the n radius uniforms, so afterwards the stream sits n
        uniforms earlier than after ``complex_normal(n)``.
        """
        return float(-np.log1p(-self._gen.random(n)).sum())


def child_streams(parent_seed: int, count: int) -> Iterator[RandomStream]:
    """Yield ``RandomStream(derive_seed(parent_seed, i))`` for i = 0 .. count-1.

    Each stream draws exactly what the freshly constructed one would.  One
    stream object is re-seeded in place for every child, so draw from a
    child before taking the next.  Seeds are hashed _SEED_BLOCK at a time,
    so memory does not grow with ``count``.
    """
    stream = RandomStream(0)
    bit_generator = stream._gen.bit_generator
    for start in range(0, count, _SEED_BLOCK):
        seeds = [derive_seed(parent_seed, i) for i in range(start, min(count, start + _SEED_BLOCK))]
        for seed, words in zip(seeds, _seed_sequence_states(seeds).tolist()):
            stream.seed = seed
            bit_generator.state = _pcg64_state(*words)
            yield stream


def _seed_sequence_states(seeds: list[int]) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` for each 64-bit seed s.

    Returns a (len(seeds), 4) uint64 array.  SeedSequence splits s into
    32-bit words, low first, and hashes missing words as 0, so every seed is
    the entropy [low, high, 0, 0] of the four-word pool.  The hash constant
    advances the same way for every seed, so it stays a Python int.
    """
    seeds = np.array(seeds, dtype=np.uint64)
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    low = (seeds & _MASK32).astype(np.uint32)
    high = (seeds >> 32).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> _XSHIFT)

    hash_const = _INIT_B
    words = np.empty((len(seeds), 8), dtype=np.uint64)
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * hash_const
        words[:, i] = value ^ (value >> _XSHIFT)
    return words[:, 0::2] | (words[:, 1::2] << 32)  # little-endian word pairs


def _pcg64_state(state_high: int, state_low: int, seq_high: int, seq_low: int) -> dict:
    """The ``PCG64.state`` that numpy's PCG64 seeds from a SeedSequence's 4 words.

    pcg_setseq_128_srandom_r: state = 0, inc = 2*initseq + 1, step,
    state += initstate, step; a step is state = state * multiplier + inc.
    """
    inc = ((((seq_high << 64) | seq_low) << 1) | 1) & _MASK128
    initstate = (state_high << 64) | state_low
    state = ((inc + initstate) * _PCG64_MULTIPLIER + inc) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }

"""Seeded random streams with a pinned-down sample mapping.

Uniform doubles come from numpy's PCG64 bit generator.  Everything else is
an explicit transform of those uniforms written out in this file, so the
seed-to-sample mapping is fixed by this code rather than by numpy internals:

  * circularly-symmetric complex normals (unit variance): radius
    sqrt(-log(1 - u1)), angle 2*pi*u2, with u1 the first n uniforms of the
    stream and u2 the next n (:func:`polar_complex_normal`)
  * their power ||z||^2 = sum(-log(1 - u1)), as |radius * exp(j*angle)|^2 =
    radius^2 (:func:`polar_power`); it needs only the first n uniforms and
    agrees with the full draw to rounding (~1e-15 relative)

Parallel Monte-Carlo runs split work by deriving one child seed per draw
index with :func:`derive_seed`, so results do not depend on how draws are
distributed over workers.  :func:`child_uniforms` skips numpy's per-seed
setup: numpy's SeedSequence hash (pool of four 32-bit words) runs over a
block of child seeds at once in uint32 arrays, PCG64's 128-bit state follows
in Python ints, and one reused generator fills a row of a reused block per
child, so the transforms above run once per block.  Both seeding steps are
written out here; the tests pin them against ``np.random.PCG64(seed)``.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator

import numpy as np

GENERATOR_ALGORITHM = "pcg64+polar-inverse-cdf"
"""Identifier of the uniform source and the normal transform in use."""

_SEED_MASK = (1 << 64) - 1
_SEED_BLOCK = 1024  # child seeds hashed at once by child_uniforms
_UNIFORM_BLOCK = 8192  # uniforms per child_uniforms block; stays in L2, 65,536 was slower

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


def polar_power(u: np.ndarray) -> np.ndarray:
    """||z||^2 of the complex normals with radius uniforms u, summed over the last axis."""
    x = np.negative(u)  # log1p in place, so a one-row block of large n needs one temporary
    return -np.log1p(x, out=x).sum(axis=-1)  # 1 - u in (0, 1], no infinities


def polar_complex_normal(u: np.ndarray) -> np.ndarray:
    """CN(0, 1) samples from (..., 2, n) uniforms: radius u[..., 0, :], angle u[..., 1, :]."""
    return np.sqrt(-np.log1p(-u[..., 0, :])) * np.exp(2j * np.pi * u[..., 1, :])


class RandomStream:
    """A single seeded stream of uniforms."""

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.PCG64(seed & _SEED_MASK))

    def uniform(
        self, n: int, low: float = 0.0, high: float = 1.0, out: np.ndarray | None = None
    ) -> np.ndarray:
        """n uniforms on [low, high), low + (high - low) * u, drawn into out (n doubles) if given."""
        u = self._gen.random(n, out=out)
        if (low, high) != (0.0, 1.0):  # at the default bounds the map is the identity
            u *= high - low
            u += low
        return u


def child_uniforms(parent_seed: int, count: int, n: int) -> Iterator[np.ndarray]:
    """Row i of the yielded blocks is ``RandomStream(derive_seed(parent_seed, i)).uniform(n)``.

    Blocks hold max(1, _UNIFORM_BLOCK // n) rows of one reused buffer: use each before the next.
    """
    generator = np.random.Generator(np.random.PCG64(0))
    block = np.empty((max(1, _UNIFORM_BLOCK // n), n))
    filled = 0
    for start in range(0, count, _SEED_BLOCK):
        seeds = [derive_seed(parent_seed, i) for i in range(start, min(count, start + _SEED_BLOCK))]
        for words in _seed_sequence_states(seeds).tolist():
            generator.bit_generator.state = _pcg64_state(*words)
            generator.random(out=block[filled])
            filled += 1
            if filled == len(block):
                yield block
                filled = 0
    if filled:
        yield block[:filled]


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

"""Seeded random streams with a pinned-down sample mapping.

Uniform doubles come from numpy's PCG64 bit generator.  Everything else is
an explicit transform of those uniforms written out in this code, so the
seed-to-sample mapping is fixed by this code rather than by numpy internals.
A circularly-symmetric complex normal (unit variance) has radius
sqrt(-log(1 - u1)) and angle 2*pi*u2, with u1 the first n uniforms of the
stream and u2 the next n.  The Monte-Carlo diagnostics reduce blocks of
those uniforms without forming the complex normals:

  * :func:`polar_power` gives ||z||^2 = sum(-log(1 - u1)) from the first n
    uniforms alone, as -sum(log(prod(1 - u1))) over groups of at most 16
    entries: one log per 16 entries.  1 - u is exact (u is a multiple of
    2**-53), and a product of 16 such factors is at least 2**-848, so it
    cannot underflow; the power agrees with the per-entry sum to rounding
    (~1e-15 relative)
  * ``channels.favorable_propagation_metric`` takes a pair's correlation
    from its radii and the exact differences of its angle uniforms

Parallel Monte-Carlo runs split work by deriving one child seed per draw
index with :func:`derive_seed`, so results do not depend on how draws are
distributed over workers.  :func:`child_uniforms` hashes 1,024 child seeds
in one loop and skips numpy's per-seed hash: numpy's SeedSequence hash (pool
of four 32-bit words) runs over the block of child seeds at once in uint32
arrays, and each child's four words go to ``np.random.PCG64`` through the
public ``ISeedSequence`` interface, so numpy seeds PCG64 itself.  Each child
fills a row of a reused block, so the reductions above run once per block.
The hash is written out here; the tests pin it against
``np.random.SeedSequence(seed)``.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


def derive_seed(parent_seed: int, index: int) -> int:
    """Deterministic 64-bit child seed for worker/draw ``index``.

    child = first 8 bytes of SHA-256(parent_le64 || index_le64), so child
    streams are decorrelated and identical across platforms.
    """
    if index < 0:
        raise ValueError(f"index must be nonnegative, got {index}")
    return int.from_bytes(_child_seed_bytes(parent_seed, range(index, index + 1)), "little")


def _child_seed_bytes(parent_seed: int, indices: range) -> bytes:
    """The little-endian 8-byte child seeds of ``indices``, concatenated."""
    prefix = (parent_seed & _SEED_MASK).to_bytes(8, "little")
    return b"".join([hashlib.sha256(prefix + i.to_bytes(8, "little")).digest()[:8]
                     for i in indices])


def polar_power(u: np.ndarray) -> np.ndarray:
    """||z||^2 of each row's complex normal, from a (rows, n) block of its radius uniforms.

    Group g of a row multiplies its entries g, g + k, ..., g + 15k (k = n // 16),
    in a tree, and the last n % 16 entries form one more group.  A block of one
    row is overwritten.
    """
    rows, n = u.shape
    # row j holds entry j of every draw, so each step is one pass; a single row is reduced in
    # place, so the largest M peaks at one block
    x = u.T if rows == 1 else np.empty((n, rows))
    np.subtract(1.0, u.T, out=x)  # exact, and in (0, 1]: no infinities
    k = n // 16
    for half in (8, 4, 2, 1):
        x[:half * k] *= x[half * k:2 * half * k]
    logs = np.log(x[:k], out=x[:k])
    total = np.ascontiguousarray(logs.T).sum(axis=-1)  # each row sums pairwise, as a 1-D array does
    if n % 16:
        total += np.log(x[16 * k:].prod(axis=0))
    return -total


class RandomStream:
    """A single seeded stream of uniforms."""

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.PCG64(seed & _SEED_MASK))

    def uniform(self, n: int) -> np.ndarray:
        """The stream's next n uniforms on [0, 1)."""
        return self._gen.random(n)


def child_uniforms(parent_seed: int, count: int, n: int, multiple: int = 1) -> Iterator[np.ndarray]:
    """Row i of the yielded blocks is ``RandomStream(derive_seed(parent_seed, i)).uniform(n)``.

    Blocks hold _UNIFORM_BLOCK // n rows rounded down to a multiple of ``multiple``, but at
    least ``multiple``, of one reused buffer: use each before the next.  With count a
    multiple of ``multiple``, so is every block's length.
    """
    rows = max(multiple, _UNIFORM_BLOCK // n // multiple * multiple)
    block = np.empty((rows, n))
    filled = 0
    for start in range(0, count, _SEED_BLOCK):
        indices = range(start, min(count, start + _SEED_BLOCK))
        seeds = np.frombuffer(_child_seed_bytes(parent_seed, indices), dtype="<u8")
        for row in _seed_sequence_states(seeds):
            np.random.Generator(np.random.PCG64(_SeedWords(row))).random(out=block[filled])
            filled += 1
            if filled == len(block):
                yield block
                filled = 0
    if filled:
        yield block[:filled]


def _seed_sequence_states(seeds: np.ndarray | list[int]) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` for each 64-bit seed s.

    Returns a C-contiguous (len(seeds), 4) uint64 array.  SeedSequence splits
    s into 32-bit words, low first, and hashes missing words as 0, so every
    seed is the entropy [low, high, 0, 0] of the four-word pool.  The hash constant
    advances the same way for every seed, so it stays a Python int.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
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


class _SeedWords(ISeedSequence):
    """A seed sequence whose state is one row of :func:`_seed_sequence_states`.

    PCG64 reads the returned array's buffer as its four uint64 words without
    a copy, so the row must be C-contiguous, as a row view of that array is.
    """

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self._words  # PCG64 asks for exactly its four uint64 words

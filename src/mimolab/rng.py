"""Seeded uniforms with a pinned-down sample mapping, in plain Python.

Uniform doubles are those of ``np.random.Generator(np.random.PCG64(seed & (2**64 - 1)))``,
bit for bit, without importing numpy:

  * :func:`seed_words` is numpy's SeedSequence hash (O'Neill's seed_seq_fe,
    pool of four 32-bit words) of a 64-bit seed, giving the four uint64
    words that PCG64 is seeded with;
  * :func:`uniforms` seeds PCG64 from them as its ``srandom`` does, in
    128-bit Python ints, and maps each XSL-RR output x to (x >> 11) * 2**-53.

Everything else is an explicit transform of those uniforms written out in
this code, so the seed-to-sample mapping is fixed by this code rather than by
numpy internals.  A circularly-symmetric complex normal (unit variance) has
radius sqrt(-log(1 - u1)) and angle 2*pi*u2, with u1 the first n uniforms of
the stream and u2 the next n; ``channels`` reduces blocks of those uniforms
without forming the complex normals.

:func:`seed_words` runs unchanged on a Python int and on a uint64 array of
seeds: every product is masked to 32 bits, so it neither overflows a uint64
nor grows a Python int.  The squint scenario hashes its one seed and draws
six uniforms; ``channels.child_uniforms`` hashes blocks of 1,024 child seeds
and lets numpy's PCG64 draw each child's stream.  The tests pin both against
``np.random.SeedSequence`` and ``np.random.PCG64``.
"""

from __future__ import annotations

GENERATOR_ALGORITHM = "pcg64+polar-inverse-cdf"
"""Identifier of the uniform source and the normal transform in use."""

# numpy's SeedSequence constants (O'Neill's seed_seq_fe)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16

# PCG64: 128-bit LCG multiplier, XSL-RR output
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def seed_words(seed):
    """``np.random.SeedSequence(seed & (2**64 - 1)).generate_state(4, np.uint64)``, as four words.

    ``seed`` is a Python int, any sign or size, or a uint64 array of seeds; the words
    are of the same kind.  SeedSequence splits a seed into 32-bit words, low first, and
    hashes missing words as 0, so every seed is the entropy [low, high, 0, 0] of the
    four-word pool.  The hash constant advances the same way for every seed, so it
    stays a Python int.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    pool = [hashmix(word) for word in (seed & _MASK32, (seed >> 32) & _MASK32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])) & _MASK32
                pool[dst] = mixed ^ (mixed >> _XSHIFT)

    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> _XSHIFT))
    return [words[i] | (words[i + 1] << 32) for i in range(0, 8, 2)]  # little-endian pairs


def uniforms(seed: int, n: int) -> list[float]:
    """The first n uniforms on [0, 1) of the stream of ``seed``'s low 64 bits."""
    w0, w1, w2, w3 = seed_words(seed)
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128  # srandom: step, add, step
    drawn = []
    for _ in range(n):
        state = (state * _PCG_MULT + inc) & _MASK128
        value = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        value = ((value >> rot) | (value << (64 - rot))) & _MASK64
        drawn.append((value >> 11) * 2.0**-53)
    return drawn

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
distributed over workers.
"""

from __future__ import annotations

import hashlib

import numpy as np

GENERATOR_ALGORITHM = "pcg64+polar-inverse-cdf"
"""Identifier of the uniform source and the normal transform in use."""

_SEED_MASK = (1 << 64) - 1


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

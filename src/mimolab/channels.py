"""I.i.d. Rayleigh channel sampling, array diagnostics, and the drift-gain reference.

The two diagnostics quantify what growing apertures buy:

  * hardening: std(||h||^2) / mean(||h||^2), which is 1/sqrt(M) for i.i.d.
    Rayleigh entries, so per-draw power concentrates as M grows;
  * favorable propagation: the mean normalized inner product between
    independent user channels, which decays as Theta(1/sqrt(M)).

``drift_gain`` evaluates the gain a frozen beam keeps when each coefficient
is rotated by exp(j*2*pi*phi_m), for given drift patterns phi.  The mobility
check does not sample it: ``propagation.drift_bound_check`` reports its least
value over [-mu, mu]^M in closed form, and the tests check that closed form
against this function.

Parallel Monte-Carlo runs split work by deriving one child seed per draw
index with :func:`derive_seed`, so results do not depend on how draws are
distributed over workers.  Hardening draw i reads child stream i of the seed,
and favorable-propagation pair i reads children 2i and 2i+1: each row that
:func:`child_uniforms` yields is the child's ``rng.uniforms`` stream, which is
``np.random.Generator(np.random.PCG64(child))``'s.  It hashes 1,024 child
seeds at once with ``rng.seed_words`` on a uint64 array, skipping numpy's
per-seed hash, and hands each child's four words to ``np.random.PCG64``
through the public ``ISeedSequence`` interface, so numpy seeds PCG64 and
draws the uniforms.  Each child fills a row of a reused block, and
favorable's blocks hold whole pairs.

Neither diagnostic forms complex normals:

  * hardening sums :func:`polar_power` of each block of draws: ||z||^2 =
    sum(-log(1 - u1)) from the first M uniforms alone, as
    -sum(log(prod(1 - u1))) over groups of at most 16 entries, one log per 16
    entries.  1 - u is exact (u is a multiple of 2**-53), and a product of 16
    such factors is at least 2**-848, so it cannot underflow;
  * a favorable pair with radii r = sqrt(-log1p(-u)) and angle uniforms a_i,
    a_j has |h_i^H h_j| = |sum r_i r_j exp(j*2*pi*(a_i - a_j))|, whose angle
    differences are exact.

Both agree with the complex-normal formulas to ~1e-15 relative.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .rng import seed_words

_SEED_MASK = (1 << 64) - 1
_SEED_BLOCK = 1024  # child seeds hashed at once by child_uniforms
_UNIFORM_BLOCK = 8192  # uniforms per child_uniforms block; stays in L2, 65,536 was slower


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


class _SeedWords(ISeedSequence):
    """A seed sequence whose state is one row of a (seeds, 4) array of ``rng.seed_words``.

    PCG64 reads the returned array's buffer as its four uint64 words without
    a copy, so the row must be C-contiguous, as a row view of that array is.
    """

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self._words  # PCG64 asks for exactly its four uint64 words


def child_uniforms(parent_seed: int, count: int, n: int, multiple: int = 1) -> Iterator[np.ndarray]:
    """Row i of the yielded blocks is ``rng.uniforms(derive_seed(parent_seed, i), n)``.

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
        for row in np.stack(seed_words(seeds), axis=1):  # C-contiguous rows
            np.random.Generator(np.random.PCG64(_SeedWords(row))).random(out=block[filled])
            filled += 1
            if filled == len(block):
                yield block
                filled = 0
    if filled:
        yield block[:filled]


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


def _check_antennas(m_antennas: int) -> None:
    if m_antennas < 1:
        raise ValueError(f"m_antennas must be at least 1, got {m_antennas}")


def hardening_metric(m_antennas: int, n_draws: int, seed: int) -> float:
    """Sample std(||h||^2) / mean(||h||^2) over seed-derived i.i.d. Rayleigh draws."""
    _check_antennas(m_antennas)
    if n_draws < 2:
        raise ValueError(f"n_draws must be at least 2, got {n_draws}")
    powers = np.concatenate([polar_power(u) for u in child_uniforms(seed, n_draws, m_antennas)])
    return float(powers.std(ddof=1) / powers.mean())


def _radii(u: np.ndarray) -> np.ndarray:
    """Overwrite radius uniforms u with r = sqrt(-log1p(-u)); return each row's sum of r^2."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.negative(u, out=u)
    power = u.sum(axis=-1)
    np.sqrt(u, out=u)
    return power


def _pair_correlations(u_i: np.ndarray, power_i: np.ndarray,
                       u_j: np.ndarray, power_j: np.ndarray) -> np.ndarray:
    """|h_i^H h_j| / (||h_i|| ||h_j||) per row of the pairs' (radii, angle uniforms) rows.

    Overwrites u_i and u_j in place, so one pair at the largest M needs no temporary.
    """
    m = u_i.shape[-1] // 2
    r_i, a_i, r_j, a_j = u_i[:, :m], u_i[:, m:], u_j[:, :m], u_j[:, m:]
    np.subtract(a_i, a_j, out=a_j)  # exact: both are multiples of 2**-53 in [0, 1)
    np.multiply(a_j, 2 * np.pi, out=a_j)
    np.multiply(r_i, r_j, out=r_j)
    np.cos(a_j, out=r_i)
    np.sin(a_j, out=a_j)
    np.multiply(r_i, r_j, out=r_i)
    np.multiply(a_j, r_j, out=a_j)
    rho = np.hypot(r_i.sum(axis=-1), a_j.sum(axis=-1)) / np.sqrt(power_i * power_j)
    # clipped to 1 against last-bit rounding, as beamforming.efficiency is; minimum keeps a NaN
    return np.minimum(rho, 1.0)


def favorable_propagation_metric(m_antennas: int, n_pairs: int, seed: int) -> float:
    """Mean pair correlation across independently drawn i.i.d. Rayleigh channel pairs."""
    _check_antennas(m_antennas)
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be at least 1, got {n_pairs}")
    if m_antennas == 1:
        return 1.0  # |h_i h_j| / (|h_i| |h_j|) of two scalars, exactly
    rho = np.empty(n_pairs)
    done = 0
    # pair i draws children 2i and 2i+1, each M radius then M angle uniforms; blocks hold
    # whole pairs
    for u in child_uniforms(seed, 2 * n_pairs, 2 * m_antennas, multiple=2):
        power = _radii(u[:, :m_antennas])
        n = len(u) // 2
        rho[done:done + n] = _pair_correlations(u[::2], power[::2], u[1::2], power[1::2])
        done += n
    return float(rho.mean())


def drift_gain(phase_fractions: np.ndarray) -> float | np.ndarray:
    """Beamforming gain left after drift: |sum_m exp(j*2*pi*phi_m)|^2 / M.

    ``phase_fractions`` holds the drifts phi_m in wavelengths on its last axis: one
    pattern gives a float, a stack one gain per row (last bits may differ from 1-D).
    """
    z = np.exp(2j * np.pi * phase_fractions).sum(axis=-1)
    gains = abs(z) ** 2 / phase_fractions.shape[-1]
    return gains if gains.ndim else float(gains)

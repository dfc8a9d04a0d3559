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

Hardening draw i reads child stream i of the seed (``rng.child_uniforms``),
and favorable-propagation pair i reads children 2i and 2i+1, exactly as a
fresh ``RandomStream(derive_seed(seed, i))`` would.
"""

from __future__ import annotations

import numpy as np

from .rng import child_uniforms, polar_complex_normal, polar_power


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


def pair_correlation(h_i: np.ndarray, h_j: np.ndarray) -> float:
    """|h_i^H h_j| / (||h_i|| ||h_j||); 1 for identical vectors, 0 when orthogonal."""
    h_i = np.asarray(h_i, dtype=complex)
    h_j = np.asarray(h_j, dtype=complex)
    denom = np.linalg.norm(h_i) * np.linalg.norm(h_j)
    if denom == 0.0:
        raise ValueError("pair correlation is undefined for zero vectors")
    # clipped to 1 against last-bit rounding, as beamforming.efficiency is; min keeps a NaN
    return min(float(abs(np.vdot(h_i, h_j)) / denom), 1.0)


def favorable_propagation_metric(m_antennas: int, n_pairs: int, seed: int) -> float:
    """Mean pair correlation across independently drawn i.i.d. Rayleigh channel pairs."""
    _check_antennas(m_antennas)
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be at least 1, got {n_pairs}")
    # pair i draws children 2i and 2i+1, each M radius then M angle uniforms
    blocks = child_uniforms(seed, 2 * n_pairs, 2 * m_antennas)
    channels = (h for u in blocks for h in polar_complex_normal(u.reshape(len(u), 2, m_antennas)))
    vals = [pair_correlation(h_i, h_j) for h_i, h_j in zip(channels, channels)]
    return float(np.mean(vals))


def drift_gain(phase_fractions: np.ndarray) -> float | np.ndarray:
    """Beamforming gain left after drift: |sum_m exp(j*2*pi*phi_m)|^2 / M.

    ``phase_fractions`` holds the drifts phi_m in wavelengths on its last axis: one
    pattern gives a float, a stack one gain per row (last bits may differ from 1-D).
    """
    z = np.exp(2j * np.pi * phase_fractions).sum(axis=-1)
    gains = abs(z) ** 2 / phase_fractions.shape[-1]
    return gains if gains.ndim else float(gains)

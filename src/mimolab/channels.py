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
fresh ``RandomStream(derive_seed(seed, i))`` would; favorable's blocks hold
whole pairs.  Neither forms complex normals: hardening sums
``rng.polar_power`` of each block of draws, and a pair with radii
r = sqrt(-log1p(-u)) and angle uniforms a_i, a_j has
|h_i^H h_j| = |sum r_i r_j exp(j*2*pi*(a_i - a_j))|, whose angle differences
are exact.  Both agree with the complex-normal formulas to ~1e-15 relative.
"""

from __future__ import annotations

import numpy as np

from .rng import child_uniforms, polar_power


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

"""I.i.d. Rayleigh channel sampling, mobility drift bounds, and array diagnostics.

The two diagnostics quantify what growing apertures buy:

  * hardening: std(||h||^2) / mean(||h||^2), which is 1/sqrt(M) for i.i.d.
    Rayleigh entries, so per-draw power concentrates as M grows;
  * favorable propagation: the mean normalized inner product between
    independent user channels, which decays as Theta(1/sqrt(M)).

The drift model captures how far a line-of-sight user may move before a
frozen beam loses gain: each coefficient is rotated by exp(j*2*pi*phi_m)
with |phi_m| <= mu wavelengths, and for mu <= 1/8 the remaining gain is at
least M*cos^2(2*pi*mu) >= M/2, independent of M.  The bound check screens
its random drift patterns in float32 and recomputes in float64 only those
that could undercut the deterministic extremes, so its result is the
all-float64 one, bit for bit.

Every Monte-Carlo draw i runs on its own child stream of the seed
(``rng.child_streams``), exactly as a fresh ``RandomStream(derive_seed(seed,
i))`` would.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import RandomStream, child_streams

MAX_DRIFT_FRACTION = 0.125  # the gain bound chain only applies up to 1/8 wavelength
_DRIFT_CHUNK_ELEMENTS = 65_536  # random drift phases held in memory at once

# Relative margin of the float32 drift screen.  Casting theta (|theta| <= pi/4)
# to float32 moves it by at most 2**-24 * pi/4 < 5e-8, and numpy's float32
# cos/sin are within a few ulp; allowing 4 ulp (2.4e-7) puts every term within
# e = 3e-7 of its float64 value.  The row sums C, S are taken in float64, so
# each is off by at most M*e, and the gain G = (C^2 + S^2)/M by at most
# 2*sqrt(2)*e*sqrt(G*M) + 2*M*e^2.  That grows with G, so a row whose exact
# gain is below the extremes' least gain g >= M*cos^2(2*pi*mu) >= M/2 screens
# below g*(1 + 4*e + 4*e^2) < g*(1 + 1.3e-6).  1e-5 leaves a factor of 7; the
# largest deviation seen at seeds 42 and 7 is 2.3e-8 relative.
_SCREEN_MARGIN = 1e-5


def _check_antennas(m_antennas: int) -> None:
    if m_antennas < 1:
        raise ValueError(f"m_antennas must be at least 1, got {m_antennas}")


def hardening_metric(m_antennas: int, n_draws: int, seed: int) -> float:
    """Sample std(||h||^2) / mean(||h||^2) over seed-derived i.i.d. Rayleigh draws."""
    _check_antennas(m_antennas)
    if n_draws < 2:
        raise ValueError(f"n_draws must be at least 2, got {n_draws}")
    powers = np.empty(n_draws)
    for i, stream in enumerate(child_streams(seed, n_draws)):
        powers[i] = stream.complex_normal_power(m_antennas)
    return float(powers.std(ddof=1) / powers.mean())


def pair_correlation(h_i: np.ndarray, h_j: np.ndarray) -> float:
    """|h_i^H h_j| / (||h_i|| ||h_j||); 1 for identical vectors, 0 when orthogonal."""
    h_i = np.asarray(h_i, dtype=complex)
    h_j = np.asarray(h_j, dtype=complex)
    denom = np.linalg.norm(h_i) * np.linalg.norm(h_j)
    if denom == 0.0:
        raise ValueError("pair correlation is undefined for zero vectors")
    return float(abs(np.vdot(h_i, h_j)) / denom)


def favorable_propagation_metric(m_antennas: int, n_pairs: int, seed: int) -> float:
    """Mean pair correlation across independently drawn i.i.d. Rayleigh channel pairs."""
    _check_antennas(m_antennas)
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be at least 1, got {n_pairs}")
    vals = np.empty(n_pairs)
    streams = child_streams(seed, 2 * n_pairs)  # pair i draws children 2i and 2i+1
    for i in range(n_pairs):
        h_i = next(streams).complex_normal(m_antennas)
        h_j = next(streams).complex_normal(m_antennas)
        vals[i] = pair_correlation(h_i, h_j)
    return float(vals.mean())


def drift_gain(phase_fractions: np.ndarray) -> float:
    """Beamforming gain left after drift: |sum_m exp(j*2*pi*phi_m)|^2 / M.

    ``phase_fractions`` holds the per-antenna drifts phi_m in wavelengths.
    """
    z = np.exp(2j * np.pi * phase_fractions).sum()
    return float(abs(z) ** 2 / phase_fractions.size)


def _drift_phases(m_antennas: int, mu: float, n_draws: int, seed: int):
    """Phases 2*pi*phi of n_draws uniform drift patterns in [-mu, mu]^M, in bounded chunks.

    Row r of the one-shot pattern matrix is uniforms r*M .. r*M+M-1 of the
    seed's stream, and successive draws continue that stream, so the chunks
    reproduce it exactly while holding at most _DRIFT_CHUNK_ELEMENTS phases.
    """
    stream = RandomStream(seed)
    rows = max(1, _DRIFT_CHUNK_ELEMENTS // m_antennas)
    for start in range(0, n_draws, rows):
        count = min(rows, n_draws - start)
        theta = 2.0 * np.pi * stream.uniform(count * m_antennas, -mu, mu)
        yield theta.reshape(count, m_antennas)


def _exact_drift_gains(theta: np.ndarray) -> np.ndarray:
    """Per-row |sum_m exp(j*theta_m)|^2 / M, evaluated as ((sum cos)^2 + (sum sin)^2) / M."""
    return (np.cos(theta).sum(axis=1) ** 2 + np.sin(theta).sum(axis=1) ** 2) / theta.shape[1]


def _screened_drift_gains(theta: np.ndarray) -> np.ndarray:
    """``_exact_drift_gains`` with cos and sin taken in float32 and summed in float64."""
    theta = theta.astype(np.float32)
    cos_sum = np.cos(theta).sum(axis=1, dtype=np.float64)
    sin_sum = np.sin(theta).sum(axis=1, dtype=np.float64)
    return (cos_sum**2 + sin_sum**2) / theta.shape[1]


def _extreme_drift_gain(m_antennas: int, mu: float) -> float:
    """Least gain of the extreme drifts: all +mu, all -mu, alternating +/-mu both ways."""
    alternating = np.where(np.arange(m_antennas) % 2 == 0, mu, -mu)
    extremes = (np.full(m_antennas, mu), np.full(m_antennas, -mu), alternating, -alternating)
    return min(drift_gain(phi) for phi in extremes)


def _random_drift_gains(m_antennas: int, mu: float, n_draws: int, seed: int):
    """Exact gains of the random drift patterns that could undercut the extremes.

    Screens each chunk of _drift_phases in float32 and yields, in stream
    order, the float64 gains of the rows screened below the extremes' least
    gain times 1 + _SCREEN_MARGIN.  A row left out has an exact gain no
    smaller than the extremes', so the minimum over extremes and yielded
    gains is the minimum over all draws, bit for bit.
    """
    threshold = _extreme_drift_gain(m_antennas, mu) * (1.0 + _SCREEN_MARGIN)
    for theta in _drift_phases(m_antennas, mu, n_draws, seed):
        suspects = theta[_screened_drift_gains(theta) < threshold]
        if len(suspects):
            yield _exact_drift_gains(suspects)


def drift_bound_check(
    m_antennas: int, mu: float, n_random_draws: int, seed: int
) -> tuple[float, float]:
    """Stress the lower bound M*cos^2(2*pi*mu) against random and extreme drifts.

    Evaluates the deterministic extremes (all +mu, all -mu, alternating +/-mu
    both ways) plus n_random_draws uniform drift patterns in [-mu, mu]^M and
    returns (minimum observed gain, analytic bound).  Random patterns are
    screened in float32 and only those that could undercut the extremes are
    evaluated in float64, which yields the same minimum as evaluating all.
    The extremes sit exactly on the bound, so the check allows a 1e-12
    relative rounding slack; a genuine violation raises ArithmeticError, so
    a returned pair always satisfies the bound.
    """
    if not 0.0 <= mu <= MAX_DRIFT_FRACTION:
        raise ValueError(f"the bound chain needs mu in [0, 1/8], got {mu}")
    _check_antennas(m_antennas)
    if n_random_draws < 0:
        raise ValueError(f"n_random_draws must be nonnegative, got {n_random_draws}")

    min_observed = _extreme_drift_gain(m_antennas, mu)
    for gains in _random_drift_gains(m_antennas, mu, n_random_draws, seed):
        min_observed = min(min_observed, float(gains.min()))

    bound = m_antennas * math.cos(2.0 * math.pi * mu) ** 2
    if not min_observed >= bound * (1.0 - 1e-12):
        raise ArithmeticError(
            f"drift gain {min_observed} fell below the bound {bound}; "
            "this should be impossible for mu <= 1/8"
        )
    return min_observed, bound

"""I.i.d. Rayleigh channel sampling, mobility drift bounds, and array diagnostics.

The two diagnostics quantify what growing apertures buy:

  * hardening: std(||h||^2) / mean(||h||^2), which is 1/sqrt(M) for i.i.d.
    Rayleigh entries, so per-draw power concentrates as M grows;
  * favorable propagation: the mean normalized inner product between
    independent user channels, which decays as Theta(1/sqrt(M)).

The drift model captures how far a line-of-sight user may move before a
frozen beam loses gain: each coefficient is rotated by exp(j*2*pi*phi_m)
with |phi_m| <= mu wavelengths, and for mu <= 1/8 the remaining gain is at
least M*cos^2(2*pi*mu) >= M/2, independent of M.  The bound check takes a
whole list of amplitudes and walks its random drift patterns once: per chunk
it forms each row's sum((u - 1/2)^2), which no mu changes, then screens every
mu with a trig-free lower bound built from it and calls ``drift_gain`` only on
rows where that bound could undercut the mu's deterministic extremes (on none
at mu = 0), so each result is the one all rows give, bit for bit.

Hardening draw i reads child stream i of the seed (``rng.child_uniforms``),
and favorable-propagation pair i reads children 2i and 2i+1, exactly as a
fresh ``RandomStream(derive_seed(seed, i))`` would.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import RandomStream, child_uniforms, polar_complex_normal, polar_power

MAX_DRIFT_FRACTION = 0.125  # the gain bound chain only applies up to 1/8 wavelength
_DRIFT_CHUNK_ELEMENTS = 65_536  # random drift uniforms held in memory at once

# Relative margin of the trig-free drift screen (eps = 2**-53, |theta| <= pi/4).
# drift_gain's theta = 2*pi*(2*mu*u - mu), three roundings, is within
# 10*pi*mu*eps < 4*eps of the screen's 4*pi*mu*(u - 1/2) (u - 1/2 is exact); as
# M - sum(theta^2)/2 > 0.69*M, that moves the bound by < 10*eps relative.  The
# screen's own arithmetic rounds it by < (M + 11)*eps, and the float64 gain is
# within 4.1*(M + 9)*eps of the exact one (exp's cos/sin parts within 4 ulp, each
# part's pairwise sum within M*eps, abs (hypot) and the square at most 2 roundings).
# So a row whose float64 gain is below the extremes' least gain g bounds below
# g*(1 + (5.1*M + 70)*eps) < g*(1 + 6e-9) for M <= 10**7, the CLI limit.  Near the
# alternating extremes at small mu the bound tops the float64 gain by an ulp or two.
_SCREEN_MARGIN = 1e-5


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
    return float(abs(np.vdot(h_i, h_j)) / denom)


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


def _drift_uniforms(m_antennas: int, n_draws: int, seed: int):
    """Uniforms of n_draws drift patterns, one row per pattern, in bounded chunks.

    Row r of the one-shot matrix is uniforms r*M .. r*M+M-1 of the seed's
    stream, and successive draws continue that stream, so the chunks
    reproduce it exactly while holding at most max(M, _DRIFT_CHUNK_ELEMENTS)
    uniforms.  Every chunk is a view of one reused buffer: use each before the next.
    """
    stream = RandomStream(seed)
    rows = max(1, _DRIFT_CHUNK_ELEMENTS // m_antennas)
    buffer = np.empty(min(rows, n_draws) * m_antennas)
    for start in range(0, n_draws, rows):
        count = min(rows, n_draws - start)
        u = stream.uniform(count * m_antennas, out=buffer[:count * m_antennas])
        yield u.reshape(count, m_antennas)


def _drift_spread(u: np.ndarray) -> np.ndarray:
    """Per-row sum((u - 1/2)^2) of the drift patterns drawn as u; the same for every mu.

    A helper of its own, so the u - 1/2 temporary is freed before the next chunk is drawn.
    """
    d = u - 0.5
    return np.einsum("ij,ij->i", d, d)


def _drift_gain_bounds(spread: np.ndarray, m_antennas: int, mu: float) -> np.ndarray:
    """Per-row trig-free lower bounds on the drift gains of rows with _drift_spread spread.

    With theta = 4*pi*mu*(u - 1/2), |sum exp(j*theta)| >= sum cos(theta) >=
    M - sum(theta^2)/2 > 0 for mu <= 1/8; squared and over M, that bounds the gain.
    """
    return (m_antennas - 0.5 * (4.0 * np.pi * mu) ** 2 * spread) ** 2 / m_antennas


def _extreme_drift_gain(m_antennas: int, mu: float) -> float:
    """Least gain of the extreme drifts: all +mu, all -mu, alternating +/-mu both ways."""
    alternating = np.where(np.arange(m_antennas) % 2 == 0, mu, -mu)
    extremes = (np.full(m_antennas, mu), np.full(m_antennas, -mu), alternating, -alternating)
    return min(drift_gain(phi) for phi in extremes)


def _random_drift_gains(
    m_antennas: int, mus: list[float], n_draws: int, seed: int, thresholds: list[float]
):
    """Gains of the random drift patterns that could undercut each mu's extremes.

    Walks the drift stream once and yields, in stream order, (i, gains): the drift_gain
    under mus[i] of the rows whose _drift_gain_bounds under mus[i] is not above
    thresholds[i], that mu's extremes' least gain times 1 + _SCREEN_MARGIN.  Every
    other row gains no less than those extremes, so each mu's minimum over all draws
    is kept, bit for bit.
    """
    for u in _drift_uniforms(m_antennas, n_draws, seed):
        spread = _drift_spread(u)
        for i, (mu, threshold) in enumerate(zip(mus, thresholds)):
            suspects = u[_drift_gain_bounds(spread, m_antennas, mu) <= threshold]
            if len(suspects):
                yield i, drift_gain(-mu + (mu - -mu) * suspects)


def drift_bound_check(
    m_antennas: int, mus: list[float], n_random_draws: int, seed: int
) -> list[tuple[float, float]]:
    """Stress the lower bound M*cos^2(2*pi*mu) against random and extreme drifts, per mu.

    For each mu of mus, evaluates the deterministic extremes (all +mu, all -mu,
    alternating +/-mu both ways) plus n_random_draws uniform drift patterns in
    [-mu, mu]^M, and returns one (minimum observed gain, analytic bound) per mu, in
    order.  Every mu reads the same uniforms of the seed's stream, drawn once.  Random
    patterns are screened with a trig-free bound and only those that could undercut
    a mu's extremes are evaluated (none at mu = 0), which yields the same minimum as
    evaluating all.  The extremes sit exactly on the bound, so the check allows a
    1e-12 relative rounding slack; a genuine violation raises ArithmeticError for the
    first mu that shows one, so returned pairs always satisfy the bound.
    """
    for mu in mus:
        if not 0.0 <= mu <= MAX_DRIFT_FRACTION:
            raise ValueError(f"the bound chain needs mu in [0, 1/8], got {mu}")
    _check_antennas(m_antennas)
    if n_random_draws < 0:
        raise ValueError(f"n_random_draws must be nonnegative, got {n_random_draws}")

    min_observed = [_extreme_drift_gain(m_antennas, mu) for mu in mus]
    # every mu = 0 pattern is the zero drift, one of its extremes: none can undercut it
    thresholds = [g * (1 + _SCREEN_MARGIN) if mu else -math.inf for mu, g in zip(mus, min_observed)]
    if any(mus):
        for i, gains in _random_drift_gains(m_antennas, mus, n_random_draws, seed, thresholds):
            min_observed[i] = min(min_observed[i], float(gains.min()))

    results = []
    for mu, gain in zip(mus, min_observed):
        bound = m_antennas * math.cos(2.0 * math.pi * mu) ** 2
        if not gain >= bound * (1.0 - 1e-12):
            raise ArithmeticError(
                f"drift gain {gain} fell below the bound {bound}; "
                "this should be impossible for mu <= 1/8"
            )
        results.append((gain, bound))
    return results

"""Closed-form propagation arithmetic and the channel-estimation load model.

Nothing here is stochastic: Fresnel clearance, the link-budget delta from
widening the noise bandwidth, and the count of channel coefficients a base
station must estimate per coherence interval.
"""

from __future__ import annotations

import math

SPEED_OF_LIGHT_M_S = 299792458.0


def wavelength_m(frequency_hz: float) -> float:
    if not frequency_hz > 0:
        raise ValueError(f"frequency_hz must be positive, got {frequency_hz}")
    return SPEED_OF_LIGHT_M_S / frequency_hz


def fresnel_radius(d1_m: float, d2_m: float, frequency_hz: float) -> float:
    """First Fresnel-zone radius sqrt(lambda * d1 * d2 / (d1 + d2)) in meters.

    d1 and d2 are the distances of the evaluation point from the two link ends.
    """
    if d1_m < 0 or d2_m < 0:
        raise ValueError(f"distances must be nonnegative, got {d1_m}, {d2_m}")
    if not d1_m + d2_m > 0:
        raise ValueError("link length d1 + d2 must be positive")
    lam = wavelength_m(frequency_hz)
    return math.sqrt(lam * d1_m * d2_m / (d1_m + d2_m))


def bandwidth_snr_delta(bandwidth_ratio: float) -> float:
    """Link-budget change in dB from widening the noise bandwidth by ``ratio``.

    Transmit power held fixed, thermal noise scales with bandwidth:
    -10*log10(ratio), so 10x bandwidth costs 10 dB.
    """
    if not bandwidth_ratio >= 1:
        raise ValueError(f"bandwidth_ratio must be >= 1, got {bandwidth_ratio}")
    return -10.0 * math.log10(bandwidth_ratio)


def estimation_load(
    m_antennas: int,
    k_users: int,
    n_subcarriers: int,
    subcarriers_per_block: int,
    coherence_time_s: float,
) -> tuple[int, float]:
    """Coefficient count M*K*ceil(subcarriers/block) and its rate per second.

    ceil, not floor: every subcarrier must be covered by some estimate even
    when the block size does not divide the grid evenly.
    """
    counts = {
        "m_antennas": m_antennas,
        "k_users": k_users,
        "n_subcarriers": n_subcarriers,
        "subcarriers_per_block": subcarriers_per_block,
    }
    for name, count in counts.items():
        if not count >= 1:
            raise ValueError(f"{name} must be a positive integer")
    if subcarriers_per_block > n_subcarriers:
        raise ValueError("subcarriers_per_block cannot exceed n_subcarriers")
    if not coherence_time_s > 0:
        raise ValueError(f"coherence_time_s must be positive, got {coherence_time_s}")
    blocks = -(-n_subcarriers // subcarriers_per_block)
    n_coefficients = m_antennas * k_users * blocks
    try:
        return n_coefficients, n_coefficients / coherence_time_s
    except OverflowError:  # a count beyond the double range: the rate overflows as a float would
        return n_coefficients, math.inf

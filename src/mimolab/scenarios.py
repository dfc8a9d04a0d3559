"""Reference scenarios shared by the bundled configs, scripts, and tests.

The six-path channel is a geometry (gains, cosines) pair and each Central
Park scenario a dict of capacity.rate_table keyword arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .capacity import coherence_samples
from .geometry import PlanarArray, direction_cosines
from .rng import RandomStream

DEFAULT_SEED = 42

SIXPATH_CENTER_HZ = 60e9
# (azimuth, elevation) in radians: line of sight, then the five reflections
SIXPATH_DIRECTIONS = (
    (math.pi / 4, -math.pi / 4),
    (math.pi / 6, -math.pi / 5), (math.pi / 3, -math.pi / 5), (math.pi / 4, -math.pi / 6),
    (math.pi / 4, -math.pi / 12), (math.pi / 12, -math.pi / 6),
)

# LoS amplitude equal to the summed reflection amplitudes, total power 1:
# |g_los| = 5 * |g_refl|, so |g_los|^2 = 5/6 and each reflection power 1/30.
SIXPATH_LOS_POWER = 5.0 / 6.0
SIXPATH_REFLECTION_POWER = SIXPATH_LOS_POWER / 25.0


def sixpath_channel(seed: int = DEFAULT_SEED) -> tuple[np.ndarray, np.ndarray]:
    """60 GHz line-of-sight channel with five single-bounce reflections.

    Returns the (gains, cosines) pair of ``geometry.steering_factors``.
    Per-path phases are drawn once from the seeded stream, LoS first and the
    reflections in listed order, so the channel is reproducible from the
    seed alone.
    """
    phases = RandomStream(seed).phases(6)
    powers = (SIXPATH_LOS_POWER,) + (SIXPATH_REFLECTION_POWER,) * 5
    gains = np.array([math.sqrt(power) * complex(math.cos(phase), math.sin(phase))
                      for power, phase in zip(powers, phases)])
    cosines = np.array([direction_cosines(az, el) for az, el in SIXPATH_DIRECTIONS])
    return gains, cosines


def sixpath_array(side: int) -> PlanarArray:
    """side x side aperture spaced at half a wavelength of the 60 GHz center."""
    return PlanarArray.half_wavelength_at(side, side, SIXPATH_CENTER_HZ)


# Extreme-multiplexing study: a park served from surrounding rooftops by 100,000 antennas,
# 20 dB uplink pilot SNR at 50 MHz, 20 dB more on the downlink, 400 kHz coherence bandwidth.


def centralpark_3ghz() -> dict:
    """3 GHz carrier, 50 MHz bandwidth, 100 ms coherence time (tau_c = 40000)."""
    return dict(m_antennas=100_000, tau_c=coherence_samples(0.1, 400e3), ul_pilot_snr=100.0,
                dl_ul_power_ratio=100.0, bandwidth_hz=50e6)


def centralpark_60ghz() -> dict:
    """60 GHz carrier, 1 GHz bandwidth, 5 ms coherence time (tau_c = 2000).

    The uplink pilot SNR is scaled by the bandwidth ratio (100 -> 5) to keep
    the transmit power fixed while the noise bandwidth widens twentyfold.
    """
    return dict(m_antennas=100_000, tau_c=coherence_samples(0.005, 400e3),
                ul_pilot_snr=100.0 * (50e6 / 1e9), dl_ul_power_ratio=100.0, bandwidth_hz=1e9)

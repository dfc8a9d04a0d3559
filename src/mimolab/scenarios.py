"""The six-path 60 GHz channel of the squint experiment.

Every other scenario number lives in the bundled configs
(``mimolab/configs/*.ini``); scripts and tests read them through
``cli.resolve``, so each value is written once.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import direction_cosines
from .rng import RandomStream

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


def sixpath_channel(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """60 GHz line-of-sight channel with five single-bounce reflections.

    Returns the (gains, cosines) pair of ``geometry.steering_factors``.
    Per-path phases are drawn once from the seeded stream, LoS first and the
    reflections in listed order, so the channel is reproducible from the
    seed alone.
    """
    phases = 2.0 * math.pi * RandomStream(seed).uniform(6)
    powers = (SIXPATH_LOS_POWER,) + (SIXPATH_REFLECTION_POWER,) * 5
    gains = np.array([math.sqrt(power) * complex(math.cos(phase), math.sin(phase))
                      for power, phase in zip(powers, phases)])
    cosines = np.array([direction_cosines(az, el) for az, el in SIXPATH_DIRECTIONS])
    return gains, cosines

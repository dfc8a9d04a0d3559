#!/usr/bin/env python3
"""Tabulate analog-beam gain retention across bandwidths for three apertures.

Prints the center-frequency efficiency and the band minima over 400 MHz and
2 GHz for 32x32, 64x64, and 128x128 arrays on the six-path 60 GHz channel.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from mimolab.beamforming import squint_sweep  # noqa: E402
from mimolab.scenarios import (  # noqa: E402
    DEFAULT_SEED,
    SIXPATH_CENTER_HZ,
    sixpath_array,
    sixpath_channel,
)

if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_SEED
    channel = sixpath_channel(seed)
    print(f"seed {seed}; efficiencies as fractions of the full array gain")
    print(f"{'array':>10} {'elements':>9} {'center':>8} {'min@400MHz':>11} {'min@2GHz':>9}")
    for side in (32, 64, 128):
        array = sixpath_array(side)
        freqs, effs = squint_sweep(array, channel, SIXPATH_CENTER_HZ, 2e9, 201)
        offset = np.abs(freqs - SIXPATH_CENTER_HZ)
        center = effs[np.argmin(offset)]
        narrow = effs[offset <= 200e6 + 1]
        print(
            f"{side:>7}x{side:<3} {array.num_elements:>8} {center:>8.4f} "
            f"{narrow.min():>11.4f} {effs.min():>9.4f}"
        )

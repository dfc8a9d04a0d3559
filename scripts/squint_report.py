#!/usr/bin/env python3
"""Tabulate analog-beam gain retention of the bundled fig4 configs.

Runs fig4_32x32, fig4_64x64 and fig4_128x128 (the six-path 60 GHz channel)
and prints each aperture's center-frequency efficiency and its band minima
over the central 400 MHz and over the config's full span.  An optional
argument replaces the configs' seed.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from mimolab.cli import resolve  # noqa: E402

NARROW_BAND_HZ = 400e6

if __name__ == "__main__":
    overrides = {"seed": sys.argv[1]} if len(sys.argv) > 1 else {}
    runs = [resolve({"config": name, **overrides})
            for name in ("fig4_32x32", "fig4_64x64", "fig4_128x128")]
    _, seed, _, first = runs[0]
    full_band = f"min@{first['span_hz'] / 1e9:g}GHz"
    print(f"seed {seed}; efficiencies as fractions of the full array gain")
    print(f"{'array':>10} {'elements':>9} {'center':>8} {'min@400MHz':>11} {full_band:>9}")
    for exp, seed, _, params in runs:
        table, results, _ = exp.runner(params, seed)
        freqs, effs = table["frequency_hz"], table["efficiency"]
        narrow = effs[abs(freqs - params["center_frequency_hz"]) <= NARROW_BAND_HZ / 2 + 1].min()
        print(
            f"{params['rows']:>7}x{params['cols']:<3} {results['m_antennas']:>8} "
            f"{results['center_efficiency']:>8.4f} {narrow:>11.4f} {results['min_efficiency']:>9.4f}"
        )

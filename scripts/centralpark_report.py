#!/usr/bin/env python3
"""Print the extreme-multiplexing optima of the bundled Central Park configs.

For centralpark_3ghz and centralpark_60ghz: the antenna-sweep experiment's
per-M optimal user count over its default antenna grid on the config's coarse
user grid (fine = false), then the config's own fine-swept optimum.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from mimolab.cli import resolve  # noqa: E402


def hz(value: float) -> str:
    return f"{value / 1e9:g} GHz" if value >= 1e9 else f"{value / 1e6:g} MHz"


if __name__ == "__main__":
    for name in ("centralpark_3ghz", "centralpark_60ghz"):
        exp, seed, _, params = resolve({"config": name, "experiment": "antenna-sweep",
                                        "fine": "false"})
        table, sweep, _ = exp.runner(params, seed)
        print(f"== {hz(params['carrier_hz'])} / {hz(params['bandwidth_hz'])}: "
              f"tau_c = {sweep['tau_c']}, uplink SNR {sweep['ul_pilot_snr_effective']:g} ==")
        # the table maps each capacity.RATE_COLUMNS name to its column, one row per M;
        # zip reads a list and a numpy column alike
        names = ("m_antennas", "k_users", "pilot_fraction", "sum_rate_bps")
        for m, k, pilot, sum_rate in zip(*(table[name] for name in names)):
            print(f"  M={m:>6}: K={k:>6} pilot {pilot:5.3f} sum {sum_rate / 1e9:10.2f} Gbit/s")
        exp, seed, _, params = resolve({"config": name})
        best = exp.runner(params, seed)[1]["optimum"]
        print(
            f"  fine optimum at M={best['m_antennas']}: K={best['k_users']}, "
            f"pilot fraction {best['pilot_fraction']:.4f}, "
            f"per-UE {best['rate_per_ue_bps'] / 1e6:.1f} Mbit/s, "
            f"sum {best['sum_rate_bps'] / 1e12:.3f} Tbit/s"
        )

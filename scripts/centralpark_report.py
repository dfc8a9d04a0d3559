#!/usr/bin/env python3
"""Print the extreme-multiplexing optima at 3 GHz and 60 GHz.

For each carrier: the antenna sweep over M in {1e2, 1e3, 1e4, 1e5} with the
per-M optimal user count, then the fine-swept optimum at M = 100000.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from mimolab.capacity import antenna_sweep, best_row, k_range, rate_table  # noqa: E402
from mimolab.scenarios import centralpark_3ghz, centralpark_60ghz  # noqa: E402

if __name__ == "__main__":
    for label, scenario in (("3 GHz / 50 MHz", centralpark_3ghz()),
                            ("60 GHz / 1 GHz", centralpark_60ghz())):
        tau_c = scenario.block.samples
        print(f"== {label}: tau_c = {tau_c}, uplink SNR {scenario.ul_pilot_snr_linear:g} ==")
        coarse = k_range(tau_c)
        for row in antenna_sweep(scenario, [100, 1000, 10_000, 100_000], coarse):
            print(
                f"  M={row['m_antennas']:>6}: K={row['k_users']:>6} "
                f"pilot {row['pilot_fraction']:5.3f} sum {row['sum_rate_bps'] / 1e9:10.2f} Gbit/s"
            )
        best = best_row(rate_table(scenario, k_range(tau_c, fine=True)))
        print(
            f"  fine optimum at M={scenario.m_antennas}: K={best['k_users']}, "
            f"pilot fraction {best['pilot_fraction']:.4f}, "
            f"per-UE {best['rate_per_ue_bps'] / 1e6:.1f} Mbit/s, "
            f"sum {best['sum_rate_bps'] / 1e12:.3f} Tbit/s"
        )

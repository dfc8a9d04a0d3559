"""Coherence-block accounting and closed-form downlink rates under MRT.

Single cell, i.i.d. Rayleigh fading, K single-antenna users served with
maximum ratio transmission.  Channel knowledge comes from K orthogonal
uplink pilot samples per coherence block (tau_p = K), leaving a fraction
1 - K/tau_c of each block for data.  With MMSE estimation quality
gamma = tau_p*rho_ul / (1 + tau_p*rho_ul) and the downlink budget rho_dl
split equally over users, each user sees

    SINR = M * gamma * (rho_dl / K) / (1 + rho_dl)

where the denominator carries unit noise plus non-coherent interference
from all K streams.  Everything is deterministic closed-form arithmetic;
no Monte-Carlo is involved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class CoherenceBlock:
    """Time-frequency region over which the channel is treated as constant."""

    coherence_time_s: float
    coherence_bandwidth_hz: float

    def __post_init__(self):
        if not (self.coherence_time_s > 0 and self.coherence_bandwidth_hz > 0):
            raise ValueError("coherence time and bandwidth must be positive")
        if self.samples < 1:
            raise ValueError("a coherence block must contain at least one sample")
        # rate_table holds K <= tau_c as int64 and forms K/tau_c in doubles, exact to 2**53
        if self.samples > 2**53:
            raise ValueError(f"a coherence block of {self.samples} samples exceeds 2**53")

    @property
    def samples(self) -> int:
        """Number of usable samples tau_c = round(time * bandwidth)."""
        return round(self.coherence_time_s * self.coherence_bandwidth_hz)


@dataclass(frozen=True)
class CapacityScenario:
    carrier_hz: float
    bandwidth_hz: float
    m_antennas: int
    ul_pilot_snr_linear: float
    dl_ul_power_ratio: float
    block: CoherenceBlock

    def __post_init__(self):
        if not (self.carrier_hz > 0 and self.bandwidth_hz > 0):
            raise ValueError("carrier and bandwidth must be positive")
        if not self.m_antennas >= 1:
            raise ValueError(f"m_antennas must be at least 1, got {self.m_antennas}")
        if not (self.ul_pilot_snr_linear > 0 and self.dl_ul_power_ratio > 0):
            raise ValueError("SNR and power ratio must be positive")

    @property
    def dl_snr_linear(self) -> float:
        return self.dl_ul_power_ratio * self.ul_pilot_snr_linear


RATE_COLUMNS = ("k_users", "pilot_fraction", "se_per_ue", "rate_per_ue_bps", "sum_rate_bps")
"""Names of the rate_table columns; k_users is also the pilot length tau_p."""


def estimation_quality(tau_p: int | np.ndarray, rho_ul: float) -> float | np.ndarray:
    """MMSE channel-estimate quality tau_p*rho / (1 + tau_p*rho), in [0, 1), per tau_p."""
    if not np.min(tau_p) >= 1:
        raise ValueError(f"tau_p must be at least 1, got {np.min(tau_p)}")
    if not rho_ul > 0:
        raise ValueError(f"rho_ul must be positive, got {rho_ul}")
    x = tau_p * rho_ul
    return x / (1.0 + x)


def rate_table(scenario: CapacityScenario, k_users: Sequence[int]) -> dict[str, np.ndarray]:
    """Rates for every user count K on the grid, one array per RATE_COLUMNS name.

    Per user SE = (1 - K/tau_c) * log2(1 + SINR) in bit/s/Hz and rate SE*B;
    the sum rate is K times that.
    """
    k = np.asarray(k_users, dtype=np.int64)
    tau_c = scenario.block.samples
    if k.size == 0:
        raise ValueError("k_users must be non-empty")
    if not (k.min() >= 1 and k.max() <= tau_c):
        raise ValueError(
            f"k_users must lie in 1..{tau_c} (the coherence block), "
            f"got {k.min()}..{k.max()}"
        )
    rho_dl = scenario.dl_snr_linear
    # overflow yields inf/nan without a warning, as Python float arithmetic does;
    # cli.run then names the first non-finite cell
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = estimation_quality(k, scenario.ul_pilot_snr_linear)
        sinr = scenario.m_antennas * gamma * (rho_dl / k) / (1.0 + rho_dl)
        pilot_fraction = k / tau_c
        se = (1.0 - pilot_fraction) * np.log2(1.0 + sinr)
        rate = se * scenario.bandwidth_hz
        return dict(zip(RATE_COLUMNS, (k, pilot_fraction, se, rate, k * rate)))


def best_row(table: dict[str, np.ndarray]) -> dict:
    """The row with the largest sum rate as Python numbers; ties go to the smaller K."""
    i = int(np.argmax(table["sum_rate_bps"]))  # the first of equal maxima
    return {name: column[i].item() for name, column in table.items()}


def k_range(
    tau_c: int, k_min: int = 1, k_max: int = 0, k_step: int = 0, fine: bool = False
) -> range:
    """User counts k_min..k_max (0 means tau_c) in steps of k_step.

    k_step 0 picks the step: 1 when fine, else tau_c // 1000 but at least 1,
    which keeps the full range under 2000 points however long the block.
    """
    k_max = k_max if k_max > 0 else tau_c
    step = k_step if k_step > 0 else 1 if fine else max(1, tau_c // 1000)
    if not 1 <= k_min <= k_max <= tau_c:
        raise ValueError(
            f"need 1 <= k_min <= k_max <= tau_c, got k_min={k_min}, k_max={k_max}, tau_c={tau_c}"
        )
    return range(k_min, k_max + 1, step)


def antenna_sweep(
    scenario: CapacityScenario, m_grid: Sequence[int], k_grid: Sequence[int]
) -> list[dict]:
    """best_row over k_grid for each antenna count, m_antennas first, ordered by M."""
    if len(m_grid) == 0 or len(k_grid) == 0:
        raise ValueError("m_grid and k_grid must be non-empty")
    return [
        {"m_antennas": m, **best_row(rate_table(replace(scenario, m_antennas=m), k_grid))}
        for m in sorted(int(m) for m in m_grid)
    ]

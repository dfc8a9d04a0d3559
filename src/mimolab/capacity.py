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

import math
from dataclasses import dataclass, replace
from typing import Sequence


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


@dataclass(frozen=True)
class RatePoint:
    """Rates achieved with K users multiplexed in one scenario."""

    k_users: int  # also the pilot length tau_p
    pilot_fraction: float
    se_per_ue: float  # bit/s/Hz
    rate_per_ue_bps: float
    sum_rate_bps: float


def estimation_quality(tau_p: int, rho_ul: float) -> float:
    """MMSE channel-estimate quality tau_p*rho / (1 + tau_p*rho), in [0, 1)."""
    if not tau_p >= 1:
        raise ValueError(f"tau_p must be at least 1, got {tau_p}")
    if not rho_ul > 0:
        raise ValueError(f"rho_ul must be positive, got {rho_ul}")
    x = tau_p * rho_ul
    return x / (1.0 + x)


def dl_sinr_mrt(scenario: CapacityScenario, k_users: int) -> float:
    """Per-user downlink SINR M*gamma*(rho_dl/K) / (1 + rho_dl)."""
    tau_c = scenario.block.samples
    if k_users < 1:
        raise ValueError(f"k_users must be at least 1, got {k_users}")
    if k_users > tau_c:
        raise ValueError(f"k_users {k_users} exceeds the coherence block of {tau_c} samples")
    gamma = estimation_quality(k_users, scenario.ul_pilot_snr_linear)
    rho_dl = scenario.dl_snr_linear
    return scenario.m_antennas * gamma * (rho_dl / k_users) / (1.0 + rho_dl)


def dl_se_mrt(scenario: CapacityScenario, k_users: int) -> float:
    """Downlink spectral efficiency per user in bit/s/Hz with K multiplexed users."""
    sinr = dl_sinr_mrt(scenario, k_users)
    return (1.0 - k_users / scenario.block.samples) * math.log2(1.0 + sinr)


def sum_rate(scenario: CapacityScenario, k_users: int) -> RatePoint:
    se = dl_se_mrt(scenario, k_users)
    rate_per_ue = se * scenario.bandwidth_hz
    return RatePoint(
        k_users=k_users,
        pilot_fraction=k_users / scenario.block.samples,
        se_per_ue=se,
        rate_per_ue_bps=rate_per_ue,
        sum_rate_bps=k_users * rate_per_ue,
    )


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


def user_sweep(
    scenario: CapacityScenario, k_grid: Sequence[int]
) -> tuple[list[RatePoint], RatePoint]:
    """RatePoint for every K on the grid and the sum-rate maximum; ties go to smaller K."""
    if len(k_grid) == 0:
        raise ValueError("k_grid must be non-empty")
    points = [sum_rate(scenario, int(k)) for k in k_grid]
    # max() keeps the first of equal values, so the smaller K wins a tie
    return points, max(points, key=lambda point: point.sum_rate_bps)


def optimize_users(scenario: CapacityScenario, k_grid: Sequence[int]) -> RatePoint:
    """RatePoint maximizing the sum rate on the grid; ties go to smaller K."""
    return user_sweep(scenario, k_grid)[1]


def antenna_sweep(
    scenario: CapacityScenario, m_grid: Sequence[int], k_grid: Sequence[int]
) -> list[tuple[int, RatePoint]]:
    """Best RatePoint over k_grid for each antenna count, ordered by M."""
    if len(m_grid) == 0 or len(k_grid) == 0:
        raise ValueError("m_grid and k_grid must be non-empty")
    out = []
    for m in sorted(int(m) for m in m_grid):
        out.append((m, optimize_users(replace(scenario, m_antennas=m), k_grid)))
    return out


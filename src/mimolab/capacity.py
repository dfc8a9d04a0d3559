"""Closed-form downlink rates under MRT, per coherence block.

Single cell, i.i.d. Rayleigh fading, K single-antenna users served with
maximum ratio transmission.  Channel knowledge comes from K orthogonal
uplink pilot samples per coherence block (tau_p = K), leaving a fraction
1 - K/tau_c of each block for data.  With MMSE estimation quality
gamma = tau_p*rho_ul / (1 + tau_p*rho_ul) and the downlink budget rho_dl
split equally over users, each user sees

    SINR = M * gamma * (rho_dl / K) / (1 + rho_dl)

where the denominator carries unit noise plus non-coherent interference
from all K streams.  Everything is deterministic closed-form arithmetic on
plain numbers (a scenario is rate_table's keyword arguments); no
Monte-Carlo is involved.  The block length tau_c and the user-count grid
come from ``coherence``, which needs no numpy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


RATE_COLUMNS = ("m_antennas", "k_users", "pilot_fraction", "se_per_ue", "rate_per_ue_bps",
                "sum_rate_bps")
"""The rate_table columns, and so the rate CSVs' header; k_users is also the pilot length tau_p."""


def estimation_quality(tau_p: int | np.ndarray, rho_ul: float) -> float | np.ndarray:
    """MMSE channel-estimate quality tau_p*rho / (1 + tau_p*rho), in [0, 1), per tau_p."""
    if not np.min(tau_p) >= 1:
        raise ValueError(f"tau_p must be at least 1, got {np.min(tau_p)}")
    if not rho_ul > 0:
        raise ValueError(f"rho_ul must be positive, got {rho_ul}")
    x = tau_p * rho_ul
    return x / (1.0 + x)


def rate_table(k_users: Sequence[int], *, m_antennas: int, tau_c: int, ul_pilot_snr: float,
               dl_ul_power_ratio: float, bandwidth_hz: float) -> dict[str, np.ndarray]:
    """Rates for every user count K on the grid, one array per RATE_COLUMNS name, M repeated.

    M antennas serve K users in blocks of tau_c samples (``coherence.coherence_samples``)
    with linear uplink pilot SNR rho_ul and downlink SNR
    rho_dl = dl_ul_power_ratio * rho_ul.  Per user SE = (1 - K/tau_c) *
    log2(1 + SINR) in bit/s/Hz and rate SE*B; the sum rate is K times that.
    """
    if not bandwidth_hz > 0:
        raise ValueError(f"bandwidth_hz must be positive, got {bandwidth_hz}")
    if not m_antennas >= 1:
        raise ValueError(f"m_antennas must be at least 1, got {m_antennas}")
    if not (ul_pilot_snr > 0 and dl_ul_power_ratio > 0):
        raise ValueError("SNR and power ratio must be positive")
    k = np.asarray(k_users, dtype=np.int64)
    if k.size == 0:
        raise ValueError("k_users must be non-empty")
    if not (k.min() >= 1 and k.max() <= tau_c):
        raise ValueError(
            f"k_users must lie in 1..{tau_c} (the coherence block), "
            f"got {k.min()}..{k.max()}"
        )
    rho_dl = dl_ul_power_ratio * ul_pilot_snr
    # overflow yields inf/nan without a warning, as Python float arithmetic does;
    # cli.run then names the first non-finite cell
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = estimation_quality(k, ul_pilot_snr)
        sinr = m_antennas * gamma * (rho_dl / k) / (1.0 + rho_dl)
        pilot_fraction = k / tau_c
        se = (1.0 - pilot_fraction) * np.log2(1.0 + sinr)
        rate = se * bandwidth_hz
        m = np.full(k.shape, m_antennas)
        return dict(zip(RATE_COLUMNS, (m, k, pilot_fraction, se, rate, k * rate)))


def best_row(table: dict[str, np.ndarray]) -> dict:
    """The row with the largest sum rate as Python numbers; ties go to the smaller K."""
    i = int(np.argmax(table["sum_rate_bps"]))  # the first of equal maxima
    return {name: column.item(i) for name, column in table.items()}  # also an object column


def antenna_sweep(m_grid: Sequence[int], k_users: Sequence[int], **rate_args) -> list[dict]:
    """best_row over k_users for each M (replacing rate_args' m_antennas), by M."""
    if len(m_grid) == 0:
        raise ValueError("m_grid must be non-empty")
    return [best_row(rate_table(k_users, **{**rate_args, "m_antennas": m}))
            for m in sorted(int(m) for m in m_grid)]

"""Closed-form propagation arithmetic and the channel-estimation load model.

Nothing here is stochastic: Fresnel clearance, the link-budget delta from
widening the noise bandwidth, and the count of channel coefficients a base
station must estimate per coherence interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .geometry import SPEED_OF_LIGHT_M_S


@dataclass(frozen=True)
class LinkGeometry:
    """An evaluation point at distances d1 and d2 from the two link ends."""

    d1_m: float
    d2_m: float
    frequency_hz: float

    def __post_init__(self):
        if self.d1_m < 0 or self.d2_m < 0:
            raise ValueError(f"distances must be nonnegative, got {self.d1_m}, {self.d2_m}")
        if not self.d1_m + self.d2_m > 0:
            raise ValueError("link length d1 + d2 must be positive")
        if not self.frequency_hz > 0:
            raise ValueError(f"frequency_hz must be positive, got {self.frequency_hz}")


def wavelength_m(frequency_hz: float) -> float:
    if not frequency_hz > 0:
        raise ValueError(f"frequency_hz must be positive, got {frequency_hz}")
    return SPEED_OF_LIGHT_M_S / frequency_hz


def fresnel_radius(geometry: LinkGeometry) -> float:
    """First Fresnel-zone radius sqrt(lambda * d1 * d2 / (d1 + d2)) in meters."""
    lam = wavelength_m(geometry.frequency_hz)
    return math.sqrt(lam * geometry.d1_m * geometry.d2_m / (geometry.d1_m + geometry.d2_m))


def bandwidth_snr_delta(bandwidth_ratio: float) -> float:
    """Link-budget change in dB from widening the noise bandwidth by ``ratio``.

    Transmit power held fixed, thermal noise scales with bandwidth:
    -10*log10(ratio), so 10x bandwidth costs 10 dB.
    """
    if not bandwidth_ratio >= 1:
        raise ValueError(f"bandwidth_ratio must be >= 1, got {bandwidth_ratio}")
    return -10.0 * math.log10(bandwidth_ratio)


@dataclass(frozen=True)
class EstimationLoadSpec:
    """Dimensions of the per-coherence-time channel estimation task."""

    m_antennas: int
    k_users: int
    n_subcarriers: int
    subcarriers_per_block: int
    coherence_time_s: float

    def __post_init__(self):
        for name in ("m_antennas", "k_users", "n_subcarriers", "subcarriers_per_block"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.subcarriers_per_block > self.n_subcarriers:
            raise ValueError("subcarriers_per_block cannot exceed n_subcarriers")
        if not self.coherence_time_s > 0:
            raise ValueError(f"coherence_time_s must be positive, got {self.coherence_time_s}")


@dataclass(frozen=True)
class EstimationLoadReport:
    n_coefficients: int
    estimates_per_second: float


def estimation_load(spec: EstimationLoadSpec) -> EstimationLoadReport:
    """Coefficient count M*K*ceil(subcarriers/block) and its rate per second.

    ceil, not floor: every subcarrier must be covered by some estimate even
    when the block size does not divide the grid evenly.
    """
    blocks = -(-spec.n_subcarriers // spec.subcarriers_per_block)
    n_coefficients = spec.m_antennas * spec.k_users * blocks
    return EstimationLoadReport(
        n_coefficients=n_coefficients,
        estimates_per_second=n_coefficients / spec.coherence_time_s,
    )


def link_budget_ledger(entries: Sequence[tuple[str, float]]) -> dict:
    """Sum labelled scalar dB contributions into a JSON-ready ledger.

    Material and atmospheric effects (window penetration, foliage, oxygen
    absorption, rain) enter as user-supplied dB numbers, not as physical
    models.
    """
    items = [{"label": str(label), "db": float(db)} for label, db in entries]
    return {"entries": items, "total_db": math.fsum(item["db"] for item in items)}

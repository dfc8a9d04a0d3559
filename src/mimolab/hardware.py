"""ADC and power-amplifier power-budget arithmetic.

ADC power follows the energy-per-conversion-step figure of merit:
P = FoM * f_s * 2^ENOB, times an overhead factor covering regulators,
buffering, and calibration.  Dropping one bit of resolution halves the
power, which is why a wide low-resolution array can undercut a narrow
high-resolution one.

PA efficiency is treated as a single net output/DC ratio (the quoted
power-added efficiency at back-off), ignoring drive power.
"""


def adc_power(
    fom_j_per_cs: float, enob: float, sample_rate_hz: float, overhead_factor: float
) -> float:
    """DC power of one converter: FoM * f_s * 2^ENOB * overhead."""
    if not fom_j_per_cs > 0:
        raise ValueError(f"fom_j_per_cs must be positive, got {fom_j_per_cs}")
    if not enob >= 1:
        raise ValueError(f"enob must be at least 1, got {enob}")
    if not sample_rate_hz > 0:
        raise ValueError(f"sample_rate_hz must be positive, got {sample_rate_hz}")
    if not 1.0 <= overhead_factor <= 10.0:
        raise ValueError(f"overhead_factor must lie in [1, 10], got {overhead_factor}")
    return fom_j_per_cs * sample_rate_hz * 2.0**enob * overhead_factor


def array_pa_budget(n_antennas: int, total_radiated_power_w: float, pae_fraction: float) -> float:
    """Total PA DC power for n antennas sharing a fixed radiated-power budget.

    Per-antenna output is total/n, so the total DC power total/pae is
    invariant in n while the per-antenna requirement falls as 1/n.
    """
    if not n_antennas >= 1:
        raise ValueError(f"n_antennas must be at least 1, got {n_antennas}")
    if not total_radiated_power_w > 0:
        raise ValueError(f"total_radiated_power_w must be positive, got {total_radiated_power_w}")
    if not 0.0 < pae_fraction < 1.0:
        raise ValueError(f"pae_fraction must lie in (0, 1), got {pae_fraction}")
    return n_antennas * (total_radiated_power_w / n_antennas / pae_fraction)


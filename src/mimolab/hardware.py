"""ADC and power-amplifier power-budget arithmetic.

ADC power follows the energy-per-conversion-step figure of merit:
P = FoM * f_s * 2^ENOB, times an overhead factor covering regulators,
buffering, and calibration.  Dropping one bit of resolution halves the
power, which is why a wide low-resolution array can undercut a narrow
high-resolution one.

PA efficiency is treated as a single net output/DC ratio (the quoted
power-added efficiency at back-off), ignoring drive power.
"""

from . import _fixed_text


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


def _run_hwbudget(params: dict, seed: int):
    """The CLI's hwbudget runner: (params, seed) -> (data, manifest results, stdout lines)."""

    def budget(component: str, count: int, unit_power_w: float) -> dict:
        return {
            "component": component,
            "count": count,
            "unit_power_w": unit_power_w,
            "total_power_w": count * unit_power_w,
        }

    fom, rate = params["fom_j_per_cs"], params["sample_rate_hz"]
    power_a = adc_power(fom, params["enob_a"], rate, params["overhead_factor"])
    power_b = adc_power(fom, params["enob_b"], rate, params["overhead_factor"])
    adc_a = budget("adc_array_a", params["n_converters_a"], power_a)
    adc_b = budget("adc_array_b", params["n_converters_b"], power_b)
    if adc_b["total_power_w"] == 0.0:
        raise ValueError("adc_power_ratio_a_over_b: array B's ADC power underflows to 0 W")
    ratio = adc_a["total_power_w"] / adc_b["total_power_w"]
    n_pa = params["pa_n_antennas"]
    pa_total_dc = array_pa_budget(n_pa, params["pa_total_radiated_w"], params["pa_pae"])
    pa = budget("pa_array", n_pa, pa_total_dc / n_pa)
    record = {
        "adc_a": adc_a,
        "adc_b": adc_b,
        "adc_power_ratio_a_over_b": ratio,
        "pa": pa,
        "pa_per_antenna_output_w": params["pa_total_radiated_w"] / n_pa,
    }
    lines = [
        f"ADC budget ratio (array A / array B) = {ratio}",
        f"PA DC total {_fixed_text(pa['total_power_w'], 3)} W for {n_pa} antennas",
    ]
    return record, {"adc_power_ratio_a_over_b": ratio}, lines

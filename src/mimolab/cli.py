"""Command-line driver: named experiments from flat key=value configs.

A config file is plain text, one ``key = value`` per line, with ``#`` or
``;`` comments and optional cosmetic ``[section]`` headers.  Keys are flat
(no nesting) so any small hand-written reader can parse the format.  The
reserved keys ``experiment``, ``seed``, and ``output`` select the
experiment, the random seed, and the output path; every other key must
belong to the experiment's parameter schema, and unknown keys are a hard
error so typos cannot silently fall back to defaults.  On the command line
``--KEY VALUE`` sets any key, the reserved ones included.

The library modules take and return plain numbers and arrays; each runner
here builds its experiment's record from them and returns data, never text:
a dict for a JSON experiment, a (header, columns) pair for a CSV one, each
column a numpy array or a sequence of Python numbers, all of one length.  So this
module alone knows the output schemas.  ``run`` alone checks that every number
is finite, before it creates any file, and writes the output along with a
``<output>.manifest.json`` echoing the resolved parameters, the seed, and the
artifact version.  It writes both files or neither: each goes to a temp file
beside its path (a CSV streams in blocks of rows, so no copy of its whole text
is held), and both temps are complete before either is renamed into place.
Files are created with mode 0o666 less the umask.  Outputs contain no
timestamps, so re-running a config reproduces its files byte for byte.
Integer parameters must lie within the double range, as the numeric code
turns them into floats; the seed is exempt, as only its low 64 bits are used.
The numpy-backed modules are imported inside the runners that use them, after
their own checks, so the closed-form experiments, the listings, schema rejects
and capacity-scenario rejects never load numpy.

Exit codes: 0 success, 2 config parse error (with line/column),
3 validation error (naming the offending field, or ``config`` for a config
file that cannot be read), 4 runtime failure (a non-finite result, memory
exhausted, or an output that cannot be written).
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from functools import partial
from typing import Callable, NamedTuple

from . import __version__
from .hardware import adc_power, array_pa_budget
from .propagation import bandwidth_snr_delta, estimation_load, fresnel_radius

DEFAULT_SEED = 42
_CSV_BLOCK_ROWS = 4096  # CSV rows formatted by one % operation

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4


class ConfigParseError(Exception):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")


class ValidationError(Exception):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")


# ----------------------------------------------------------------------------
# config text
# ----------------------------------------------------------------------------

_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def parse_config_text(text: str) -> dict[str, str]:
    """Flat ordered key -> raw value mapping; positions reported on error."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            continue  # section headers carry no data in this flat format
        column = 1 + len(raw) - len(raw.lstrip())
        if "=" not in line:
            raise ConfigParseError(lineno, column, "expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if not _KEY_RE.match(key):
            raise ConfigParseError(lineno, column, f"invalid key {key!r}")
        if key in values:
            raise ConfigParseError(lineno, column, f"duplicate key {key!r}")
        values[key] = value.strip()
    return values


# ----------------------------------------------------------------------------
# parameter schemas
# ----------------------------------------------------------------------------

class Param(NamedTuple):
    name: str
    kind: str  # int | float | bool | choice | int_list | float_list
    default: object
    help: str
    choices: tuple[str, ...] = ()
    min_value: float | None = None
    max_value: float | None = None
    min_exclusive: bool = False


def _coerce_scalar(param: Param, field: str, text: str):
    if param.kind in ("int", "float"):
        if param.kind == "int":
            try:
                return int(text)  # exact beyond 2**53, where float() rounds
            except ValueError:
                pass
        try:
            value = float(text)
        except ValueError:
            raise ValidationError(field, f"expected a number, got {text!r}") from None
        if not math.isfinite(value):
            raise ValidationError(field, f"expected a finite number, got {text!r}")
        if param.kind == "int":
            if not value.is_integer():
                raise ValidationError(field, f"expected an integer, got {text!r}")
            value = int(value)
        return value
    if param.kind == "bool":
        if text.lower() in ("true", "false"):
            return text.lower() == "true"
        raise ValidationError(field, f"expected true or false, got {text!r}")
    if text not in param.choices:
        raise ValidationError(field, f"expected one of {param.choices}, got {text!r}")
    return text


def _check_range(param: Param, field: str, value) -> None:
    if param.kind not in ("int", "float", "int_list", "float_list"):
        return
    values = value if isinstance(value, list) else [value]
    for v in values:
        if abs(v) > sys.float_info.max:  # an int the numeric code could not turn into a double
            raise ValidationError(
                field, f"must be within the double range, |value| <= {sys.float_info.max!r}"
            )
        if param.min_value is not None:
            if param.min_exclusive and v <= param.min_value:
                raise ValidationError(field, f"must be > {param.min_value}, got {v}")
            if not param.min_exclusive and v < param.min_value:
                raise ValidationError(field, f"must be >= {param.min_value}, got {v}")
        if param.max_value is not None and v > param.max_value:
            raise ValidationError(field, f"must be <= {param.max_value}, got {v}")


def coerce_value(param: Param, field: str, text: str):
    if param.kind in ("int_list", "float_list"):
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ValidationError(field, "expected a comma-separated list")
        element = param._replace(kind=param.kind.removesuffix("_list"))
        value = [_coerce_scalar(element, field, p) for p in parts]
    else:
        value = _coerce_scalar(param, field, text)
    _check_range(param, field, value)
    return value


# ----------------------------------------------------------------------------
# experiment runners: (params, seed) -> (data, manifest results, stdout_lines)
# ----------------------------------------------------------------------------

def _run_squint(params: dict, seed: int):
    if params["span_hz"] >= 2.0 * params["center_frequency_hz"]:
        raise ValidationError(
            "span_hz",
            f"must be < 2 * center_frequency_hz = {2.0 * params['center_frequency_hz']} "
            f"so the band stays at positive frequencies, got {params['span_hz']}",
        )
    from .beamforming import squint_sweep
    from .geometry import PlanarArray
    from .scenarios import sixpath_channel

    try:
        array = PlanarArray.half_wavelength_at(
            params["rows"], params["cols"], params["center_frequency_hz"]
        )
    except ValueError as exc:
        raise ValidationError(
            "center_frequency_hz", f"the half-wavelength element spacing underflows ({exc})"
        ) from None
    channel = sixpath_channel(seed)
    freqs, effs = squint_sweep(
        array, channel, params["center_frequency_hz"], params["span_hz"], params["n_points"]
    )
    center_idx = int(abs(freqs - params["center_frequency_hz"]).argmin())
    extras = {
        "m_antennas": array.num_elements,
        "center_efficiency": float(effs[center_idx]),
        "min_efficiency": float(effs.min()),
        "max_efficiency": float(effs.max()),
    }
    lines = [
        f"center efficiency {extras['center_efficiency']:.4f}, "
        f"band minimum {extras['min_efficiency']:.4f} over {params['n_points']} points"
    ]
    return (("frequency_hz", "efficiency"), (freqs, effs)), extras, lines


def _capacity_scenario(params: dict) -> tuple[dict, range, dict]:
    from .coherence import coherence_samples, k_range

    ul_snr = params["ul_pilot_snr"]
    if params["snr_scaling"] == "bandwidth":
        ul_snr = ul_snr * params["reference_bandwidth_hz"] / params["bandwidth_hz"]
        if ul_snr == 0.0:
            raise ValidationError(
                "ul_pilot_snr", "underflows to 0 when scaled by reference_bandwidth_hz/bandwidth_hz"
            )
    try:
        tau_c = coherence_samples(params["coherence_time_s"], params["coherence_bandwidth_hz"])
    except (ValueError, OverflowError) as exc:
        raise ValidationError("coherence_time_s", f"{exc} (tau_c = time * bandwidth)") from None
    grid = k_range(tau_c, params["k_min"], params["k_max"], params["k_step"], params["fine"])
    # the CSV streams, so a sweep of 1,000,000 user counts peaks near 83 MB of process memory
    if len(grid) > 1_000_000:
        raise ValidationError(
            "k_step", f"the sweep would hold {len(grid)} user counts, more than 1000000"
        )
    extras = {
        "snr_scaling": params["snr_scaling"],
        "ul_pilot_snr_effective": ul_snr,
        "tau_c": tau_c,
    }
    rate_args = dict(m_antennas=params["m_antennas"], tau_c=tau_c, ul_pilot_snr=ul_snr,
                     dl_ul_power_ratio=params["dl_ul_power_ratio"],
                     bandwidth_hz=params["bandwidth_hz"])
    return rate_args, grid, extras


def _run_capacity(params: dict, seed: int):
    rate_args, grid, extras = _capacity_scenario(params)
    import numpy as np

    from .capacity import RATE_COLUMNS, best_row, rate_table

    table = rate_table(grid, **rate_args)
    best = best_row(table)
    m = rate_args["m_antennas"]
    extras["optimum"] = {"m_antennas": m, **best}
    lines = [
        f"optimum: K={best['k_users']}, pilot fraction {best['pilot_fraction']:.4f}, "
        f"sum rate {best['sum_rate_bps'] / 1e12:.4f} Tbit/s"
    ]
    columns = (np.full(len(grid), m), *table.values())
    return (("m_antennas", *RATE_COLUMNS), columns), extras, lines


def _run_antenna_sweep(params: dict, seed: int):
    rate_args, grid, extras = _capacity_scenario(params)
    from .capacity import RATE_COLUMNS, antenna_sweep

    best = antenna_sweep(params["m_grid"], grid, **rate_args)
    lines = [
        f"M={row['m_antennas']}: best sum rate {row['sum_rate_bps'] / 1e9:.3f} Gbit/s "
        f"at K={row['k_users']}"
        for row in best
    ]
    columns = tuple(zip(*(row.values() for row in best)))
    return (("m_antennas", *RATE_COLUMNS), columns), extras, lines


def _run_mobility(params: dict, seed: int):
    from .channels import drift_bound_check

    m, n_draws = params["m_antennas"], params["n_draws"]
    reports = []
    for mu in params["mu_list"]:
        min_gain, bound = drift_bound_check(m, mu, n_draws, seed)
        reports.append({
            "m_antennas": m,
            "mu": mu,
            "n_random_draws": n_draws,
            "seed": seed,
            "min_observed_gain": min_gain,
            "bound_gain": bound,
            "holds": True,  # drift_bound_check raises ArithmeticError otherwise
        })
    lines = [
        f"mu={r['mu']}: min gain {r['min_observed_gain']:.6f} vs bound {r['bound_gain']:.6f}"
        for r in reports
    ]
    return {"reports": reports}, {"reports": reports}, lines


def _run_fresnel(params: dict, seed: int):
    frequency_hz = params["freq_ghz"] * 1e9
    radius = fresnel_radius(params["d1"], params["d2"], frequency_hz)
    record = {
        "d1_m": params["d1"],
        "d2_m": params["d2"],
        "frequency_hz": frequency_hz,
        "radius_m": radius,
    }
    return record, {"radius_m": radius}, [f"fresnel radius = {radius:.3f} m"]


def _run_linkbudget(params: dict, seed: int):
    entries = []
    if params["bandwidth_ratio"] > 1:
        entries.append(("wider_noise_bandwidth", bandwidth_snr_delta(params["bandwidth_ratio"])))
    entries += [(k.removeprefix("entry_"), v) for k, v in params.items() if k.startswith("entry_")]
    try:
        total_db = math.fsum(db for _, db in entries)
    except OverflowError as exc:
        raise OverflowError(f"total_db: {exc}") from None
    ledger = {
        "entries": [{"label": label, "db": db} for label, db in entries],
        "total_db": total_db,
    }
    lines = [f"link budget total {total_db:.2f} dB over {len(entries)} entries"]
    return ledger, {"total_db": total_db}, lines


def _run_estload(params: dict, seed: int):
    # the schema lists exactly estimation_load's parameters
    n_coefficients, rate = estimation_load(**params)
    lines = [f"{n_coefficients} coefficients, {rate:.3e} estimates/second"]
    record = {**params, "n_coefficients": n_coefficients, "estimates_per_second": rate}
    return record, {"n_coefficients": n_coefficients}, lines


def _run_hwbudget(params: dict, seed: int):
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
        f"PA DC total {pa['total_power_w']:.3f} W for {n_pa} antennas",
    ]
    return record, {"adc_power_ratio_a_over_b": ratio}, lines


def _run_diagnostic(metric_name: str, count_key: str, params: dict, seed: int):
    # imported when called, so a rebound mimolab.channels attribute takes effect
    from .channels import favorable_propagation_metric, hardening_metric

    metric = hardening_metric if metric_name == "hardening" else favorable_propagation_metric
    value = metric(params["m_antennas"], params[count_key], seed)
    record = {
        "model": "iid_rayleigh",
        "m_antennas": params["m_antennas"],
        "n_draws": params[count_key],
        "seed": seed,
        "metric_name": metric_name,
        "value": value,
    }
    label = metric_name.replace("_", "-")
    return record, {"value": value}, [f"{label} metric = {value:.6f}"]


# ----------------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------------

class Experiment(NamedTuple):
    name: str
    description: str
    output_ext: str
    params: tuple[Param, ...]
    runner: Callable
    allow_prefix: str | None = None


_CAPACITY_PARAMS = (
    Param("carrier_hz", "float", 3e9, "carrier frequency in Hz", min_value=0, min_exclusive=True),
    Param("bandwidth_hz", "float", 50e6, "signal bandwidth in Hz", min_value=0, min_exclusive=True),
    Param("m_antennas", "int", 100_000, "number of base-station antennas", min_value=1),
    Param("ul_pilot_snr", "float", 100.0, "uplink pilot SNR per receive antenna, linear, "
          "at the reference bandwidth", min_value=0, min_exclusive=True),
    Param("dl_ul_power_ratio", "float", 100.0, "downlink over uplink power ratio",
          min_value=0, min_exclusive=True),
    Param("coherence_time_s", "float", 0.1, "coherence time in seconds",
          min_value=0, min_exclusive=True),
    Param("coherence_bandwidth_hz", "float", 400e3, "coherence bandwidth in Hz",
          min_value=0, min_exclusive=True),
    Param("snr_scaling", "choice", "none", "uplink SNR scaling policy; 'bandwidth' divides the "
          "reference SNR by bandwidth_hz/reference_bandwidth_hz", choices=("none", "bandwidth")),
    Param("reference_bandwidth_hz", "float", 50e6, "bandwidth at which ul_pilot_snr was set",
          min_value=0, min_exclusive=True),
    Param("k_min", "int", 1, "smallest user count in the sweep", min_value=1),
    Param("k_max", "int", 0, "largest user count in the sweep; 0 means tau_c", min_value=0),
    Param("k_step", "int", 0, "sweep step; 0 picks max(1, tau_c/1000)", min_value=0),
    Param("fine", "bool", False, "force an exhaustive step-1 sweep"),
)

EXPERIMENTS: dict[str, Experiment] = {
    exp.name: exp
    for exp in (
        Experiment(
            "squint",
            "analog-beam efficiency across a band for the six-path 60 GHz scenario (CSV)",
            "csv",
            (
                # 4096 x 4096 elements already peak near 0.8 GB of memory
                Param("rows", "int", 64, "vertical element count", min_value=1, max_value=4096),
                Param("cols", "int", 64, "horizontal element count", min_value=1, max_value=4096),
                Param("center_frequency_hz", "float", 60e9, "beam alignment frequency in Hz",
                      min_value=0, min_exclusive=True),
                Param("span_hz", "float", 2e9, "total swept bandwidth in Hz",
                      min_value=0, min_exclusive=True),
                # 1,000,000 points on a 1 x 1 array already peak near 0.3 GB
                Param("n_points", "int", 201, "number of frequency samples", min_value=2,
                      max_value=1_000_000),
            ),
            _run_squint,
        ),
        Experiment(
            "capacity",
            "closed-form MRT downlink sum-rate sweep over the user count (CSV)",
            "csv",
            _CAPACITY_PARAMS,
            _run_capacity,
        ),
        Experiment(
            "antenna-sweep",
            "best sum rate per antenna count (CSV)",
            "csv",
            _CAPACITY_PARAMS + (
                Param("m_grid", "int_list", [100, 1000, 10_000, 100_000],
                      "antenna counts to sweep", min_value=1),
            ),
            _run_antenna_sweep,
        ),
        Experiment(
            "mobility",
            "beamforming-gain lower bound under user drift (JSON)",
            "json",
            (
                # 10,000,000 antennas and one draw already peak near 0.65 GB
                Param("m_antennas", "int", 64, "number of antennas", min_value=1,
                      max_value=10_000_000),
                Param("mu_list", "float_list", [0.125, 0.0625],
                      "drift amplitudes in wavelengths, each <= 1/8",
                      min_value=0, max_value=0.125),
                Param("n_draws", "int", 100_000, "random drift patterns per amplitude",
                      min_value=0),
            ),
            _run_mobility,
        ),
        Experiment(
            "fresnel",
            "first Fresnel-zone radius for a link geometry (JSON)",
            "json",
            (
                Param("freq_ghz", "float", 38.0, "carrier frequency in GHz",
                      min_value=0, min_exclusive=True),
                Param("d1", "float", 50.0, "distance to one link end in meters", min_value=0),
                Param("d2", "float", 50.0, "distance to the other link end in meters",
                      min_value=0),
            ),
            _run_fresnel,
        ),
        Experiment(
            "linkbudget",
            "sum of labelled dB ledger entries plus the bandwidth noise delta (JSON)",
            "json",
            (
                Param("bandwidth_ratio", "float", 20.0,
                      "noise-bandwidth widening factor; adds -10*log10(ratio) dB when > 1",
                      min_value=1),
            ),
            _run_linkbudget,
            allow_prefix="entry_",
        ),
        Experiment(
            "estload",
            "channel-estimation coefficient count and rate (JSON)",
            "json",
            (
                Param("m_antennas", "int", 200, "base-station antennas", min_value=1),
                Param("k_users", "int", 20, "multiplexed single-antenna users", min_value=1),
                Param("n_subcarriers", "int", 1024, "OFDM subcarriers", min_value=1),
                Param("subcarriers_per_block", "int", 12,
                      "subcarriers over which the channel is constant", min_value=1),
                Param("coherence_time_s", "float", 0.05, "channel coherence time in seconds",
                      min_value=0, min_exclusive=True),
            ),
            _run_estload,
        ),
        Experiment(
            "hwbudget",
            "ADC array power comparison and PA DC budget (JSON)",
            "json",
            (
                Param("fom_j_per_cs", "float", 30e-15,
                      "ADC energy per conversion step in joules",
                      min_value=0, min_exclusive=True),
                Param("sample_rate_hz", "float", 1e8, "ADC sample rate in Hz",
                      min_value=0, min_exclusive=True),
                Param("overhead_factor", "float", 1.0,
                      "integrated-implementation overhead, 1 to 10", min_value=1, max_value=10),
                # 2.0**enob overflows a double from 1024 bits on
                Param("enob_a", "float", 5.0, "effective bits of array A converters",
                      min_value=1, max_value=1023),
                Param("n_converters_a", "int", 128, "converter count of array A", min_value=1),
                Param("enob_b", "float", 10.0, "effective bits of array B converters",
                      min_value=1, max_value=1023),
                Param("n_converters_b", "int", 8, "converter count of array B", min_value=1),
                Param("pa_total_radiated_w", "float", 1.0, "total radiated power in watts",
                      min_value=0, min_exclusive=True),
                Param("pa_pae", "float", 0.18, "power-added efficiency as a fraction",
                      min_value=0, min_exclusive=True, max_value=0.999999),
                Param("pa_n_antennas", "int", 64, "antennas sharing the radiated-power budget",
                      min_value=1),
            ),
            _run_hwbudget,
        ),
        Experiment(
            "hardening",
            "Monte-Carlo channel-hardening metric std/mean of ||h||^2 (JSON)",
            "json",
            (
                # a single choice the runner ignores; perfbench/reference manifests echo it
                Param("model", "choice", "iid_rayleigh", "channel model",
                      choices=("iid_rayleigh",)),
                # 10,000,000 antennas and two draws already peak near 0.19 GB
                Param("m_antennas", "int", 100, "number of antennas", min_value=1,
                      max_value=10_000_000),
                Param("n_draws", "int", 10_000, "Monte-Carlo draws", min_value=2),
            ),
            partial(_run_diagnostic, "hardening", "n_draws"),
        ),
        Experiment(
            "favorable",
            "Monte-Carlo favorable-propagation metric, mean |h_i^H h_j|/(|h_i||h_j|) (JSON)",
            "json",
            (
                # a single choice the runner ignores; perfbench/reference manifests echo it
                Param("model", "choice", "iid_rayleigh", "channel model",
                      choices=("iid_rayleigh",)),
                # 10,000,000 antennas and one pair already peak near 0.72 GB
                Param("m_antennas", "int", 100, "number of antennas", min_value=1,
                      max_value=10_000_000),
                Param("n_pairs", "int", 1000, "independent channel pairs", min_value=1),
            ),
            partial(_run_diagnostic, "favorable_propagation", "n_pairs"),
        ),
    )
}

BUNDLED_CONFIGS = (
    "fig4_32x32",
    "fig4_64x64",
    "fig4_128x128",
    "centralpark_3ghz",
    "centralpark_60ghz",
    "mobility_bound",
    "estload_paper",
    "adc_128v8",
)


def bundled_config_text(name: str) -> str:
    path = os.path.join(os.path.dirname(__file__), "configs", f"{name}.ini")
    with open(path, encoding="utf-8") as handle:
        return handle.read()


# ----------------------------------------------------------------------------
# output plumbing
# ----------------------------------------------------------------------------

def _check_finite(value, where: str) -> None:
    """Raise ValueError naming the first NaN or infinite float in value by its place."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{where} is {value!r}, not a finite number")
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{where}.{key}" if where else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_finite(item, f"{where}[{i}]")


def _json_text(obj) -> str:
    _check_finite(obj, "")
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _column_is_finite(column) -> bool:
    """False if a cell of the column (an array or a sequence of numbers) is NaN or infinite."""
    kind = getattr(getattr(column, "dtype", None), "kind", None)
    if kind in ("i", "u"):
        return True
    if kind == "f":  # min and max propagate NaN and reach +-inf
        return math.isfinite(column.min()) and math.isfinite(column.max())
    return all(not isinstance(value, float) or math.isfinite(value) for value in column)


def _check_columns(header: tuple[str, ...], columns) -> None:
    """Raise ValueError naming the first NaN or infinite cell in row order."""
    if all(_column_is_finite(column) for column in columns):
        return
    cells = [column.tolist() if hasattr(column, "tolist") else column for column in columns]
    for number, row in enumerate(zip(*cells), start=1):
        for name, value in zip(header, row):
            _check_finite(value, f"{name} in data row {number}")


def _csv_blocks(header: tuple[str, ...], columns):
    """The CSV text of a header and its columns, in blocks of at most _CSV_BLOCK_ROWS rows."""
    yield ",".join(header) + "\n"
    width = len(header)
    # %r is repr, which keeps the shortest decimal that round-trips a double
    row_format = ",".join(["%r"] * width) + "\n"
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        block = [column[start:start + _CSV_BLOCK_ROWS] for column in columns]
        n = len(block[0])
        flat = [None] * (n * width)  # row-major cells: column j at j, j + width, ...
        for j, cells in enumerate(block):
            flat[j::width] = cells.tolist() if hasattr(cells, "tolist") else cells
        yield (row_format * n) % tuple(flat)


def _write_temp(path: str, pieces) -> str:
    """Write the strings of pieces, in order, to a new temp file beside path; returns its name."""
    directory = os.path.dirname(os.path.abspath(path))
    # a regular file in the way is left to open, which reports Not a directory
    if not os.path.exists(directory):
        os.makedirs(directory, exist_ok=True)
    # created exclusively, so like any new file its mode is 0o666 less the umask
    tmp = os.path.join(directory, ".mimolab-" + os.urandom(8).hex())
    handle = open(tmp, "x", newline="\n")
    try:
        with handle:
            handle.writelines(pieces)
    except BaseException:
        os.unlink(tmp)
        raise
    return tmp


def _atomic_write(files) -> None:
    """Write every (path, pieces) pair or none: all temps are complete before any rename.

    If a rename fails, the paths renamed before it are removed again.  An
    OSError names the destination path it concerns as its filename.
    """
    temps: list[str] = []
    published: list[str] = []
    try:
        for path, pieces in files:
            temps.append(_write_temp(path, pieces))
        for tmp, (path, _) in zip(temps, files):
            os.replace(tmp, path)
            published.append(path)
    except BaseException as exc:
        for leftover in temps[len(published):] + published:
            os.unlink(leftover)
        if isinstance(exc, OSError):
            exc.filename = path
        raise


def list_experiments() -> str:
    lines = ["available experiments:", ""]
    for exp in EXPERIMENTS.values():
        lines.append(f"{exp.name} - {exp.description}")
        for param in exp.params:
            kind = f"{param.kind}, default {param.default}"
            if param.choices:
                kind += f", one of {'/'.join(param.choices)}"
            lines.append(f"    {param.name} ({kind}): {param.help}")
        if exp.allow_prefix:
            lines.append(
                f"    {exp.allow_prefix}LABEL (float, repeatable): "
                "extra ledger entry named LABEL, value in dB"
            )
        lines.append("")
    lines.append("bundled configs: " + ", ".join(BUNDLED_CONFIGS))
    return "\n".join(lines)


USAGE = """\
usage: mimolab [EXPERIMENT] [--config PATH|NAME] [--experiment NAME]
               [--output PATH] [--seed N] [--set key=value] [--KEY VALUE]
       mimolab list

Runs one deterministic experiment and writes its CSV/JSON output plus a
<output>.manifest.json echoing every resolved parameter and the seed.
'mimolab list' prints all experiments, parameters, and defaults.
Exit codes: 0 ok, 2 parse error, 3 validation error, 4 runtime failure.
"""


# ----------------------------------------------------------------------------
# main
# ----------------------------------------------------------------------------

def _load_config(source: str) -> dict[str, str]:
    if os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError("config", f"cannot read {source!r}: {exc}") from None
        return parse_config_text(text)
    name = source.removesuffix(".ini")
    if name in BUNDLED_CONFIGS:
        return parse_config_text(bundled_config_text(name))
    raise ValidationError("config", f"no such file or bundled config: {source!r}")


def resolve(config: dict[str, str]) -> tuple[Experiment, int, str, dict]:
    """Experiment, seed, output path and checked parameters of a raw config.

    The config names a registered experiment; schema defaults fill the keys
    it omits, and ValidationError names the first bad field.
    """
    config = dict(config)
    exp = EXPERIMENTS[config.pop("experiment")]
    seed = DEFAULT_SEED
    if "seed" in config:
        # no range check: derive_seed and RandomStream keep the low 64 bits of any integer
        seed_param = Param("seed", "int", DEFAULT_SEED, "seed")
        seed = _coerce_scalar(seed_param, "seed", config.pop("seed"))
    output = config.pop("output", f"{exp.name}.{exp.output_ext}")
    schema = {param.name: param for param in exp.params}
    params = {param.name: param.default for param in exp.params}
    entry_param = Param("entry", "float", 0.0, "ledger entry in dB")
    for key, text in config.items():
        if key in schema:
            params[key] = coerce_value(schema[key], key, text)
        elif exp.allow_prefix and key.startswith(exp.allow_prefix) and key != exp.allow_prefix:
            params[key] = coerce_value(entry_param, key, text)
        else:
            raise ValidationError(key, f"unknown parameter for experiment {exp.name!r}")
    return exp, seed, output, params


def run(config: dict[str, str]) -> int:
    """Run one configuration, check and write its files; returns the exit code."""
    exp, seed, output, params = resolve(config)
    out_of_memory = f"runtime failure: ran out of memory running {exp.name!r}"
    try:
        data, results, stdout_lines = exp.runner(params, seed)
        if exp.output_ext == "csv":
            _check_columns(*data)
            pieces = _csv_blocks(*data)
        else:
            pieces = (_json_text(data),)
        manifest = _json_text({
            "artifact_version": __version__,
            "experiment": exp.name,
            "seed": seed,
            "parameters": params,
            "results": results,
            "output": output,
        })
    except (ValueError, ArithmeticError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError:
        print(out_of_memory, file=sys.stderr)
        return EXIT_RUNTIME

    try:
        _atomic_write(((output, pieces), (output + ".manifest.json", (manifest,))))
    except OSError as exc:
        print(f"runtime failure: cannot write {exc.filename!r}: {exc.strerror}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError:
        print(out_of_memory, file=sys.stderr)
        return EXIT_RUNTIME
    for line in stdout_lines:
        print(line)
    print(f"wrote {output}")
    print(f"wrote {output}.manifest.json")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        print(USAGE)
        return EXIT_OK

    config_source = None
    overrides: list[tuple[str, str]] = []
    positionals: list[str] = []

    def take_value(flag: str, i: int) -> str:
        if i + 1 >= len(args):
            raise ConfigParseError(0, 0, f"flag {flag} needs a value")
        return args[i + 1]

    try:
        i = 0
        while i < len(args):
            arg = args[i]
            if arg in ("-h", "--help"):
                print(USAGE)
                return EXIT_OK
            if arg == "--list":
                print(list_experiments())
                return EXIT_OK
            if arg == "--config":
                config_source = take_value(arg, i)
                i += 2
            elif arg == "--set":
                pair = take_value(arg, i)
                if "=" not in pair:
                    raise ConfigParseError(0, 0, f"--set expects key=value, got {pair!r}")
                key, _, value = pair.partition("=")
                overrides.append((key.strip(), value.strip()))
                i += 2
            elif arg.startswith("--"):
                # passthrough: --freq-ghz 38 == --set freq_ghz=38, --seed 7 == --set seed=7
                key = arg[2:].replace("-", "_")
                overrides.append((key, take_value(arg, i)))
                i += 2
            elif arg.startswith("-"):
                raise ConfigParseError(0, 0, f"unknown flag {arg!r}")
            else:
                positionals.append(arg)
                i += 1

        if positionals and positionals[0] == "list":
            print(list_experiments())
            return EXIT_OK
        if len(positionals) > 1:
            raise ConfigParseError(0, 0, f"unexpected arguments: {positionals[1:]}")

        config = _load_config(config_source) if config_source is not None else {}
        if positionals:
            config["experiment"] = positionals[0]
        for key, value in overrides:
            config[key] = value
        if "experiment" not in config:
            print(USAGE)
            print("error: no experiment selected", file=sys.stderr)
            return EXIT_VALIDATION
        if config["experiment"] not in EXPERIMENTS:
            print(f"unknown experiment {config['experiment']!r}", file=sys.stderr)
            print(list_experiments(), file=sys.stderr)
            return EXIT_VALIDATION
        return run(config)
    except ConfigParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

"""Command-line driver: named experiments from flat key=value configs.

A config file is plain text, one ``key = value`` per line, with ``#`` or
``;`` comments and optional cosmetic ``[section]`` headers.  Keys are flat
(no nesting) so any small hand-written reader can parse the format.  The
reserved keys ``experiment``, ``seed``, and ``output`` select the
experiment, the random seed, and the output path; every other key must
belong to the experiment's parameter schema, and unknown keys are a hard
error so typos cannot silently fall back to defaults.  On the command line
``--KEY VALUE`` sets any key, the reserved ones included.

Each runner returns data, never text: a dict for a JSON experiment, a
(header, rows) pair of Python numbers for a CSV one.  ``run`` alone checks
that every number is finite and writes the output atomically (temp file
plus rename) along with a ``<output>.manifest.json`` echoing the resolved
parameters, the seed, and the artifact version.  Outputs contain no
timestamps, so re-running a config reproduces its files byte for byte.

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
import tempfile
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Callable

from . import __version__
from .beamforming import squint_sweep
from .capacity import (
    RATE_COLUMNS,
    CapacityScenario,
    CoherenceBlock,
    antenna_sweep,
    best_row,
    k_range,
    rate_table,
)
from .channels import (
    drift_bound_check,
    favorable_propagation_metric,
    hardening_metric,
    metric_record,
)
from .geometry import PlanarArray
from .hardware import AdcSpec, adc_array_budget, adc_power, array_pa_budget, budget_record
from .propagation import (
    EstimationLoadSpec,
    LinkGeometry,
    bandwidth_snr_delta,
    estimation_load,
    fresnel_radius,
    link_budget_ledger,
)
from .scenarios import DEFAULT_SEED, sixpath_channel

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

@dataclass(frozen=True)
class Param:
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
        element = replace(param, kind=param.kind.removesuffix("_list"))
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
    array = PlanarArray.half_wavelength_at(
        params["rows"], params["cols"], params["center_frequency_hz"]
    )
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
    rows = list(zip(freqs.tolist(), effs.tolist()))
    return (("frequency_hz", "efficiency"), rows), extras, lines


def _capacity_scenario(params: dict) -> tuple[CapacityScenario, range, dict]:
    ul_snr = params["ul_pilot_snr"]
    if params["snr_scaling"] == "bandwidth":
        ul_snr = ul_snr * params["reference_bandwidth_hz"] / params["bandwidth_hz"]
    scenario = CapacityScenario(
        carrier_hz=params["carrier_hz"],
        bandwidth_hz=params["bandwidth_hz"],
        m_antennas=params["m_antennas"],
        ul_pilot_snr_linear=ul_snr,
        dl_ul_power_ratio=params["dl_ul_power_ratio"],
        block=CoherenceBlock(params["coherence_time_s"], params["coherence_bandwidth_hz"]),
    )
    tau_c = scenario.block.samples
    grid = k_range(tau_c, params["k_min"], params["k_max"], params["k_step"], params["fine"])
    extras = {
        "snr_scaling": params["snr_scaling"],
        "ul_pilot_snr_effective": ul_snr,
        "tau_c": tau_c,
    }
    return scenario, grid, extras


def _run_capacity(params: dict, seed: int):
    scenario, grid, extras = _capacity_scenario(params)
    table = rate_table(scenario, grid)
    best = best_row(table)
    m = scenario.m_antennas
    extras["optimum"] = {"m_antennas": m, **best}
    lines = [
        f"optimum: K={best['k_users']}, pilot fraction {best['pilot_fraction']:.4f}, "
        f"sum rate {best['sum_rate_bps'] / 1e12:.4f} Tbit/s"
    ]
    rows = list(zip([m] * len(grid), *(column.tolist() for column in table.values())))
    return (("m_antennas", *RATE_COLUMNS), rows), extras, lines


def _run_antenna_sweep(params: dict, seed: int):
    scenario, grid, extras = _capacity_scenario(params)
    best = antenna_sweep(scenario, params["m_grid"], grid)
    lines = [
        f"M={row['m_antennas']}: best sum rate {row['sum_rate_bps'] / 1e9:.3f} Gbit/s "
        f"at K={row['k_users']}"
        for row in best
    ]
    return (("m_antennas", *RATE_COLUMNS), [tuple(row.values()) for row in best]), extras, lines


def _run_mobility(params: dict, seed: int):
    reports = [
        asdict(drift_bound_check(params["m_antennas"], mu, params["n_draws"], seed))
        for mu in params["mu_list"]
    ]
    lines = [
        f"mu={r['mu']}: min gain {r['min_observed_gain']:.6f} vs bound {r['bound_gain']:.6f}"
        for r in reports
    ]
    return {"reports": reports}, {"reports": reports}, lines


def _run_fresnel(params: dict, seed: int):
    geometry = LinkGeometry(params["d1"], params["d2"], params["freq_ghz"] * 1e9)
    radius = fresnel_radius(geometry)
    record = {**asdict(geometry), "radius_m": radius}
    return record, {"radius_m": radius}, [f"fresnel radius = {radius:.3f} m"]


def _run_linkbudget(params: dict, seed: int):
    entries = []
    if params["bandwidth_ratio"] > 1:
        entries.append(("wider_noise_bandwidth", bandwidth_snr_delta(params["bandwidth_ratio"])))
    entries += [(k.removeprefix("entry_"), v) for k, v in params.items() if k.startswith("entry_")]
    ledger = link_budget_ledger(entries)
    return (
        ledger,
        {"total_db": ledger["total_db"]},
        [f"link budget total {ledger['total_db']:.2f} dB over {len(entries)} entries"],
    )


def _run_estload(params: dict, seed: int):
    spec = EstimationLoadSpec(**params)  # the schema lists exactly the spec's fields
    report = estimation_load(spec)
    lines = [
        f"{report.n_coefficients} coefficients, "
        f"{report.estimates_per_second:.3e} estimates/second"
    ]
    record = {**asdict(spec), **asdict(report)}
    return record, {"n_coefficients": report.n_coefficients}, lines


def _run_hwbudget(params: dict, seed: int):
    spec_a, spec_b = (
        AdcSpec(params["fom_j_per_cs"], enob, params["sample_rate_hz"], params["overhead_factor"])
        for enob in (params["enob_a"], params["enob_b"])
    )
    adc_a = budget_record("adc_array_a", params["n_converters_a"], adc_power(spec_a))
    adc_b = budget_record("adc_array_b", params["n_converters_b"], adc_power(spec_b))
    ratio = adc_array_budget(params["n_converters_a"], spec_a) / adc_array_budget(
        params["n_converters_b"], spec_b
    )
    n_pa = params["pa_n_antennas"]
    pa_total_dc = array_pa_budget(n_pa, params["pa_total_radiated_w"], params["pa_pae"])
    pa = budget_record("pa_array", n_pa, pa_total_dc / n_pa)
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
    # looked up when called, so a rebound module global takes effect
    metric = hardening_metric if metric_name == "hardening" else favorable_propagation_metric
    value = metric(params["m_antennas"], params[count_key], seed)
    record = metric_record(params["m_antennas"], params[count_key], seed, metric_name, value)
    label = metric_name.replace("_", "-")
    return record, {"value": value}, [f"{label} metric = {value:.6f}"]


# ----------------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
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
    from importlib.resources import files

    resource = files("mimolab") / "configs" / f"{name}.ini"
    return resource.read_text(encoding="utf-8")


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


def _csv_text(header: tuple[str, ...], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    # repr() keeps the shortest decimal that round-trips a double
    lines += [",".join(map(repr, row)) for row in rows]
    text = "\n".join(lines) + "\n"
    # the repr of a finite int or float has no "n"; that of inf or nan has one
    if text.find("n", len(lines[0])) >= 0:
        for number, row in enumerate(rows, start=1):
            for column, value in zip(header, row):
                _check_finite(value, f"{column} in data row {number}")
    return text


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mimolab-")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
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

def _resolve_params(exp: Experiment, raw: dict[str, str]) -> dict:
    schema = {param.name: param for param in exp.params}
    resolved = {param.name: param.default for param in exp.params}
    entry_param = Param("entry", "float", 0.0, "ledger entry in dB")
    for key, text in raw.items():
        if key in schema:
            resolved[key] = coerce_value(schema[key], key, text)
        elif exp.allow_prefix and key.startswith(exp.allow_prefix):
            resolved[key] = coerce_value(entry_param, key, text)
        else:
            raise ValidationError(key, f"unknown parameter for experiment {exp.name!r}")
    return resolved


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


def run(config: dict[str, str]) -> int:
    """Run one configuration, check and write its files; returns the exit code."""
    config = dict(config)
    experiment_name = config.pop("experiment", None)
    if experiment_name is None:
        raise ValidationError("experiment", "no experiment selected")
    if experiment_name not in EXPERIMENTS:
        print(f"unknown experiment {experiment_name!r}", file=sys.stderr)
        print(list_experiments(), file=sys.stderr)
        return EXIT_VALIDATION

    exp = EXPERIMENTS[experiment_name]
    seed = DEFAULT_SEED
    if "seed" in config:
        seed = coerce_value(Param("seed", "int", DEFAULT_SEED, "seed"), "seed", config.pop("seed"))
    output = config.pop("output", f"{exp.name}.{exp.output_ext}")

    params = _resolve_params(exp, config)

    try:
        data, results, stdout_lines = exp.runner(params, seed)
        text = _csv_text(*data) if exp.output_ext == "csv" else _json_text(data)
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
        print(f"runtime failure: ran out of memory running {exp.name!r}", file=sys.stderr)
        return EXIT_RUNTIME

    for path, content in ((output, text), (output + ".manifest.json", manifest)):
        try:
            _atomic_write(path, content)
        except OSError as exc:
            print(f"runtime failure: cannot write {path!r}: {exc.strerror}", file=sys.stderr)
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

        config = _load_config(config_source) if config_source else {}
        if positionals:
            config["experiment"] = positionals[0]
        for key, value in overrides:
            config[key] = value
        if "experiment" not in config:
            print(USAGE)
            print("error: no experiment selected", file=sys.stderr)
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

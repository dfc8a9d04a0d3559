"""Command-line driver: named experiments from flat key=value configs.

A config file is plain text, one ``key = value`` per line, with ``#`` or
``;`` comments and optional cosmetic ``[section]`` headers.  Keys are flat
(no nesting) so any small hand-written reader can parse the format.  The
reserved keys ``experiment``, ``seed``, and ``output`` select the
experiment, the random seed, and the output path, and ``config`` names a
config file or bundled config whose values the other keys override; every
other key must belong to the experiment's parameter schema, and unknown keys
are a hard error so typos cannot silently fall back to defaults.  The command
line is one flat mapping of the same keys, checked against the same key
grammar: ``--KEY VALUE`` or ``--set KEY=VALUE`` sets any key, the reserved
ones included, and a positional experiment name sits below both.

The library modules take and return plain numbers and arrays; each runner
here builds its experiment's record from them and returns data, never text:
a dict for a JSON experiment, and for a CSV one a dict from column name to
column (a list or a numpy array), all of one length, whose keys are the
header.  So this module alone knows the output schemas.  ``run`` alone checks
that every number is finite, before it creates any file, and writes the output
along with a ``<output>.manifest.json`` echoing the resolved parameters, the
seed, and the artifact version.  It writes both files or neither: each goes to
a temp file beside its path (a CSV streams in blocks of rows, so no copy of its
whole text is held), and both temps are complete before either is renamed into
place; an existing path that is not a regular file is refused before any temp
is written.
Files are created with mode 0o666 less the umask.  Outputs contain no
timestamps, so re-running a config reproduces its files byte for byte.
Integer parameters must lie within the double range, as the numeric code
turns them into floats; the seed is exempt, as only its low 64 bits are used.
The numpy-backed modules are imported inside the runners that use them, after
their own checks, so the closed-form experiments, the listings, schema rejects
and capacity-scenario rejects never load numpy.  Nor does a rate sweep of at
most ``capacity.PLAIN_MAX_EVALUATIONS`` rate evaluations (``centralpark_60ghz``,
the default ``antenna-sweep``), which ``capacity`` evaluates in plain Python.
From the standard library they import only ``os``, ``sys`` and ``math``: the
JSON writer here stands in for ``json``, the schemas are plain classes, and the
key grammar is a set check, so ``json``, ``re``, ``typing``, ``functools``,
``enum`` and ``collections`` stay unloaded.

Exit codes, all chosen by one ``except`` table in ``main``: 0 success, 2 parse
error (with line/column in a config file), 3 invalid input naming the offending
field, 4 runtime failure (a non-finite result, memory exhausted, or an output
or stdout that cannot be written; files already published stay).  Every stdout
text, usage and listings too, is flushed inside that table; with no stdout at
all nothing is printed.  Invalid input is a missing or unknown ``experiment``,
a value outside its schema, a library check that relates several parameters
(``k_min <= k_max <= tau_c``, ``d1 + d2 > 0``, ``subcarriers_per_block <=
n_subcarriers``, a coherence block, fresnel wavelength or squint half-wavelength
spacing that the values cannot form, a squint span too narrow for ``n_points``
distinct frequencies, a capacity SNR or SNR product that leaves the double range),
an ``output`` that names no file ('', a path ending in a separator, or one
holding NUL), or ``config`` for a config file that cannot be read.
"""

import math
import os
import sys

from . import __version__
from .hardware import adc_power, array_pa_budget
from .propagation import (
    MAX_DRIFT_FRACTION,
    bandwidth_snr_delta,
    drift_bound_check,
    estimation_load,
    fresnel_radius,
    wavelength_m,
)

DEFAULT_SEED = 42
_CSV_BLOCK_ROWS = 4096  # CSV rows formatted by one % operation
_MAX_USER_COUNTS = 1_000_000  # a sweep's rows, capped for memory: scripts/memory_ceilings.py

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4


class ConfigParseError(Exception):
    """A config text's errors lead with their line and column; a command line's have none."""


class ValidationError(Exception):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")


# ----------------------------------------------------------------------------
# config text
# ----------------------------------------------------------------------------

_KEY_START = frozenset("abcdefghijklmnopqrstuvwxyz")
_KEY_CHARS = _KEY_START | frozenset("0123456789_")


def _is_key(key: str) -> bool:
    """True if the whole of key matches [a-z][a-z0-9_]*."""
    return key[:1] in _KEY_START and _KEY_CHARS.issuperset(key)


def parse_config_text(text: str) -> dict[str, str]:
    """Flat ordered key -> raw value mapping; positions reported on error."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            continue  # section headers carry no data in this flat format
        where = f"line {lineno}, column {1 + len(raw) - len(raw.lstrip())}"
        if "=" not in line:
            raise ConfigParseError(f"{where}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if not _is_key(key):
            raise ConfigParseError(f"{where}: invalid key {key!r}")
        if key in values:
            raise ConfigParseError(f"{where}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


# ----------------------------------------------------------------------------
# parameter schemas
# ----------------------------------------------------------------------------

class Param:
    """One schema entry; kind is int, float, bool, choice, int_list or float_list."""

    __slots__ = ("name", "kind", "default", "help", "choices", "min_value", "max_value",
                 "min_exclusive")

    def __init__(self, name: str, kind: str, default, help: str, choices: tuple[str, ...] = (),
                 min_value: float | None = None, max_value: float | None = None,
                 min_exclusive: bool = False):
        self.name, self.kind, self.default, self.help = name, kind, default, help
        self.choices, self.min_exclusive = choices, min_exclusive
        self.min_value, self.max_value = min_value, max_value


def _coerce_scalar(kind: str, field: str, text: str, choices: tuple[str, ...] = ()):
    """text as a value of scalar kind int, float, bool or choice (one of choices)."""
    if kind in ("int", "float"):
        if kind == "int":
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
        if kind == "int":
            if not value.is_integer():
                raise ValidationError(field, f"expected an integer, got {text!r}")
            value = int(value)
        return value
    if kind == "bool":
        if text.lower() in ("true", "false"):
            return text.lower() == "true"
        raise ValidationError(field, f"expected true or false, got {text!r}")
    if text not in choices:
        raise ValidationError(field, f"expected one of {choices}, got {text!r}")
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
        kind = param.kind.removesuffix("_list")
        value = [_coerce_scalar(kind, field, p) for p in parts]
    else:
        value = _coerce_scalar(param.kind, field, text, param.choices)
    _check_range(param, field, value)
    return value


def _blame(field: str, call, *args, note: str = "", **kwargs):
    """call(*args, **kwargs); a ValueError or OverflowError it raises names field as bad input.

    For the library checks that relate several parameters, which no schema bound expresses.
    """
    try:
        return call(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        raise ValidationError(field, f"{exc}{note}") from None


# ----------------------------------------------------------------------------
# experiment runners: (params, seed) -> (data, manifest results, stdout_lines)
# ----------------------------------------------------------------------------

def _nearest_index(values, target: float) -> int:
    """argmin of abs(values - target) for increasing values, by bisection without a temporary."""
    hi = min(int(values.searchsorted(target)), len(values) - 1)
    return hi - 1 if hi and abs(values[hi - 1] - target) <= abs(values[hi] - target) else hi


def _run_squint(params: dict, seed: int):
    if params["span_hz"] >= 2.0 * params["center_frequency_hz"]:
        raise ValidationError(
            "span_hz",
            f"must be < 2 * center_frequency_hz = {2.0 * params['center_frequency_hz']} "
            f"so the band stays at positive frequencies, got {params['span_hz']}",
        )
    from .beamforming import squint_sweep, sweep_frequencies
    from .geometry import PlanarArray
    from .scenarios import sixpath_channel

    array = _blame("center_frequency_hz", PlanarArray.half_wavelength_at, params["rows"],
                   params["cols"], params["center_frequency_hz"], note=" (spacing_m = c/2f)")
    freqs = _blame("span_hz", sweep_frequencies, params["center_frequency_hz"],
                   params["span_hz"], params["n_points"])
    effs = squint_sweep(array, sixpath_channel(seed), params["center_frequency_hz"], freqs)
    center_idx = _nearest_index(freqs, params["center_frequency_hz"])
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
    return {"frequency_hz": freqs, "efficiency": effs}, extras, lines


def _fixed_text(value: float, decimals: int) -> str:
    """A number for stdout: fixed point below magnitude 1e9, scientific from there up."""
    return f"{value:.{decimals}{'f' if abs(value) < 1e9 else 'e'}}"


def _capacity_scenario(params: dict) -> tuple[dict, range, dict]:
    from .capacity import coherence_samples, k_range

    ul_snr = params["ul_pilot_snr"]
    if params["snr_scaling"] == "bandwidth":
        # ul_snr * reference / bandwidth on the frexp mantissas, the binary exponent applied
        # last, so only the scaled SNR itself can overflow or underflow; a power of two scales
        # exactly, so wherever the plain form stays in the normal range this gives its bits
        (m_snr, e_snr), (m_ref, e_ref), (m_bw, e_bw) = map(
            math.frexp, (ul_snr, params["reference_bandwidth_hz"], params["bandwidth_hz"]))
        try:
            ul_snr = math.ldexp(m_snr * m_ref / m_bw, e_snr + e_ref - e_bw)
        except OverflowError:
            ul_snr = math.inf
        if ul_snr in (0.0, math.inf):
            raise ValidationError(
                "ul_pilot_snr", f"{'underflows to 0' if ul_snr == 0.0 else 'overflows'} "
                "when scaled by reference_bandwidth_hz/bandwidth_hz"
            )
    # the rate formula's SNR products: an infinite one turns every rate into NaN
    if params["dl_ul_power_ratio"] * ul_snr == math.inf:
        raise ValidationError(
            "dl_ul_power_ratio",
            f"the downlink SNR {params['dl_ul_power_ratio']!r} * {ul_snr!r} overflows"
        )
    tau_c = _blame("coherence_time_s", coherence_samples, params["coherence_time_s"],
                   params["coherence_bandwidth_hz"], note=" (tau_c = time * bandwidth)")
    grid = _blame("k_max" if params["k_max"] > tau_c else "k_min", k_range, tau_c,
                  params["k_min"], params["k_max"], params["k_step"] or int(params["fine"]))
    if len(grid) > _MAX_USER_COUNTS:
        raise ValidationError(
            "k_step", f"the sweep would hold {len(grid)} user counts, more than {_MAX_USER_COUNTS}"
        )
    if grid[-1] * ul_snr == math.inf:  # the pilot energy of the largest user count
        raise ValidationError("ul_pilot_snr", f"the pilot energy {grid[-1]} * {ul_snr!r} overflows")
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
    from .capacity import best_row, rate_columns

    table = rate_columns(grid, **rate_args)
    best = extras["optimum"] = best_row(table)
    lines = [
        f"optimum: K={best['k_users']}, pilot fraction {best['pilot_fraction']:.4f}, "
        f"sum rate {_fixed_text(best['sum_rate_bps'] / 1e12, 4)} Tbit/s"
    ]
    return table, extras, lines


def _run_antenna_sweep(params: dict, seed: int):
    rate_args, grid, extras = _capacity_scenario(params)
    from .capacity import RATE_COLUMNS, antenna_sweep

    best = antenna_sweep(params["m_grid"], grid, **rate_args)
    lines = [
        f"M={row['m_antennas']}: best sum rate {_fixed_text(row['sum_rate_bps'] / 1e9, 3)} Gbit/s "
        f"at K={row['k_users']}"
        for row in best
    ]
    table = {name: [row[name] for row in best] for name in RATE_COLUMNS}
    return table, extras, lines


def _run_mobility(params: dict, seed: int):
    m, mus = params["m_antennas"], params["mu_list"]
    reports = [
        {
            "m_antennas": m,
            "mu": mu,
            # echoed for schema compatibility: the least gain is closed-form, so neither
            # the draw count nor the seed changes a value
            "n_random_draws": params["n_draws"],
            "seed": seed,
            "min_observed_gain": min_gain,
            "bound_gain": bound,
            "holds": True,  # drift_bound_check raises ArithmeticError otherwise
        }
        for mu, (min_gain, bound) in zip(mus, drift_bound_check(m, mus))
    ]
    lines = [
        f"mu={r['mu']}: min gain {r['min_observed_gain']:.6f} vs bound {r['bound_gain']:.6f}"
        for r in reports
    ]
    return {"reports": reports}, {"reports": reports}, lines


def _run_fresnel(params: dict, seed: int):
    frequency_hz = params["freq_ghz"] * 1e9
    _blame("freq_ghz", wavelength_m, frequency_hz)
    radius = _blame("d1", fresnel_radius, params["d1"], params["d2"], frequency_hz)
    record = {
        "d1_m": params["d1"],
        "d2_m": params["d2"],
        "frequency_hz": frequency_hz,
        "radius_m": radius,
    }
    return record, {"radius_m": radius}, [f"fresnel radius = {_fixed_text(radius, 3)} m"]


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
    lines = [f"link budget total {_fixed_text(total_db, 2)} dB over {len(entries)} entries"]
    return ledger, {"total_db": total_db}, lines


def _run_estload(params: dict, seed: int):
    # the schema lists exactly estimation_load's parameters
    n_coefficients, rate = _blame("subcarriers_per_block", estimation_load, **params)
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
        f"PA DC total {_fixed_text(pa['total_power_w'], 3)} W for {n_pa} antennas",
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

class Experiment:
    """A named runner (params, seed) -> (data, manifest results, stdout lines) and its schema."""

    __slots__ = ("name", "description", "output_ext", "params", "runner", "allow_prefix")

    def __init__(self, name: str, description: str, output_ext: str, params: tuple[Param, ...],
                 runner, allow_prefix: str | None = None):
        self.name, self.description, self.output_ext = name, description, output_ext
        self.params, self.runner, self.allow_prefix = params, runner, allow_prefix


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

# the Monte-Carlo runs' memory cap (scripts/memory_ceilings.py); mobility, closed-form, shares it
_MAX_ANTENNAS = 10_000_000
_MONTE_CARLO_PARAMS = (
    # a single choice the runner ignores; perfbench/reference manifests echo it
    Param("model", "choice", "iid_rayleigh", "channel model", choices=("iid_rayleigh",)),
    Param("m_antennas", "int", 100, "number of antennas", min_value=1, max_value=_MAX_ANTENNAS),
)

EXPERIMENTS: dict[str, Experiment] = {
    exp.name: exp
    for exp in (
        Experiment(
            "squint",
            "analog-beam efficiency across a band for the six-path 60 GHz scenario (CSV)",
            "csv",
            (
                # rows, cols and n_points cap memory: scripts/memory_ceilings.py runs them
                Param("rows", "int", 64, "vertical element count", min_value=1, max_value=4096),
                Param("cols", "int", 64, "horizontal element count", min_value=1, max_value=4096),
                Param("center_frequency_hz", "float", 60e9, "beam alignment frequency in Hz",
                      min_value=0, min_exclusive=True),
                Param("span_hz", "float", 2e9, "total swept bandwidth in Hz",
                      min_value=0, min_exclusive=True),
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
                Param("m_antennas", "int", 64, "number of antennas", min_value=1,
                      max_value=_MAX_ANTENNAS),
                Param("mu_list", "float_list", [0.125, 0.0625],
                      "drift amplitudes in wavelengths, each <= 1/8",
                      min_value=0, max_value=MAX_DRIFT_FRACTION),
                # only echoed in each report: no value depends on it
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
            _MONTE_CARLO_PARAMS + (
                Param("n_draws", "int", 10_000, "Monte-Carlo draws", min_value=2),
            ),
            lambda params, seed: _run_diagnostic("hardening", "n_draws", params, seed),
        ),
        Experiment(
            "favorable",
            "Monte-Carlo favorable-propagation metric, mean |h_i^H h_j|/(|h_i||h_j|) (JSON)",
            "json",
            _MONTE_CARLO_PARAMS + (
                Param("n_pairs", "int", 1000, "independent channel pairs", min_value=1),
            ),
            lambda params, seed: _run_diagnostic("favorable_propagation", "n_pairs", params,
                                                 seed),
        ),
    )
}

# the schema of each entry_LABEL key, which the linkbudget experiment allows
_ENTRY_PARAM = Param("entry", "float", 0.0, "ledger entry in dB")

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


# ----------------------------------------------------------------------------
# output plumbing
# ----------------------------------------------------------------------------

# json's two-character escapes; any other character outside ' '..'~' becomes \uXXXX
_JSON_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
                 "\b": "\\b", "\f": "\\f"}


def _json_char(char: str) -> str:
    if char in _JSON_ESCAPES:
        return _JSON_ESCAPES[char]
    if " " <= char <= "~":
        return char
    code = ord(char)
    if code > 0xFFFF:  # a UTF-16 surrogate pair; a lone surrogate is escaped as it is
        code -= 0x10000
        return "\\u%04x\\u%04x" % (0xD800 | code >> 10, 0xDC00 | code & 0x3FF)
    return "\\u%04x" % code


def _json_string(text: str) -> str:
    """text as a JSON string literal in ASCII."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    return '"' + "".join(map(_json_char, text)) + '"'


def _json_value(value, where: str, indent: str) -> str:
    """value, whose dict keys are strings, as json.dumps(value, indent=2, sort_keys=True)
    writes it, nested at indent.

    A NaN or infinite float raises ValueError naming its place in the
    document, where: the first one in insertion order, as dict keys are
    sorted only once their values are written.
    """
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{where} is {value!r}, not a finite number")
        return float.__repr__(value)  # the shortest text that round-trips, as json writes it
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items = [_json_value(item, f"{where}[{i}]", inner) for i, item in enumerate(value)]
        brackets = "[]"
    elif isinstance(value, dict):
        texts = {key: _json_value(item, f"{where}.{key}" if where else key, inner)
                 for key, item in value.items()}
        items = [f"{_json_string(key)}: {texts[key]}" for key in sorted(texts)]
        brackets = "{}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _json_text(obj) -> str:
    """The JSON text of obj: indent 2, sorted keys, ASCII escapes and a final newline."""
    return _json_value(obj, "", "") + "\n"


def _cells(column) -> list:
    """The cells of a column, a list or a numpy array, as Python numbers."""
    return column if isinstance(column, list) else column.tolist()


def _column_is_finite(column) -> bool:
    """False if a cell of the column, a list or a numpy array, is NaN or infinite."""
    kind = "O" if isinstance(column, list) else column.dtype.kind
    if kind in ("i", "u"):
        return True
    if kind == "f":  # min and max propagate NaN and reach +-inf
        return math.isfinite(column.min()) and math.isfinite(column.max())
    return all(map(math.isfinite, column))  # ints lie within the double range (_check_range)


def _check_columns(table: dict) -> None:
    """Raise ValueError naming the first NaN or infinite cell of a name -> column table."""
    if all(_column_is_finite(column) for column in table.values()):
        return
    for number, row in enumerate(zip(*map(_cells, table.values())), start=1):
        for name, value in zip(table, row):
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} in data row {number} is {value!r}, not a finite number")


def _csv_blocks(table: dict):
    """The CSV text of a name -> column table, in blocks of at most _CSV_BLOCK_ROWS rows."""
    yield ",".join(table) + "\n"
    columns = list(table.values())
    width = len(columns)
    # %r is repr, which keeps the shortest decimal that round-trips a double
    row_format = ",".join(["%r"] * width) + "\n"
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        block = [column[start:start + _CSV_BLOCK_ROWS] for column in columns]
        n = len(block[0])
        flat = [None] * (n * width)  # row-major cells: column j at j, j + width, ...
        for j, cells in enumerate(block):
            flat[j::width] = _cells(cells)
        yield (row_format * n) % tuple(flat)


def _atomic_write(files) -> None:
    """Write every (path, pieces) pair or none: all temps are complete before any rename.

    An existing path that is not a regular file (a directory, FIFO or device)
    is refused before any temp is written, so a previous output stays.  Each
    temp is written beside its path; if a write or a rename (only a race fails
    one) raises, every temp and every path renamed so far is removed again.
    An OSError names the destination path it concerns as its filename.
    """
    temps: list[str] = []
    published: list[str] = []
    try:
        for path, _ in files:
            if os.path.exists(path) and not os.path.isfile(path):
                raise OSError(None, "not a regular file")
        for path, pieces in files:
            directory = os.path.dirname(os.path.abspath(path))
            # a regular file in the way is left to open, which reports Not a directory
            if not os.path.exists(directory):
                os.makedirs(directory, exist_ok=True)
            # created exclusively, so like any new file its mode is 0o666 less the umask
            tmp = os.path.join(directory, ".mimolab-" + os.urandom(8).hex())
            with open(tmp, "x", newline="\n") as handle:
                temps.append(tmp)
                handle.writelines(pieces)
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
    """Raw values of the config file at path source, else of the bundled config so named.

    A bundled name may carry its ``.ini`` suffix, and a directory so named (as
    run_all_bundled.py leaves) does not hide it.  A byte-order mark before the
    first key is skipped; a file that is missing, unreadable or not UTF-8 text
    is a ValidationError naming ``config``.
    """
    path, name = source, source.removesuffix(".ini")
    if name in BUNDLED_CONFIGS and (not os.path.exists(source) or os.path.isdir(source)):
        path = os.path.join(os.path.dirname(__file__), "configs", f"{name}.ini")
    elif not os.path.exists(source):
        raise ValidationError("config", f"no such file or bundled config: {source!r}")
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError("config", f"cannot read {source!r}: {exc}") from None
    return parse_config_text(text)


def resolve(config: dict[str, str]) -> tuple[Experiment, int, str, dict]:
    """Experiment, seed, output path and checked parameters of a raw config.

    The reserved key ``config`` names a config file or bundled config
    (``_load_config``), whose values lie under the other keys.  Schema
    defaults fill the keys that are still missing, and ValidationError names
    the first bad field, ``experiment`` if it is missing or unknown.
    """
    config = dict(config)
    if "config" in config:
        config = {**_load_config(config.pop("config")), **config}
    name = config.pop("experiment", "")
    exp = EXPERIMENTS[_coerce_scalar("choice", "experiment", name, tuple(EXPERIMENTS))]
    seed = DEFAULT_SEED
    if "seed" in config:
        # no range check: rng.seed_words and channels._child_seed_bytes keep the low 64 bits
        # of any integer, so -1 and 2**64 - 1 seed the same streams
        seed = _coerce_scalar("int", "seed", config.pop("seed"))
    output = config.pop("output", f"{exp.name}.{exp.output_ext}")
    # checked before any file or directory is made: '', 'sub/' and NUL cannot name a file
    if not os.path.basename(output) or "\0" in output:
        raise ValidationError("output", f"must name a file, got {output!r}")
    schema = {param.name: param for param in exp.params}
    params = {param.name: param.default for param in exp.params}
    for key, text in config.items():
        if key in schema:
            params[key] = coerce_value(schema[key], key, text)
        elif exp.allow_prefix and key.startswith(exp.allow_prefix) and key != exp.allow_prefix:
            params[key] = coerce_value(_ENTRY_PARAM, key, text)
        else:
            raise ValidationError(key, f"unknown parameter for experiment {exp.name!r}")
    return exp, seed, output, params


def run(config: dict[str, str]) -> int:
    """Run one configuration, check and write its files; main maps what it raises to exit codes."""
    exp, seed, output, params = resolve(config)
    data, results, stdout_lines = exp.runner(params, seed)
    if exp.output_ext == "csv":
        _check_columns(data)
        pieces = _csv_blocks(data)
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
    _atomic_write(((output, pieces), (output + ".manifest.json", (manifest,))))
    _say("\n".join([*stdout_lines, f"wrote {output}", f"wrote {output}.manifest.json"]))
    return EXIT_OK


def _say(text: str) -> None:
    """Print text and flush it, so a stdout that cannot be written fails here, not at exit."""
    print(text)
    if sys.stdout is not None:  # None when fd 1 was closed at start; print wrote nothing
        sys.stdout.flush()


def _detach_stdout() -> None:
    """Point stdout's descriptor at the null device, so its exit-time flush cannot fail again.

    The recipe of the Python docs' note on SIGPIPE; a stdout without a
    descriptor (a captured one) is left as it is.
    """
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    tokens = list(sys.argv[1:] if argv is None else argv) or ["--help"]
    args = iter(tokens)
    config: dict[str, str] = {}
    positionals: list[str] = []
    try:
        for arg in args:
            if arg in ("-h", "--help"):
                _say(USAGE)
                return EXIT_OK
            if arg == "--list":
                positionals.append(arg)  # a listing, like the positional list
            elif arg.startswith("--"):
                value = next(args, None)
                if value is None:
                    raise ConfigParseError(f"flag {arg} needs a value")
                if arg == "--set":
                    key, equals, value = value.partition("=")
                    if not equals:
                        raise ConfigParseError(f"--set expects key=value, got {key!r}")
                    key, value = key.strip(), value.strip()
                else:
                    # --freq-ghz 38 == --set freq_ghz=38, --config NAME == --set config=NAME
                    key = arg[2:].replace("-", "_")
                if not _is_key(key):
                    raise ConfigParseError(f"invalid key {key!r}")
                config[key] = value
            elif arg.startswith("-"):
                raise ConfigParseError(f"unknown flag {arg!r}")
            else:
                positionals.append(arg)

        if len(positionals) > 1:
            raise ConfigParseError(f"unexpected arguments: {positionals[1:]}")
        if positionals in (["list"], ["--list"]):
            if len(tokens) > 1:  # a listing is the only token; name the first other one
                extra = tokens[1] if tokens[0] == positionals[0] else tokens[0]
                raise ConfigParseError(f"a listing takes no other argument, got {extra!r}")
            _say(list_experiments())
            return EXIT_OK
        if positionals:
            config = {"experiment": positionals[0], **config}
        return run(config)
    except ConfigParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # _atomic_write sets the path as the filename; stdout has none
        if exc.filename is None:
            print(f"runtime failure: cannot write stdout: {exc.strerror}", file=sys.stderr)
            _detach_stdout()
        else:
            print(f"runtime failure: cannot write {exc.filename!r}: {exc.strerror}",
                  file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, ArithmeticError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:  # numpy's message says what it could not allocate
        print("runtime failure: out of memory" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

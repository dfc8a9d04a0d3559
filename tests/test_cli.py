import json
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mimolab import __version__, cli
from mimolab.beamforming import squint_sweep, sweep_frequencies
from mimolab.capacity import k_range, rate_columns, rate_lists, rate_table
from mimolab.cli import (
    _CSV_BLOCK_ROWS,
    BUNDLED_CONFIGS,
    EXPERIMENTS,
    ValidationError,
    _csv_blocks,
    _json_text,
    list_experiments,
    main,
    parse_config_text,
    resolve,
)
from mimolab.geometry import PlanarArray
from mimolab.scenarios import sixpath_channel

import numpy_free
from conftest import bundled
from test_golden import GOLDEN, _assert_run_matches_golden


def run_cli(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return main(args)


# ---------------------------------------------------------------------------
# config text parsing
# ---------------------------------------------------------------------------

def test_parse_simple_config():
    values = parse_config_text("# comment\n\nexperiment = fresnel\nfreq_ghz = 38\n")
    assert values == {"experiment": "fresnel", "freq_ghz": "38"}


def test_parse_sections_are_cosmetic():
    values = parse_config_text("[anything]\nkey = 1\n")
    assert values == {"key": "1"}


def test_parse_error_reports_line_and_column(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("experiment = fresnel\n\n   not a pair\n")
    code = run_cli(["--config", str(cfg)], tmp_path, monkeypatch)
    err = capsys.readouterr().err
    assert code == 2
    assert "line 3" in err and "column 4" in err


def test_duplicate_key_is_a_parse_error(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "dup.ini"
    cfg.write_text("experiment = fresnel\nd1 = 1\nd1 = 2\n")
    code = run_cli(["--config", str(cfg)], tmp_path, monkeypatch)
    assert code == 2
    assert "duplicate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["fresnel", "--seed"], "flag --seed needs a value"),
        (["fresnel", "--set", "d1"], "--set expects key=value, got 'd1'"),
        (["fresnel", "-x"], "unknown flag '-x'"),
        (["fresnel", "squint"], "unexpected arguments: ['squint']"),
        (["list", "squint"], "unexpected arguments: ['squint']"),
        # a listing is the only token on its line
        (["--list", "squint"], "unexpected arguments: ['squint']"),
        (["squint", "--list"], "unexpected arguments: ['--list']"),
        (["list", "--seed", "3", "--output", "x.json"],
         "a listing takes no other argument, got '--seed'"),
        (["--seed", "3", "--list"], "a listing takes no other argument, got '--seed'"),
        (["--list", "--set", "seed=3"], "a listing takes no other argument, got '--set'"),
        # command-line keys follow a config file's key grammar
        (["fresnel", "--", "3"], "invalid key ''"),
        (["fresnel", "--set", "=3"], "invalid key ''"),
        (["fresnel", "--Seed", "3"], "invalid key 'Seed'"),
        (["linkbudget", "--set", "entry_X=3"], "invalid key 'entry_X'"),
        (["fresnel", "--seed\n", "5"], "invalid key 'seed\\n'"),
    ],
    ids=["flag-without-value", "set-without-equals", "unknown-short-flag", "second-positional",
         "list-with-argument", "list-flag-with-argument", "list-flag-after-experiment",
         "list-with-keys", "list-flag-after-keys", "list-flag-with-set", "empty-flag-key",
         "empty-set-key", "uppercase-key", "uppercase-ledger-label", "key-with-final-newline"],
)
def test_command_line_error_has_no_position(args, message, tmp_path, monkeypatch, capsys):
    code = run_cli(args, tmp_path, monkeypatch)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"parse error: {message}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_unknown_parameter_names_the_field(tmp_path, monkeypatch, capsys):
    code = run_cli(["fresnel", "--set", "freq_gz=38"], tmp_path, monkeypatch)
    assert code == 3
    assert "freq_gz" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--set", "entry_=3"], ["--entry-", "3"]])
def test_ledger_entry_without_label_is_unknown(args, tmp_path, monkeypatch, capsys):
    code = run_cli(["linkbudget", *args, "--output", "lb.json"], tmp_path, monkeypatch)
    assert code == 3
    assert "invalid configuration: entry_: unknown parameter" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unknown_experiment_prints_listing(tmp_path, monkeypatch, capsys):
    code = run_cli(["warp-drive"], tmp_path, monkeypatch)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("invalid configuration: experiment: ")
    assert len(captured.err.splitlines()) == 1
    assert "warp-drive" in captured.err
    for name in EXPERIMENTS:
        assert repr(name) in captured.err


def test_missing_experiment_names_the_field(tmp_path, monkeypatch, capsys):
    code = run_cli(["--seed", "3"], tmp_path, monkeypatch)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("invalid configuration: experiment: ")
    assert len(captured.err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("config", [{}, {"experiment": "nope"}], ids=["missing", "unknown"])
def test_resolve_rejects_missing_or_unknown_experiment(config):
    with pytest.raises(ValidationError, match=r"^experiment: expected one of \('squint', "):
        resolve(config)


def test_bad_value_type_is_validation_error(tmp_path, monkeypatch, capsys):
    code = run_cli(["fresnel", "--set", "freq_ghz=fast"], tmp_path, monkeypatch)
    assert code == 3
    assert "freq_ghz" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, field",
    [
        (["squint", "--set", "n_points=1"], "n_points"),
        # past the bound that keeps the center channel vector within memory
        (["squint", "--rows", "20000"], "rows"),
        # past the bound that keeps the per-point CSV rows within memory
        (["squint", "--n-points", "1000001"], "n_points"),
        # past the bounds that keep the per-draw antenna samples within memory
        (["hardening", "--m-antennas", "10000001"], "m_antennas"),
        (["favorable", "--m-antennas", "10000001"], "m_antennas"),
        (["mobility", "--m-antennas", "10000001"], "m_antennas"),
        # past the bound that keeps the per-K CSV rows within memory: 1,040,000 user counts
        (["capacity", "--fine", "true", "--coherence-time-s", "2.6"], "k_step"),
        (["antenna-sweep", "--fine", "true", "--coherence-time-s", "2.6"], "k_step"),
        # coherence blocks of no sample and of more than 2**53 samples
        (["capacity", "--coherence-time-s", "1e-9"], "coherence_time_s"),
        (["capacity", "--coherence-time-s", "1e12"], "coherence_time_s"),
        (["antenna-sweep", "--coherence-bandwidth-hz", "1"], "coherence_time_s"),
        # a coherence block of infinitely many samples
        (["capacity", "--coherence-time-s", "1.7e308"], "coherence_time_s"),
        (["antenna-sweep", "--coherence-time-s", "1.7e308"], "coherence_time_s"),
        # half a wavelength at the center frequency underflows to 0 m
        (["squint", "--center-frequency-hz", "1.7e308"], "center_frequency_hz"),
        # the bandwidth-scaled uplink SNR underflows to 0
        (["capacity", "--snr-scaling", "bandwidth", "--ul-pilot-snr", "1e-300",
          "--reference-bandwidth-hz", "1e-300", "--bandwidth-hz", "1e300"], "ul_pilot_snr"),
        # library checks across fields: the K grid against the coherence block of 40,000 samples
        (["capacity", "--k-max", "50000"], "k_max"),
        (["capacity", "--k-min", "50000"], "k_min"),
        (["antenna-sweep", "--k-min", "9", "--k-max", "2"], "k_min"),
        # a link of zero length, and a channel block wider than the subcarrier grid
        (["fresnel", "--d1", "0", "--d2", "0"], "d1"),
        (["estload", "--subcarriers-per-block", "2000"], "subcarriers_per_block"),
        # half a wavelength at the center frequency overflows to inf m
        (["squint", "--center-frequency-hz", "5e-301", "--span-hz", "1e-301",
          "--rows", "1", "--cols", "1"], "center_frequency_hz"),
        # SNR products that overflow: the downlink SNR dl_ul_power_ratio * rho_ul, the
        # bandwidth-scaled uplink SNR, and the pilot energy K * rho_ul of the largest K
        (["capacity", "--dl-ul-power-ratio", "1e308", "--k-step", "1000"], "dl_ul_power_ratio"),
        (["antenna-sweep", "--dl-ul-power-ratio", "1e308"], "dl_ul_power_ratio"),
        (["capacity", "--ul-pilot-snr", "1e200", "--dl-ul-power-ratio", "1e200",
          "--k-step", "1000"], "dl_ul_power_ratio"),
        (["capacity", "--ul-pilot-snr", "1e308", "--snr-scaling", "bandwidth",
          "--reference-bandwidth-hz", "1e10", "--bandwidth-hz", "1", "--k-step", "1000"],
         "ul_pilot_snr"),
        (["capacity", "--ul-pilot-snr", "1e305", "--dl-ul-power-ratio", "1"], "ul_pilot_snr"),
        # a wavelength c/f that overflows to inf m, and a frequency of 1e309 Hz
        (["fresnel", "--freq-ghz", "1e-320"], "freq_ghz"),
        (["fresnel", "--freq-ghz", "1e300"], "freq_ghz"),
    ],
)
def test_out_of_range_value_is_validation_error(args, field, tmp_path, monkeypatch, capsys):
    code = run_cli(args, tmp_path, monkeypatch)
    assert code == 3
    assert field in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_missing_config_file(tmp_path, monkeypatch, capsys):
    code = run_cli(["--config", "no_such_file.ini"], tmp_path, monkeypatch)
    assert code == 3
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, name, code",
    [
        (["--config", "a_dir"], "config", 3),
        (["--config", "latin1.ini"], "config", 3),
        (["fresnel", "--config", "", "--output", "a.json"],
         "config: no such file or bundled config: ''", 3),
        (["fresnel", "--output", "a_dir"], "cannot write 'a_dir'", 4),
        (["fresnel", "--output", "a_file/f.json"],
         "cannot write 'a_file/f.json': Not a directory", 4),
    ],
    ids=["config-dir", "config-not-utf8", "config-empty", "output-dir", "output-under-file"],
)
def test_unreadable_config_or_unwritable_output(args, name, code, tmp_path, monkeypatch, capsys):
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_file").write_text("")
    (tmp_path / "latin1.ini").write_bytes("experiment = fresnel\n# caf\xe9\n".encode("latin-1"))
    assert run_cli(args, tmp_path, monkeypatch) == code
    err = capsys.readouterr().err
    assert name in err
    assert len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_dir", "a_file", "latin1.ini"]
    assert list((tmp_path / "a_dir").iterdir()) == []


def test_runtime_failure_exits_four(tmp_path, monkeypatch, capsys):
    # valid input whose result is not a number: FOM * fs * 2**ENOB overflows to inf
    args = ["hwbudget", "--fom-j-per-cs", "1e300", "--enob-a", "1000", "--output", "h.json"]
    assert run_cli(args, tmp_path, monkeypatch) == 4
    assert capsys.readouterr().err.startswith("runtime failure: adc_a.unit_power_w ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [["fresnel", "--output", "sub/"], ["fresnel", "--output", ""], ["--config", "../nul.ini"]],
    ids=["directory-path", "empty", "nul-byte"],
)
def test_output_that_names_no_file_is_validation_error(args, tmp_path, monkeypatch, capsys):
    (tmp_path / "nul.ini").write_text("experiment = fresnel\noutput = a\0b.json\n")
    (tmp_path / "work").mkdir()
    assert run_cli(args, tmp_path / "work", monkeypatch) == 3
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: output: ")
    assert len(err.splitlines()) == 1
    # '' resolves to the working directory, so its temp file would land in the parent
    assert sorted(p.name for p in tmp_path.iterdir()) == ["nul.ini", "work"]
    assert list((tmp_path / "work").iterdir()) == []


def test_out_of_memory_exits_four(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("mimolab.channels.hardening_metric", exhausted)
    code = run_cli(["hardening", "--output", "h.json"], tmp_path, monkeypatch)
    assert code == 4
    assert capsys.readouterr().err == "runtime failure: out of memory\n"
    assert not (tmp_path / "h.json").exists()


def test_drift_bound_violation_is_runtime_failure(tmp_path, monkeypatch, capsys):
    def below(m_antennas, mu):
        return m_antennas / 4

    monkeypatch.setattr("mimolab.propagation._least_drift_gain", below)
    code = run_cli(["mobility", "--output", "m.json"], tmp_path, monkeypatch)
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("runtime failure: drift gain 16.0 fell below the bound")
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_mu_above_an_eighth_rejected(tmp_path, monkeypatch, capsys):
    code = run_cli(["mobility", "--set", "mu_list=0.3"], tmp_path, monkeypatch)
    assert code == 3
    assert "mu_list" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, field",
    [
        (["squint", "--span-hz", "nan"], "span_hz"),
        (["fresnel", "--freq-ghz", "nan"], "freq_ghz"),
        (["capacity", "--ul-pilot-snr", "inf"], "ul_pilot_snr"),
        (["fresnel", "--d1", "-inf"], "d1"),
        (["squint", "--rows", "nan"], "rows"),
        (["mobility", "--mu-list", "0.1,nan"], "mu_list"),
        # finite, but 2**enob overflows a double
        (["hwbudget", "--enob-a", "2000"], "enob_a"),
        # no formula reads the carrier, so only the schema can reject it
        (["capacity", "--carrier-hz", "nan"], "carrier_hz"),
    ],
)
def test_non_finite_value_is_validation_error(args, field, tmp_path, monkeypatch, capsys):
    code = run_cli(args + ["--output", "out.txt"], tmp_path, monkeypatch)
    assert code == 3
    assert field in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# the first non-finite quantity each experiment's failure below must name
NON_FINITE_QUANTITY = {
    "estload": "estimates_per_second",
    "capacity": "rate_per_ue_bps",
    "antenna-sweep": "rate_per_ue_bps",  # only in CSV rows; the manifest stays finite
    "hwbudget": "adc_a.unit_power_w",
    "linkbudget": "total_db",  # math.fsum raises on overflow instead of returning inf
}


@pytest.mark.parametrize(
    "args",
    [
        ["estload", "--m-antennas", "1000000000000000000000", "--coherence-time-s", "1e-320"],
        ["capacity", "--bandwidth-hz", "1e308", "--set", "k_step=1000"],
        ["antenna-sweep", "--bandwidth-hz", "1e308", "--set", "k_step=1000"],
        ["hwbudget", "--fom-j-per-cs", "1e300", "--enob-a", "1000"],
        ["linkbudget", "--entry-a", "1e308", "--entry-b", "1e308"],
        # M*K*blocks is an integer past the double range
        ["estload", "--m-antennas", "1e200", "--k-users", "1e200"],
    ],
)
def test_non_finite_result_is_runtime_failure(args, tmp_path, monkeypatch, capsys):
    code = run_cli(args + ["--output", "out.txt"], tmp_path, monkeypatch)
    err = capsys.readouterr().err
    assert code == 4
    assert "runtime failure" in err
    assert NON_FINITE_QUANTITY[args[0]] in err
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_adc_power_underflow_is_runtime_failure(tmp_path, monkeypatch, capsys):
    # both converter powers underflow to 0 W, so the ratio has no value
    args = ["hwbudget", "--fom-j-per-cs", "1e-320", "--sample-rate-hz", "1e-10",
            "--enob-a", "1", "--enob-b", "1", "--output", "out.json"]
    assert run_cli(args, tmp_path, monkeypatch) == 4
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: adc_power_ratio_a_over_b: ")
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_invalid_rate_arithmetic_is_runtime_failure(tmp_path, monkeypatch, capsys):
    # finite SNRs, but M*gamma*rho_dl/K overflows: an infinite SINR and SE, and a nan SE
    # (1 - 1) * inf at K = tau_c; none warns, on the plain path (40 rows) or numpy's (40,000)
    for k_step in ("1000", "1"):
        args = ["capacity", "--m-antennas", "1e300", "--dl-ul-power-ratio", "1e10",
                "--set", f"k_step={k_step}", "--output", "out.csv"]
        assert run_cli(args, tmp_path, monkeypatch) == 4
        assert capsys.readouterr().err == (
            "runtime failure: se_per_ue in data row 1 is inf, not a finite number\n"
        )
        assert list(tmp_path.iterdir()) == []



# ---------------------------------------------------------------------------
# JSON writer
# ---------------------------------------------------------------------------

# any code point, lone surrogates included, and the characters json escapes by name
_JSON_STRINGS = st.text(st.characters(exclude_categories=()), max_size=8) | st.sampled_from(
    ['"', "\\", "\n\r\t\b\f", "\x00\x1f\x7f", "caf\u00e9", "\U0001d11e", "\ud800", "x\udcff"]
)
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**64, 2**256)
    | st.integers(-(2**256), -(2**64))
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e16, 1.7976931348623157e308])
    | _JSON_STRINGS
)
_JSON_DOCUMENTS = st.recursive(
    _JSON_LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_JSON_STRINGS, children,
                                                                       max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, derandomize=True)
@given(_JSON_DOCUMENTS)
def test_json_text_matches_json_dumps(document):
    expected = json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert _json_text(document) == expected


def test_golden_json_round_trips_through_the_writer():
    paths = sorted(GOLDEN.glob("*.json"))  # outputs and manifests
    assert len(paths) >= 20
    for path in paths:
        text = path.read_text()
        assert _json_text(json.loads(text)) == text, path.name


@pytest.mark.parametrize(
    "document, message",
    [
        ({"a": {"b": [1.0, math.nan]}}, "a.b[1] is nan"),
        ([0, {"x": -math.inf}], "[1].x is -inf"),
        # the first in insertion order, though keys are written sorted
        ({"b": [2.0, math.inf], "a": math.nan}, "b[1] is inf"),
    ],
)
def test_json_text_names_a_non_finite_value(document, message):
    with pytest.raises(ValueError) as raised:
        _json_text(document)
    assert str(raised.value) == f"{message}, not a finite number"


# the ints that size a squint array or a Monte-Carlo run get only the values that their
# schema rejects cheaply, so the sweep stays fast; mobility's are swept, as its least gain
# is closed-form and n_draws is only echoed
_HELD_SIZES = {"rows", "cols", "n_points"}
_HELD_MONTE_CARLO_SIZES = {"m_antennas", "n_draws", "n_pairs"}
# every numeric schema rejects these four; 0 and -0 lie below every held size's minimum too
_NON_FINITE_TEXTS = ("nan", "inf", "-inf", "1e309")
_ZERO_TEXTS = ("-0", "1e-400")
_BAD_BOOLS = ("yes", "1", "on", "tru", "")


def _beside(bound, way: int, integer: bool):
    """The next int (integer) or double after bound: below it for way -1, above for +1."""
    return bound + way if integer else math.nextafter(bound, way * math.inf)


def _extreme_value_cases():
    """(experiment, args, rejected) setting one parameter to a bound, a neighbour of one or an
    extreme; rejected is True for a value outside the parameter's schema."""
    for exp in EXPERIMENTS.values():
        monte_carlo = exp.name in ("hardening", "favorable")
        for param in exp.params:
            if param.kind == "bool":
                rejects, texts = _BAD_BOOLS, ()
            elif param.kind == "choice":
                choice = param.choices[0]
                rejects, texts = ("", choice.upper(), choice[:-1], choice + "x"), ()
            else:
                held = param.name in _HELD_SIZES or (
                    monte_carlo and param.name in _HELD_MONTE_CARLO_SIZES
                )
                integer = param.kind.startswith("int")
                if integer:
                    extremes = {1, 2, 2**53 + 1, 2**1024}
                else:
                    extremes = {5e-324, 1e-300, 1e300, 1.7e308}
                bounds = [b for b in (param.min_value, param.max_value) if b is not None]
                past = {_beside(b, way, integer)
                        for b, way in ((param.min_value, -1), (param.max_value, 1))
                        if b is not None}
                near = {_beside(b, way, integer) for b in bounds for way in (-1, 1)}
                rejects = [repr(value) for value in sorted(past)] + list(_NON_FINITE_TEXTS)
                if held:
                    rejects += _ZERO_TEXTS
                    texts = ()
                else:
                    values = sorted(set(bounds) | extremes | near)
                    texts = [repr(value) for value in values] + list(_ZERO_TEXTS)
            for text in rejects:
                yield exp, ["--set", f"{param.name}={text}"], True
            for text in texts:
                yield exp, ["--set", f"{param.name}={text}"], False


def _output_key_names(exp, args, directory) -> set:
    """Every key and CSV column of the experiment's output and manifest at args."""
    out = directory / f"keys.{exp.output_ext}"
    assert main([exp.name, *args, "--output", str(out)]) == 0
    names = set()

    def walk(node):
        if isinstance(node, dict):
            names.update(node)
            node = list(node.values())
        for item in node if isinstance(node, list) else ():
            walk(item)

    walk(json.loads((directory / f"{out.name}.manifest.json").read_text()))
    text = out.read_text()
    if exp.output_ext == "csv":
        names.update(text.split("\n", 1)[0].split(","))
    else:
        walk(json.loads(text))
    return names


def test_extreme_values_exit_cleanly(tmp_path, capsys):
    """Exit 0 with finite output, or exit 3/4 with one stderr line naming a field or key;
    a value outside the schema exits 3 naming its parameter."""
    known = {}
    defects = []
    for i, (exp, args, rejected) in enumerate(_extreme_value_cases()):
        field, _, text = args[-1].partition("=")
        if rejected:  # resolved alone first, so a size let past its cap is not run
            try:
                resolve({"experiment": exp.name, field: text})
            except ValidationError:
                pass
            else:
                defects.append(f"{exp.name} {args[-1]}: accepted")
                continue
        case_dir = tmp_path / str(i)
        out = case_dir / f"out.{exp.output_ext}"
        code = main([exp.name, *args, "--output", str(out)])
        err = capsys.readouterr().err
        case = f"{exp.name} {args[-1]}: exit {code}, {err!r}"
        if rejected and (code != 3 or not err.startswith(f"invalid configuration: {field}: ")):
            defects.append(case + ", not rejected as invalid input")
            continue
        if code == 0:
            if re.search(r"\b(nan|inf|NaN|Infinity)\b", out.read_text()):
                defects.append(case + ", non-finite output")
            continue
        if code not in (3, 4) or len(err.splitlines()) != 1 or case_dir.exists():
            defects.append(case)
            continue
        if exp.name not in known:
            fields = {param.name for param in exp.params}
            known[exp.name] = fields | _output_key_names(exp, args[:-2], tmp_path / exp.name)
        if not known[exp.name] & set(re.findall(r"[A-Za-z_]\w*", err)):
            defects.append(case + ", names no field or output key")
    assert not defects, "\n".join(defects)


def test_squint_band_below_zero_hz_is_validation_error(tmp_path, monkeypatch, capsys):
    code = run_cli(
        ["squint", "--set", "center_frequency_hz=60e9", "--set", "span_hz=120e9"],
        tmp_path,
        monkeypatch,
    )
    assert code == 3
    assert "span_hz" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_squint_band_too_narrow_to_sample_names_the_span(tmp_path, monkeypatch, capsys):
    # 201 points within 1e-6 Hz of 60 GHz round onto a few distinct doubles
    code = run_cli(["squint", "--rows", "4", "--cols", "4", "--span-hz", "1e-6"],
                   tmp_path, monkeypatch)
    assert code == 3
    assert capsys.readouterr().err.startswith("invalid configuration: span_hz: ")
    assert list(tmp_path.iterdir()) == []


def test_other_squint_sweep_failures_stay_runtime_failures(tmp_path, monkeypatch, capsys):
    # only the narrow-span check is invalid input; a channel without power is not the user's
    monkeypatch.setattr(
        "mimolab.scenarios.sixpath_channel", lambda seed: (np.zeros(1), np.zeros((1, 2)))
    )
    code = run_cli(["squint", "--rows", "4", "--cols", "4"], tmp_path, monkeypatch)
    assert code == 4
    assert capsys.readouterr().err == "runtime failure: total path power must be positive\n"
    assert list(tmp_path.iterdir()) == []


def _cli_env(unbuffered=False):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _run_into_closed_pipe(args, unbuffered, cwd):
    """The CLI in a subprocess whose stdout is a pipe with its read end closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "mimolab.cli", *args], stdout=write_end,
            stderr=subprocess.PIPE, text=True, cwd=cwd, env=_cli_env(unbuffered),
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_four_and_keeps_the_files(unbuffered, tmp_path, monkeypatch):
    # writing to stdout fails after both files are out
    proc = _run_into_closed_pipe(["fresnel", "--output", "out.json"], unbuffered, tmp_path)
    assert proc.returncode == 4
    # one line naming stdout, and no "Exception ignored" from the flush at interpreter exit
    assert proc.stderr == "runtime failure: cannot write stdout: Broken pipe\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "out.json.manifest.json"]
    monkeypatch.chdir(tmp_path)
    _assert_run_matches_golden("out.json", "fresnel.json")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [["list"], ["--help"], []], ids=["list", "help", "bare"])
def test_closed_stdout_listings_exit_four_and_write_nothing(args, unbuffered, tmp_path):
    proc = _run_into_closed_pipe(args, unbuffered, tmp_path)
    assert proc.returncode == 4
    assert proc.stderr == "runtime failure: cannot write stdout: Broken pipe\n"
    assert list(tmp_path.iterdir()) == []


def test_no_stdout_at_all_still_writes_the_files(tmp_path, monkeypatch):
    # fd 1 closed before the interpreter starts, so sys.stdout is None
    proc = subprocess.run(
        ["sh", "-c", '"$0" -m mimolab.cli fresnel --output out.json >&-', sys.executable],
        stderr=subprocess.PIPE, text=True, cwd=tmp_path, env=_cli_env(),
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    monkeypatch.chdir(tmp_path)
    _assert_run_matches_golden("out.json", "fresnel.json")


def test_integer_seed_beyond_float_precision_is_exact(tmp_path, monkeypatch):
    seed = 2**53 + 1
    code = run_cli(["fresnel", "--seed", str(seed), "--output", "f.json"], tmp_path, monkeypatch)
    assert code == 0
    manifest = json.loads((tmp_path / "f.json.manifest.json").read_text())
    assert manifest["seed"] == seed


def test_integer_accepts_exponent_notation(tmp_path, monkeypatch):
    code = run_cli(
        ["hardening", "--n-draws", "1e3", "--seed", "1e1", "--output", "h.json"],
        tmp_path,
        monkeypatch,
    )
    assert code == 0
    manifest = json.loads((tmp_path / "h.json.manifest.json").read_text())
    assert manifest["parameters"]["n_draws"] == 1000
    assert manifest["seed"] == 10


# ---------------------------------------------------------------------------
# usage and listing
# ---------------------------------------------------------------------------

def test_no_args_prints_usage_and_succeeds(tmp_path, monkeypatch, capsys):
    assert run_cli([], tmp_path, monkeypatch) == 0
    assert "usage:" in capsys.readouterr().out


def test_list_includes_every_default(tmp_path, monkeypatch, capsys):
    assert run_cli(["list"], tmp_path, monkeypatch) == 0
    text = capsys.readouterr().out
    for exp in EXPERIMENTS.values():
        assert exp.name in text
        for param in exp.params:
            assert param.name in text
            assert f"default {param.default}" in text


@pytest.mark.parametrize("args", [["--list", "--help"], ["list", "-h"], ["--help", "--list"]])
def test_help_beside_a_listing_prints_usage(args, tmp_path, monkeypatch, capsys):
    # help stops at its own token, whatever else the line holds
    assert run_cli(args, tmp_path, monkeypatch) == 0
    assert capsys.readouterr().out == (GOLDEN / "usage.txt").read_text()


def test_listing_mentions_bundled_configs():
    text = list_experiments()
    for name in BUNDLED_CONFIGS:
        assert name in text


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------

def test_fresnel_flag_passthrough(tmp_path, monkeypatch, capsys):
    code = run_cli(
        ["fresnel", "--freq-ghz", "38", "--d1", "50", "--d2", "50", "--output", "f.json"],
        tmp_path,
        monkeypatch,
    )
    assert code == 0
    assert "0.444 m" in capsys.readouterr().out
    record = json.loads((tmp_path / "f.json").read_text())
    assert record["radius_m"] == pytest.approx(0.4441, abs=5e-4)


def test_experiment_flag_selects_experiment(tmp_path, monkeypatch):
    code = run_cli(["--experiment", "fresnel", "--output", "f.json"], tmp_path, monkeypatch)
    assert code == 0
    assert (tmp_path / "f.json").exists()


def test_fresnel_at_3ghz(tmp_path, monkeypatch, capsys):
    code = run_cli(["fresnel", "--set", "freq_ghz=3", "--output", "f.json"], tmp_path, monkeypatch)
    assert code == 0
    assert "1.581 m" in capsys.readouterr().out


def test_manifest_echoes_parameters_seed_and_version(tmp_path, monkeypatch):
    code = run_cli(
        ["--config", "centralpark_60ghz", "--set", "k_step=100", "--seed", "7",
         "--output", "cp.csv"],
        tmp_path,
        monkeypatch,
    )
    assert code == 0
    manifest = json.loads((tmp_path / "cp.csv.manifest.json").read_text())
    assert manifest["artifact_version"] == __version__
    assert manifest["experiment"] == "capacity"
    assert manifest["seed"] == 7
    assert manifest["parameters"]["k_step"] == 100
    assert manifest["parameters"]["snr_scaling"] == "bandwidth"
    assert manifest["results"]["snr_scaling"] == "bandwidth"
    assert manifest["results"]["ul_pilot_snr_effective"] == pytest.approx(5.0)
    assert manifest["results"]["optimum"]["k_users"] > 1


@pytest.mark.parametrize(
    "snr, reference_hz, bandwidth_hz, effective",
    [("1e200", "1e200", "1e300", 1e100), ("1e-200", "1e-200", "1e-300", 1e-100)],
    ids=["product-overflows", "product-underflows"],
)
def test_bandwidth_scaled_snr_in_range_runs(snr, reference_hz, bandwidth_hz, effective,
                                            tmp_path, monkeypatch):
    # ul_pilot_snr * reference_bandwidth_hz leaves the double range, the scaled SNR does not
    args = ["capacity", "--snr-scaling", "bandwidth", "--ul-pilot-snr", snr,
            "--reference-bandwidth-hz", reference_hz, "--bandwidth-hz", bandwidth_hz,
            "--k-step", "1000", "--output", "cp.csv"]
    assert run_cli(args, tmp_path, monkeypatch) == 0
    manifest = json.loads((tmp_path / "cp.csv.manifest.json").read_text())
    assert manifest["results"]["ul_pilot_snr_effective"] == pytest.approx(effective, rel=1e-15)


# the scaled uplink SNR 1e100: sum rates near 1e300 bit/s
_HUGE_RATES = ["--snr-scaling", "bandwidth", "--ul-pilot-snr", "1e200",
               "--reference-bandwidth-hz", "1e200", "--bandwidth-hz", "1e300", "--k-step", "1000"]


@pytest.mark.parametrize(
    "args, line",
    [
        (["capacity", *_HUGE_RATES],
         "optimum: K=15001, pilot fraction 0.3750, sum rate 2.7549e+292 Tbit/s"),
        (["antenna-sweep", *_HUGE_RATES], "M=100000: best sum rate 2.755e+295 Gbit/s at K=15001"),
        (["--config", "centralpark_60ghz"],
         "optimum: K=883, pilot fraction 0.4415, sum rate 3.3697 Tbit/s"),
        (["antenna-sweep"], "M=100000: best sum rate 1377.875 Gbit/s at K=14641"),
        (["fresnel", "--d1", "1e308", "--d2", "1e308", "--freq-ghz", "1e-9"],
         "fresnel radius = 1.224e+158 m"),
        (["linkbudget", "--entry-a", "1e300"], "link budget total 1.00e+300 dB over 2 entries"),
        (["linkbudget", "--entry-a", "-1e300"], "link budget total -1.00e+300 dB over 2 entries"),
        (["hwbudget", "--pa-total-radiated-w", "1e300", "--pa-pae", "0.001"],
         "PA DC total 1.000e+303 W for 64 antennas"),
        (["linkbudget"], "link budget total -13.01 dB over 1 entries"),
    ],
    ids=["capacity-huge", "antenna-sweep-huge", "capacity-bundled", "antenna-sweep-default",
         "fresnel-huge", "linkbudget-huge", "linkbudget-huge-loss", "hwbudget-huge",
         "linkbudget-default"],
)
def test_rate_lines_stay_short(args, line, tmp_path, monkeypatch, capsys):
    # from magnitude 1e9 of the printed unit up a number is scientific (fixed point printed
    # 150-310 digits here); ordinary numbers keep their fixed-point lines
    assert run_cli(args, tmp_path, monkeypatch) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_set_overrides_config_value(tmp_path, monkeypatch):
    code = run_cli(
        ["--config", "estload_paper", "--set", "m_antennas=400", "--output", "e.json"],
        tmp_path,
        monkeypatch,
    )
    assert code == 0
    record = json.loads((tmp_path / "e.json").read_text())
    assert record["m_antennas"] == 400
    assert record["n_coefficients"] == 688_000


def test_linkbudget_entries(tmp_path, monkeypatch):
    code = run_cli(
        ["linkbudget", "--set", "entry_window_loss=-40", "--set", "entry_foliage=-10",
         "--output", "lb.json"],
        tmp_path,
        monkeypatch,
    )
    assert code == 0
    ledger = json.loads((tmp_path / "lb.json").read_text())
    labels = [e["label"] for e in ledger["entries"]]
    assert labels == ["wider_noise_bandwidth", "window_loss", "foliage"]
    assert ledger["total_db"] == pytest.approx(-10 * 1.3010299956639813 - 50, rel=1e-9)
    # no widening and no entries: an empty ledger
    code = run_cli(["linkbudget", "--bandwidth-ratio", "1", "--output", "empty.json"],
                   tmp_path, monkeypatch)
    assert code == 0
    assert json.loads((tmp_path / "empty.json").read_text()) == {"entries": [], "total_db": 0.0}


def test_hardening_record(tmp_path, monkeypatch):
    code = run_cli(
        ["hardening", "--set", "m_antennas=64", "--set", "n_draws=500", "--output", "h.json"],
        tmp_path,
        monkeypatch,
    )
    assert code == 0
    record = json.loads((tmp_path / "h.json").read_text())
    assert set(record) == {"model", "m_antennas", "n_draws", "seed", "metric_name", "value"}
    assert record["metric_name"] == "hardening"
    assert record["value"] == pytest.approx(1 / 8, rel=0.3)


def test_favorable_record(tmp_path, monkeypatch):
    code = run_cli(
        ["favorable", "--set", "m_antennas=64", "--set", "n_pairs=200", "--output", "f.json"],
        tmp_path,
        monkeypatch,
    )
    assert code == 0
    record = json.loads((tmp_path / "f.json").read_text())
    assert record["metric_name"] == "favorable_propagation"
    assert 0.0 < record["value"] < 1.0


def test_favorable_single_antenna_is_exactly_one(tmp_path, monkeypatch):
    # |h_i h_j| / (|h_i| |h_j|) of two scalars is 1; computed from the draws, it can round off 1
    for seed in range(32):
        code = run_cli(["favorable", "--m-antennas", "1", "--n-pairs", "1", "--seed", str(seed),
                        "--output", "f.json"], tmp_path, monkeypatch)
        assert code == 0
        assert json.loads((tmp_path / "f.json").read_text())["value"] == 1.0


def test_antenna_sweep_run(tmp_path, monkeypatch):
    code = run_cli(
        ["antenna-sweep", "--set", "m_grid=100,1000", "--set", "k_step=200",
         "--output", "sweep.csv"],
        tmp_path,
        monkeypatch,
    )
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert lines[0].startswith("m_antennas,")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "100"
    assert lines[2].split(",")[0] == "1000"


@pytest.mark.parametrize("experiment", ["capacity", "antenna-sweep"])
def test_fine_means_k_step_one_when_k_step_is_zero(experiment, tmp_path, monkeypatch):
    def run(name, *args):
        assert run_cli([experiment, "--coherence-time-s", "0.01", *args, "--output", name],
                       tmp_path, monkeypatch) == 0
        return (tmp_path / name).read_bytes()

    # tau_c = 0.01 s * 400 kHz = 4000, so k_step 0 steps by 4
    fine = run("fine.csv", "--fine", "true")
    assert fine == run("step1.csv", "--k-step", "1") != run("auto.csv")
    fine7 = run("fine7.csv", "--fine", "true", "--k-step", "7")
    assert fine7 == run("step7.csv", "--k-step", "7")
    if experiment == "capacity":
        rows = fine7.decode().splitlines()[1:]
        assert [int(row.split(",")[1]) for row in rows] == list(range(1, 4001, 7))


@pytest.mark.parametrize("big", [2**63 + 1, 2**64 + 1], ids=["uint64", "beyond-uint64"])
def test_big_m_is_written_digit_for_digit(big, tmp_path, monkeypatch):
    def m_cells(name):
        header, *rows = (tmp_path / name).read_text().splitlines()
        assert header.startswith("m_antennas,")
        return [row.split(",")[0] for row in rows]

    # 40 rows take the plain path, which keeps M a Python int; 10,000 rows take numpy, which
    # holds the first in uint64 (a float beside an int64), the second in an object column
    for k_step, rows in (("1000", 40), ("4", 10_000)):
        args = ["capacity", "--m-antennas", str(big), "--k-step", k_step, "--output", "c.csv"]
        assert run_cli(args, tmp_path, monkeypatch) == 0
        cells = m_cells("c.csv")
        assert len(cells) == rows and set(cells) == {str(big)}
        optimum = json.loads((tmp_path / "c.csv.manifest.json").read_text())["results"]["optimum"]
        assert type(optimum["m_antennas"]) is int and optimum["m_antennas"] == big
        # 2 x 40 and 2 x 10,000 rate evaluations
        args = ["antenna-sweep", "--m-grid", f"100,{big}", "--k-step", k_step, "--output", "s.csv"]
        assert run_cli(args, tmp_path, monkeypatch) == 0
        assert m_cells("s.csv") == ["100", str(big)]


def _squint_rows():
    p = bundled("fig4_32x32", n_points=5, span_hz=400e6)
    array = PlanarArray.half_wavelength_at(p["rows"], p["cols"], p["center_frequency_hz"])
    freqs = sweep_frequencies(p["center_frequency_hz"], p["span_hz"], p["n_points"])
    effs = squint_sweep(array, sixpath_channel(42), p["center_frequency_hz"], freqs)
    return [list(row) for row in zip(freqs.tolist(), effs.tolist())]


def _capacity_rows(name, k_step):
    sc = bundled(name)
    # the evaluator the CLI takes for this grid, so that every bit must match
    table = rate_columns(k_range(sc["tau_c"], k_step=k_step), **sc)
    return [list(row) for row in zip(*map(cli._cells, table.values()))]


@pytest.mark.parametrize(
    "args, expected_rows",
    [
        (["--config", "fig4_32x32", "--n-points", "5", "--span-hz", "400e6"], _squint_rows),
        (["--config", "centralpark_3ghz", "--k-step", "1000"],
         lambda: _capacity_rows("centralpark_3ghz", 1000)),
        # the bandwidth-scaled uplink SNR; the centralpark_60ghz golden pins its value
        (["--config", "centralpark_60ghz", "--k-step", "100"],
         lambda: _capacity_rows("centralpark_60ghz", 100)),
    ],
    ids=["squint", "capacity", "centralpark_60ghz"],
)
def test_csv_values_round_trip_exactly(args, expected_rows, tmp_path, monkeypatch):
    assert run_cli(args + ["--output", "out.csv"], tmp_path, monkeypatch) == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    # ints stay ints and every float parses back to the very double computed
    rows = [[int(x) if x.isdigit() else float(x) for x in line.split(",")] for line in lines[1:]]
    expected = expected_rows()
    assert rows == expected
    assert [[type(x) for x in row] for row in rows] == [[type(x) for x in row] for row in expected]


CSV_SPECIALS = [-0.0, 5e-324, 1e16, 1e-5, 1.7976931348623157e308, 1 / 3, -2.5, 7.0]
B = _CSV_BLOCK_ROWS


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 1])
def test_csv_blocks_match_row_repr(n):
    ints = np.arange(n, dtype=np.int64) * 7 - 3
    floats = np.resize(CSV_SPECIALS, n)
    table = {"a": ints, "b": floats, "c": -ints, "d": np.arange(n) * 0.1 - 2.0}
    rows = zip(*(column.tolist() for column in table.values()))
    expected = "a,b,c,d\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
    assert "".join(_csv_blocks(table)) == expected
    # list columns, as the plain rate evaluator returns, and a mix of both kinds
    lists = {name: column.tolist() for name, column in table.items()}
    assert "".join(_csv_blocks(lists)) == expected
    assert "".join(_csv_blocks({**lists, "b": floats})) == expected


def _nan_at(row):
    def table_with_nan(*args, **kwargs):
        table = rate_table(*args, **kwargs)
        table["se_per_ue"][row - 1] = np.nan
        return table

    return table_with_nan


def test_non_finite_cell_in_a_list_column_writes_nothing(tmp_path, monkeypatch, capsys):
    def lists_with_inf(*args, **kwargs):
        table = rate_lists(*args, **kwargs)
        table["rate_per_ue_bps"][2] = -math.inf
        return table

    # 40 user counts: the plain evaluator's list columns
    monkeypatch.setattr("mimolab.capacity.rate_lists", lists_with_inf)
    code = run_cli(["capacity", "--set", "k_step=1000", "--output", "out/cap.csv"],
                   tmp_path, monkeypatch)
    assert code == 4
    assert capsys.readouterr().err == (
        "runtime failure: rate_per_ue_bps in data row 3 is -inf, not a finite number\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_non_finite_cell_in_a_later_block_writes_nothing(tmp_path, monkeypatch, capsys):
    row = _CSV_BLOCK_ROWS + 2
    monkeypatch.setattr("mimolab.capacity.rate_table", _nan_at(row))
    code = run_cli(["capacity", "--set", "k_step=1", "--output", "out/cap.csv"],
                   tmp_path, monkeypatch)
    err = capsys.readouterr().err
    assert code == 4
    assert err == f"runtime failure: se_per_ue in data row {row} is nan, not a finite number\n"
    assert list(tmp_path.iterdir()) == []


def test_out_of_memory_while_streaming_leaves_no_file(tmp_path, monkeypatch, capsys):
    message = "Unable to allocate 312. KiB for an array with shape (40000,) and data type float64"

    def exhausted_after_a_block(table):
        blocks = _csv_blocks(table)
        yield next(blocks)
        yield next(blocks)
        raise MemoryError(message)  # numpy's message names the allocation

    monkeypatch.setattr("mimolab.cli._csv_blocks", exhausted_after_a_block)
    code = run_cli(["capacity", "--set", "k_step=1", "--output", "cap.csv"], tmp_path, monkeypatch)
    assert code == 4
    assert capsys.readouterr().err == f"runtime failure: out of memory: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_csv_memory_grows_little_per_row(tmp_path, monkeypatch):
    # centralpark_3ghz at k_step 4 and 1 writes 10,000 and 40,000 rows, both from numpy
    # columns; the rate columns take 48 B/row, a writer holding the whole text about 500 B/row
    base = ["--config", "centralpark_3ghz", "--set", "fine=false", "--output", "cap.csv"]
    # imports numpy, which a grid of at most capacity.PLAIN_MAX_EVALUATIONS counts would not
    assert run_cli(base + ["--set", "k_step=4"], tmp_path, monkeypatch) == 0
    peaks = []
    for k_step in (4, 1):
        tracemalloc.start()
        try:
            assert run_cli(base + ["--set", f"k_step={k_step}"], tmp_path, monkeypatch) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 30_000 < 128


def test_squint_32_center_value_from_bundled_config(tmp_path, monkeypatch):
    # narrow three-point run; the middle row sits exactly on the center frequency
    code = run_cli(
        ["--config", "fig4_32x32", "--set", "n_points=3", "--set", "span_hz=400e6",
         "--output", "sq.csv"],
        tmp_path,
        monkeypatch,
    )
    assert code == 0
    rows = (tmp_path / "sq.csv").read_text().strip().split("\n")[1:]
    freq, eff = rows[1].split(",")
    assert float(freq) == 60e9
    assert 0.85 <= float(eff) <= 0.95


@settings(max_examples=300, derandomize=True)
@given(center=st.floats(1.0, 1e15), n_points=st.integers(2, 1001),
       log_span=st.floats(-16.0, math.log10(2.0), exclude_max=True))
def test_squint_center_index_matches_argmin(center, n_points, log_span):
    # relative spans from a few ulp of the center up to just under twice it
    try:
        freqs = sweep_frequencies(center, center * 10.0**log_span, n_points)
    except ValueError:
        assume(False)
    assert cli._nearest_index(freqs, center) == int(abs(freqs - center).argmin())


def test_seed_changes_squint_output(tmp_path, monkeypatch):
    base = ["squint", "--set", "rows=8", "--set", "cols=8", "--set", "n_points=5"]
    assert run_cli(base + ["--output", "a.csv"], tmp_path, monkeypatch) == 0
    assert run_cli(base + ["--output", "b.csv", "--seed", "43"], tmp_path, monkeypatch) == 0
    assert (tmp_path / "a.csv").read_text() != (tmp_path / "b.csv").read_text()


def test_seed_keeps_its_low_64_bits(tmp_path, monkeypatch):
    base = ["squint", "--rows", "4", "--cols", "4", "--n-points", "8"]
    pairs = [("-1", str(2**64 - 1)), (str(2**64 + 7), "7")]
    texts = []
    for pair in pairs:
        for seed in pair:
            assert run_cli(base + ["--seed", seed, "--output", f"{seed}.csv"], tmp_path,
                           monkeypatch) == 0
        first, second = ((tmp_path / f"{seed}.csv").read_bytes() for seed in pair)
        assert first == second, pair
        texts.append(first)
    assert texts[0] != texts[1]


def test_rerun_is_byte_identical(tmp_path, monkeypatch):
    args = ["--config", "estload_paper", "--output", "out/e.json"]
    assert run_cli(args, tmp_path, monkeypatch) == 0
    first = (tmp_path / "out/e.json").read_bytes()
    first_manifest = (tmp_path / "out/e.json.manifest.json").read_bytes()
    assert run_cli(args, tmp_path, monkeypatch) == 0
    assert (tmp_path / "out/e.json").read_bytes() == first
    assert (tmp_path / "out/e.json.manifest.json").read_bytes() == first_manifest


def test_no_temp_files_left_behind(tmp_path, monkeypatch):
    assert run_cli(["fresnel", "--output", "f.json"], tmp_path, monkeypatch) == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"f.json", "f.json.manifest.json"}


@pytest.mark.parametrize(
    "blocked, make, previous",
    [("f.json", os.mkdir, None),
     ("f.json.manifest.json", os.mkdir, None),
     ("f.json", os.mkfifo, None),
     ("f.json.manifest.json", os.mkfifo, None),
     ("f.json.manifest.json", os.mkdir, b"previous output\n")],
    ids=["f.json", "f.json.manifest.json", "fifo-f.json", "fifo-f.json.manifest.json",
         "f.json.manifest.json-beside-previous-output"],
)
def test_unwritable_output_or_manifest_writes_neither(
    blocked, make, previous, tmp_path, monkeypatch, capsys
):
    make(tmp_path / blocked)
    kind = stat.S_IFMT((tmp_path / blocked).stat().st_mode)
    if previous is not None:
        (tmp_path / "f.json").write_bytes(previous)
    assert run_cli(["fresnel", "--output", "f.json"], tmp_path, monkeypatch) == 4
    err = capsys.readouterr().err
    assert err == f"runtime failure: cannot write {blocked!r}: not a regular file\n"
    kept = {blocked} if previous is None else {blocked, "f.json"}
    assert {p.name for p in tmp_path.iterdir()} == kept  # no temp, no new file
    assert stat.S_IFMT((tmp_path / blocked).stat().st_mode) == kind  # still a directory or FIFO
    if make is os.mkdir:
        assert list((tmp_path / blocked).iterdir()) == []
    if previous is not None:  # refused before any temp, so nothing was renamed over it
        assert (tmp_path / "f.json").read_bytes() == previous


def test_outputs_are_created_with_the_umask_mode(tmp_path, monkeypatch):
    umask = os.umask(0o022)
    try:
        assert run_cli(["fresnel", "--output", "f.json"], tmp_path, monkeypatch) == 0
    finally:
        os.umask(umask)
    for name in ("f.json", "f.json.manifest.json"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~0o022


def test_config_file_from_path(tmp_path, monkeypatch):
    cfg = tmp_path / "my.ini"
    cfg.write_text("experiment = fresnel\nfreq_ghz = 38\nd1 = 50\nd2 = 50\n")
    code = run_cli(["--config", str(cfg), "--output", "f.json"], tmp_path, monkeypatch)
    assert code == 0


@pytest.mark.parametrize(
    "args",
    [["--set", "m_antennas=400", "--config", "estload_paper"],
     ["--config", "estload_paper", "--set", "m_antennas=400"],
     ["--m-antennas", "400", "--set", "config=estload_paper"]],
    ids=["set-first", "config-first", "config-through-set"],
)
def test_command_line_keys_override_the_config_file(args, tmp_path, monkeypatch):
    assert run_cli([*args, "--output", "e.json"], tmp_path, monkeypatch) == 0
    record = json.loads((tmp_path / "e.json").read_text())
    assert (record["m_antennas"], record["k_users"]) == (400, 20)  # 200 and 20 in the file


def test_config_through_set_writes_the_same_bytes(tmp_path, monkeypatch):
    for flags, directory in ((["--config", "estload_paper"], tmp_path / "a"),
                             (["--set", "config=estload_paper"], tmp_path / "b")):
        directory.mkdir()
        assert run_cli([*flags, "--output", "e.json"], directory, monkeypatch) == 0
    for name in ("e.json", "e.json.manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_directory_does_not_hide_the_bundled_config(tmp_path, monkeypatch):
    # scripts/run_all_bundled.py leaves a directory of each config's name where it runs
    (tmp_path / "estload_paper").mkdir()
    assert run_cli(["--config", "estload_paper", "--output", "e.json"], tmp_path, monkeypatch) == 0
    assert (tmp_path / "e.json").read_bytes() == (GOLDEN / "estload_paper.json").read_bytes()


def test_positional_experiment_beats_the_config_file(tmp_path, monkeypatch, capsys):
    code = run_cli(["fresnel", "--config", "estload_paper"], tmp_path, monkeypatch)
    assert code == 3
    assert capsys.readouterr().err == (
        "invalid configuration: m_antennas: unknown parameter for experiment 'fresnel'\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_config_with_byte_order_mark_reads_like_the_plain_file(tmp_path, monkeypatch):
    plain = Path(cli.__file__).parent / "configs" / "estload_paper.ini"
    (tmp_path / "bom.ini").write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for source, directory in (("../bom.ini", tmp_path / "a"), (str(plain), tmp_path / "b")):
        directory.mkdir()
        assert run_cli(["--config", source, "--output", "e.json"], directory, monkeypatch) == 0
    for name in ("e.json", "e.json.manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_bundled_configs_all_load():
    for name in BUNDLED_CONFIGS:
        # resolve raises unless the file names an experiment and only keys of its schema
        assert resolve({"config": f"{name}.ini"}) == resolve({"config": name})


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mimolab.cli", "--list"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0
    assert "squint" in proc.stdout


def test_closed_form_runs_and_rejects_never_import_numpy(tmp_path, monkeypatch):
    assert numpy_free.check(tmp_path) == []
    for i, (args, code, golden) in enumerate(numpy_free.CASES):
        if code == 0 and golden and not golden.endswith(".txt"):
            # the manifest echoes the output path, in json's ASCII escapes
            monkeypatch.chdir(tmp_path / str(i))
            _assert_run_matches_golden(args[args.index("--output") + 1], golden)


# runs every bundled config and the Monte-Carlo and antenna-sweep defaults through main
_NO_DATACLASSES_SCRIPT = """
import contextlib, io, json, sys
from mimolab.cli import BUNDLED_CONFIGS, main

runs = [["--config", name] for name in BUNDLED_CONFIGS]
runs += [["hardening"], ["favorable"], ["antenna-sweep"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(args) for args in runs]
print(json.dumps([codes, "dataclasses" in sys.modules]))
"""


# numpy is imported before the run: numpy 1.x imports numpy.random with numpy itself
_SQUINT_IMPORTS_SCRIPT = """
import contextlib, io, json, sys
import numpy, mimolab.cli

before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = mimolab.cli.main(["--config", "fig4_32x32", "--output", "squint.csv"])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""


def test_squint_run_loads_no_numpy_random_or_hashlib(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _SQUINT_IMPORTS_SCRIPT],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    assert "mimolab.scenarios" in loaded  # the run itself was observed
    assert [name for name in loaded
            if name in ("hashlib", "_hashlib") or name.split(".")[:2] == ["numpy", "random"]] == []


def test_experiments_never_import_dataclasses(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _NO_DATACLASSES_SCRIPT],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert codes == [0] * (len(BUNDLED_CONFIGS) + 3)
    assert not loaded

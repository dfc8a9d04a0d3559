import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from mimolab import __version__
from mimolab.beamforming import squint_sweep
from mimolab.capacity import rate_table
from mimolab.cli import (
    _CSV_BLOCK_ROWS,
    BUNDLED_CONFIGS,
    EXPERIMENTS,
    _csv_blocks,
    bundled_config_text,
    list_experiments,
    main,
    parse_config_text,
)
from mimolab.coherence import k_range
from mimolab.geometry import PlanarArray
from mimolab.scenarios import sixpath_channel

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
    assert "warp-drive" in captured.err
    assert "available experiments" in captured.err


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
    # k_min beyond tau_c only surfaces once the scenario is assembled
    code = run_cli(
        ["capacity", "--set", "k_min=50000", "--output", "cap.csv"], tmp_path, monkeypatch
    )
    assert code == 4
    assert "runtime failure" in capsys.readouterr().err


def test_out_of_memory_exits_four(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("mimolab.channels.hardening_metric", exhausted)
    code = run_cli(["hardening", "--output", "h.json"], tmp_path, monkeypatch)
    assert code == 4
    assert "out of memory" in capsys.readouterr().err
    assert not (tmp_path / "h.json").exists()


def test_drift_bound_violation_is_runtime_failure(tmp_path, monkeypatch, capsys):
    def below(m_antennas, mu, n_draws, seed, threshold):
        yield np.array([m_antennas / 4])

    monkeypatch.setattr("mimolab.channels._random_drift_gains", below)
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
    "fresnel": "radius_m",
    "estload": "estimates_per_second",
    "capacity": "rate_per_ue_bps",
    "antenna-sweep": "rate_per_ue_bps",  # only in CSV rows; the manifest stays finite
    "hwbudget": "adc_a.unit_power_w",
    "linkbudget": "total_db",  # math.fsum raises on overflow instead of returning inf
}


@pytest.mark.parametrize(
    "args",
    [
        ["fresnel", "--d1", "1e308", "--d2", "1e308"],
        ["estload", "--m-antennas", "1000000000000000000000", "--coherence-time-s", "1e-320"],
        ["capacity", "--bandwidth-hz", "1e308", "--set", "k_step=1000"],
        ["antenna-sweep", "--bandwidth-hz", "1e308", "--set", "k_step=1000"],
        ["hwbudget", "--fom-j-per-cs", "1e300", "--enob-a", "1000"],
        ["linkbudget", "--entry-a", "1e308", "--entry-b", "1e308"],
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
    # rho_dl overflows to inf, so the SINR is inf/inf: nan without a warning, then exit 4
    args = ["capacity", "--ul-pilot-snr", "1e308", "--dl-ul-power-ratio", "1e308",
            "--set", "k_step=1000", "--output", "out.csv"]
    assert run_cli(args, tmp_path, monkeypatch) == 4
    assert capsys.readouterr().err == (
        "runtime failure: se_per_ue in data row 1 is nan, not a finite number\n"
    )
    assert list(tmp_path.iterdir()) == []


# the ints that size an array or a Monte-Carlo run stay at their defaults (their caps
# have their own tests above), and mobility draws 1000 patterns, so the sweep stays fast
_HELD_SIZES = {"rows", "cols", "n_points"}
_HELD_MONTE_CARLO_SIZES = {"m_antennas", "n_draws", "n_pairs"}


def _extreme_value_cases():
    """(experiment, args) setting one numeric parameter to a bound or an extreme value."""
    for exp in EXPERIMENTS.values():
        base = ["--set", "n_draws=1000"] if exp.name == "mobility" else []
        monte_carlo = exp.name in ("hardening", "favorable", "mobility")
        for param in exp.params:
            if param.kind not in ("int", "float", "int_list", "float_list"):
                continue
            if param.name in _HELD_SIZES or (monte_carlo and param.name in _HELD_MONTE_CARLO_SIZES):
                continue
            bounds = {b for b in (param.min_value, param.max_value) if b is not None}
            if param.kind.startswith("int"):
                extremes = {1, 2, 2**53 + 1, 2**1024}
            else:
                extremes = {5e-324, 1e-300, 1e300, 1.7e308}
            for value in sorted(bounds | extremes):
                yield exp, base + ["--set", f"{param.name}={value!r}"]


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
    """Exit 0 with finite output, or exit 3/4 with one stderr line naming a field or key."""
    known = {}
    defects = []
    for i, (exp, args) in enumerate(_extreme_value_cases()):
        case_dir = tmp_path / str(i)
        out = case_dir / f"out.{exp.output_ext}"
        code = main([exp.name, *args, "--output", str(out)])
        err = capsys.readouterr().err
        case = f"{exp.name} {args[-1]}: exit {code}, {err!r}"
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
    assert code == 4
    assert "span_hz" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def _squint_rows():
    p = bundled("fig4_32x32", n_points=5, span_hz=400e6)
    array = PlanarArray.half_wavelength_at(p["rows"], p["cols"], p["center_frequency_hz"])
    freqs, effs = squint_sweep(
        array, sixpath_channel(42), p["center_frequency_hz"], p["span_hz"], p["n_points"]
    )
    return [list(row) for row in zip(freqs.tolist(), effs.tolist())]


def _capacity_rows(name, k_step):
    sc = bundled(name)
    table = rate_table(k_range(sc["tau_c"], k_step=k_step), **sc)
    columns = [column.tolist() for column in table.values()]
    return [[sc["m_antennas"], *row] for row in zip(*columns)]


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
    header = ("a", "b", "c", "d")
    columns = (ints, floats, (-ints).tolist(), (np.arange(n) * 0.1 - 2.0).tolist())
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    expected = "".join(",".join(map(repr, row)) + "\n" for row in rows)
    assert "".join(_csv_blocks(header, columns)) == "a,b,c,d\n" + expected


def _nan_at(row):
    def table_with_nan(*args, **kwargs):
        table = rate_table(*args, **kwargs)
        table["se_per_ue"][row - 1] = np.nan
        return table

    return table_with_nan


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
    def exhausted_after_a_block(header, columns):
        blocks = _csv_blocks(header, columns)
        yield next(blocks)
        yield next(blocks)
        raise MemoryError

    monkeypatch.setattr("mimolab.cli._csv_blocks", exhausted_after_a_block)
    code = run_cli(["capacity", "--set", "k_step=1", "--output", "cap.csv"], tmp_path, monkeypatch)
    assert code == 4
    assert capsys.readouterr().err == "runtime failure: ran out of memory running 'capacity'\n"
    assert list(tmp_path.iterdir()) == []


def test_csv_memory_grows_little_per_row(tmp_path, monkeypatch):
    # centralpark_3ghz at k_step 4 and 1 writes 10,000 and 40,000 rows; the
    # rate columns take 48 B/row, a writer holding the whole text about 500 B/row
    base = ["--config", "centralpark_3ghz", "--set", "fine=false", "--output", "cap.csv"]
    assert run_cli(base + ["--set", "k_step=1000"], tmp_path, monkeypatch) == 0  # imports
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


def test_seed_changes_squint_output(tmp_path, monkeypatch):
    base = ["squint", "--set", "rows=8", "--set", "cols=8", "--set", "n_points=5"]
    assert run_cli(base + ["--output", "a.csv"], tmp_path, monkeypatch) == 0
    assert run_cli(base + ["--output", "b.csv", "--seed", "43"], tmp_path, monkeypatch) == 0
    assert (tmp_path / "a.csv").read_text() != (tmp_path / "b.csv").read_text()


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


@pytest.mark.parametrize("blocked", ["f.json", "f.json.manifest.json"])
def test_unwritable_output_or_manifest_writes_neither(blocked, tmp_path, monkeypatch, capsys):
    (tmp_path / blocked).mkdir()
    assert run_cli(["fresnel", "--output", "f.json"], tmp_path, monkeypatch) == 4
    err = capsys.readouterr().err
    assert err == f"runtime failure: cannot write {blocked!r}: Is a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == [blocked]
    assert list((tmp_path / blocked).iterdir()) == []


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


def test_bundled_configs_all_load():
    for name in BUNDLED_CONFIGS:
        values = parse_config_text(bundled_config_text(name))
        assert values["experiment"] in EXPERIMENTS


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mimolab.cli", "--list"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0
    assert "squint" in proc.stdout


# (args, exit code, golden file of the JSON output or of stdout)
_NUMPY_FREE_CASES = [
    (["fresnel", "--output", "out.json"], 0, "fresnel.json"),
    (["linkbudget", "--entry-window", "-40", "--entry-foliage", "-12.5", "--output", "out.json"],
     0, "linkbudget.json"),
    (["--config", "estload_paper", "--output", "out.json"], 0, "estload_paper.json"),
    (["--config", "adc_128v8", "--output", "out.json"], 0, "adc_128v8.json"),
    (["hwbudget", "--overhead-factor", "20"], 3, None),
    (["--config", "../malformed.ini"], 2, None),
    (["fresnel", "--freq-ghz", "nan"], 3, None),
    (["list"], 0, "list.txt"),
    ([], 0, "usage.txt"),
    (["--help"], 0, "usage.txt"),
    (["warp-drive"], 3, None),
    (["fresnel", "--set", "freq_gz=38"], 3, None),
    (["squint", "--center-frequency-hz", "60e9", "--span-hz", "120e9"], 3, None),
    (["capacity", "--coherence-time-s", "1e-300"], 3, None),
    (["capacity", "--fine", "true", "--coherence-time-s", "100"], 3, None),
    (["capacity", "--snr-scaling", "bandwidth", "--ul-pilot-snr", "1e-300",
      "--reference-bandwidth-hz", "1e-300", "--bandwidth-hz", "1e300"], 3, None),
    (["antenna-sweep", "--coherence-time-s", "1e-300"], 3, None),
]

# runs each argument list through main in its own directory 0, 1, ...; any numpy import raises
_NUMPY_FREE_SCRIPT = """
import contextlib, io, json, os, sys
sys.modules["numpy"] = None
from mimolab.cli import main

results = []
for i, args in enumerate(json.loads(sys.argv[1])):
    os.mkdir(str(i))
    os.chdir(str(i))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        results.append((main(args), stdout.getvalue()))
    os.chdir("..")
print(json.dumps([results, sorted(sys.modules)]))
"""


def test_closed_form_runs_and_rejects_never_import_numpy(tmp_path, monkeypatch):
    (tmp_path / "malformed.ini").write_text("experiment = fresnel\nfreq_ghz 38\n")
    # -S skips site, whose .pth files may preload modules the CLI itself avoids
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _NUMPY_FREE_SCRIPT,
         json.dumps([args for args, _, _ in _NUMPY_FREE_CASES])],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    results, modules = json.loads(proc.stdout)
    assert [name for name in modules if name.startswith("mimolab")] == [
        "mimolab", "mimolab.cli", "mimolab.coherence", "mimolab.hardware", "mimolab.propagation"
    ]
    # heavy standard-library imports the CLI does without
    assert not {"dataclasses", "importlib.resources", "inspect", "tempfile"} & set(modules)
    for i, ((args, code, golden), (exit_code, stdout)) in enumerate(
        zip(_NUMPY_FREE_CASES, results, strict=True)
    ):
        assert exit_code == code, args
        if golden is None:
            assert list((tmp_path / str(i)).iterdir()) == [], args
        elif golden.endswith(".txt"):
            assert stdout == (GOLDEN / golden).read_text(), args
        else:
            monkeypatch.chdir(tmp_path / str(i))
            _assert_run_matches_golden("out.json", golden)

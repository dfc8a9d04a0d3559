"""Bundled configs and experiment defaults against checked-in golden outputs.

Structure (CSV header, row count, frequency grid and integer columns; JSON
keys and non-float values) must match exactly; float values must agree to a
relative 1e-12.  Every run's manifest must match the golden
``.manifest.json`` the same way, apart from the output path it echoes.  The
``mimolab list`` output, the bare usage text and the Monte-Carlo outputs
must match byte for byte.
A change that moves a value past that tolerance updates the golden file and
declares the numerics change in CHANGES.md.
"""

import gzip
import json
from pathlib import Path

import numpy as np
import pytest

from mimolab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden_text(name):
    path = GOLDEN / name
    if path.exists():
        return path.read_text()
    with gzip.open(GOLDEN / f"{name}.gz", "rt") as handle:
        return handle.read()


def _read_csv(text):
    header, *rows = text.strip().split("\n")
    return header, np.array([[float(x) for x in row.split(",")] for row in rows])


def _assert_csv_close(text, golden_text, exact_columns):
    """Same header and shape, given leading columns exact, the rest rel 1e-12."""
    header, values = _read_csv(text)
    golden_header, golden_values = _read_csv(golden_text)
    assert header == golden_header
    assert values.shape == golden_values.shape
    np.testing.assert_array_equal(values[:, :exact_columns], golden_values[:, :exact_columns])
    np.testing.assert_allclose(
        values[:, exact_columns:], golden_values[:, exact_columns:], rtol=1e-12, atol=0
    )


def _assert_json_close(actual, golden, where="$"):
    """Same structure and non-float values; floats equal to a relative 1e-12."""
    assert type(actual) is type(golden), where
    if isinstance(golden, dict):
        assert list(actual) == list(golden), where
        for key in golden:
            _assert_json_close(actual[key], golden[key], f"{where}.{key}")
    elif isinstance(golden, list):
        assert len(actual) == len(golden), where
        for i, (a, g) in enumerate(zip(actual, golden)):
            _assert_json_close(a, g, f"{where}[{i}]")
    elif isinstance(golden, float):
        assert actual == pytest.approx(golden, rel=1e-12, abs=0), where
    else:
        assert actual == golden, where


def _assert_manifest_close(output, golden_name):
    actual = json.loads(Path(f"{output}.manifest.json").read_text())
    golden = json.loads((GOLDEN / f"{golden_name}.manifest.json").read_text())
    assert actual.pop("output") == output
    golden.pop("output")
    _assert_json_close(actual, golden)


def _assert_run_matches_golden(output, golden_name, exact_columns=0):
    """The run's output and its manifest against the golden file and its manifest."""
    text = Path(output).read_text()
    if golden_name.endswith(".csv"):
        _assert_csv_close(text, _golden_text(golden_name), exact_columns)
    else:
        _assert_json_close(json.loads(text), json.loads(_golden_text(golden_name)))
    _assert_manifest_close(output, golden_name)


@pytest.mark.parametrize("name", ["fig4_32x32", "fig4_64x64", "fig4_128x128"])
def test_squint_config_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["--config", name, "--output", "out.csv"]) == 0
    _assert_run_matches_golden("out.csv", f"{name}.csv", exact_columns=1)


@pytest.mark.parametrize(
    "name, argv",
    [
        ("centralpark_3ghz", ["--config", "centralpark_3ghz"]),
        ("centralpark_60ghz", ["--config", "centralpark_60ghz"]),
        ("antenna_sweep", ["antenna-sweep"]),
    ],
)
def test_rate_sweep_matches_golden(name, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--output", "out.csv"]) == 0
    # m_antennas and k_users are integers and must match exactly
    _assert_run_matches_golden("out.csv", f"{name}.csv", exact_columns=2)


MONTECARLO_RUNS = [
    ("hardening", ["hardening"]),
    ("favorable", ["favorable"]),
    ("mobility_bound", ["--config", "mobility_bound"]),
    ("hardening_m10000", ["hardening", "--m-antennas", "10000", "--n-draws", "1000"]),
]


@pytest.mark.parametrize("name, argv", MONTECARLO_RUNS)
def test_montecarlo_output_matches_golden(name, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--output", "out.json"]) == 0
    _assert_run_matches_golden("out.json", f"{name}.json")


@pytest.mark.parametrize("name, argv", MONTECARLO_RUNS)
def test_montecarlo_output_is_golden_byte_for_byte(name, argv, tmp_path, monkeypatch):
    # the seeded kernels promise bit-identical results, so their outputs are pinned exactly
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--output", "out.json"]) == 0
    assert Path("out.json").read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", ["estload_paper", "adc_128v8"])
def test_small_json_config_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["--config", name, "--output", "out.json"]) == 0
    _assert_run_matches_golden("out.json", f"{name}.json")


@pytest.mark.parametrize(
    "name, argv",
    [
        ("fresnel", ["fresnel"]),
        ("linkbudget", ["linkbudget", "--entry-window", "-40", "--entry-foliage", "-12.5"]),
    ],
)
def test_propagation_experiment_matches_golden(name, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--output", "out.json"]) == 0
    _assert_run_matches_golden("out.json", f"{name}.json")


@pytest.mark.parametrize("name, argv", [("list", ["list"]), ("usage", []), ("list", ["--list"])])
def test_listing_and_usage_match_golden(name, argv, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / f"{name}.txt").read_text()
    assert captured.err == ""

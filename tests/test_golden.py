"""Bundled configs and Monte-Carlo defaults against checked-in golden outputs.

Structure (CSV header, row count, frequency grid; JSON keys and non-float
values) must match exactly; float values must agree to a relative 1e-12.
A change that moves a value past that tolerance updates the golden file
and declares the numerics change in CHANGES.md.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from mimolab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _read_csv(path):
    header, *rows = path.read_text().strip().split("\n")
    return header, [tuple(float(x) for x in row.split(",")) for row in rows]


@pytest.mark.parametrize("name", ["fig4_32x32", "fig4_64x64", "fig4_128x128"])
def test_squint_config_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["--config", name, "--output", "out.csv"]) == 0
    header, rows = _read_csv(tmp_path / "out.csv")
    golden_header, golden_rows = _read_csv(GOLDEN / f"{name}.csv")
    assert header == golden_header
    assert [r[0] for r in rows] == [r[0] for r in golden_rows]
    np.testing.assert_allclose(
        [r[1] for r in rows], [r[1] for r in golden_rows], rtol=1e-12, atol=0
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


@pytest.mark.parametrize(
    "name, argv",
    [
        ("hardening", ["hardening"]),
        ("favorable", ["favorable"]),
        ("mobility_bound", ["--config", "mobility_bound"]),
    ],
)
def test_montecarlo_output_matches_golden(name, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--output", "out.json"]) == 0
    actual = json.loads((tmp_path / "out.json").read_text())
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    _assert_json_close(actual, golden)

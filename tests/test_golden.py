"""Bundled configs against checked-in golden outputs.

Structure (header, row count, frequency grid) must match exactly; values
must agree to a relative 1e-12.  A change that moves a value past that
tolerance updates the golden file and declares the numerics change in
CHANGES.md.
"""

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

"""Smoke tests: each script under scripts/ runs to exit 0 and prints its table."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args, expected",
    [
        ("centralpark_report.py", [], "fine optimum at M=100000: K=14624"),
        ("squint_report.py", [], "128x128"),
        ("run_all_bundled.py", ["{tmp}"], "== adc_128v8 =="),
    ],
)
def test_script_runs(script, args, expected, tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in args]
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout

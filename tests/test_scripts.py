"""Each script under scripts/ runs to exit 0; the reports print their pinned text."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_script(script, args, cwd):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, cwd=cwd
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", ["centralpark_report.py", "squint_report.py"])
def test_report_matches_golden(script, tmp_path):
    # seed 42, the bundled configs' seed; byte for byte
    golden = GOLDEN / script.replace(".py", ".txt")
    assert run_script(script, [], tmp_path) == golden.read_text(encoding="utf-8")


def test_run_all_bundled(tmp_path):
    assert "== adc_128v8 ==" in run_script("run_all_bundled.py", [str(tmp_path)], tmp_path)

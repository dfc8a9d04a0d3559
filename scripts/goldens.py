#!/usr/bin/env python3
"""Write every file of tests/golden/ into a directory: python scripts/goldens.py DIR.

GOLDENS holds one row per golden output: its file name, the mimolab argv or
the report script that writes it, the number of leading CSV columns compared
exactly, and whether it is pinned byte for byte.  Each mimolab run goes in
process from inside DIR with ``--output NAME``, so its manifest echoes its own
file name; each report script runs in process too, as ``__main__``.  A ``.txt``
golden is the run's or the report's stdout; a ``.csv.gz`` golden is the
run's CSV gzipped with mtime 0 and no file name, so its bytes repeat.
Regenerate tests/golden/ with it only beside a numerics change that CHANGES.md
declares; tests/test_golden.py compares what write() writes with each golden.
"""

import contextlib
import gzip
import io
import os
import pathlib
import runpy
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(SCRIPTS.parent / "src"))

from mimolab.cli import main  # noqa: E402

# (golden file, mimolab argv or report script, leading CSV columns exact, pinned byte for byte)
GOLDENS = (
    # the frequency column is exact
    ("fig4_32x32.csv", ["--config", "fig4_32x32"], 1, False),
    ("fig4_64x64.csv", ["--config", "fig4_64x64"], 1, False),
    ("fig4_128x128.csv", ["--config", "fig4_128x128"], 1, False),
    # m_antennas and k_users are integers
    ("centralpark_3ghz.csv.gz", ["--config", "centralpark_3ghz"], 2, False),
    ("centralpark_60ghz.csv.gz", ["--config", "centralpark_60ghz"], 2, False),
    ("antenna_sweep.csv", ["antenna-sweep"], 2, False),
    # the seeded Monte-Carlo kernels promise bit-identical results
    ("hardening.json", ["hardening"], 0, True),
    ("favorable.json", ["favorable"], 0, True),
    ("mobility_bound.json", ["--config", "mobility_bound"], 0, True),
    ("hardening_m10000.json", ["hardening", "--m-antennas", "10000", "--n-draws", "1000"],
     0, True),
    ("estload_paper.json", ["--config", "estload_paper"], 0, False),
    ("adc_128v8.json", ["--config", "adc_128v8"], 0, False),
    ("fresnel.json", ["fresnel"], 0, False),
    ("linkbudget.json", ["linkbudget", "--entry-window", "-40", "--entry-foliage", "-12.5"],
     0, False),
    ("list.txt", ["list"], 0, True),
    ("usage.txt", [], 0, True),
    ("centralpark_report.txt", "centralpark_report.py", 0, True),
    ("squint_report.txt", "squint_report.py", 0, True),
)


def mimolab_stdout(argv: list[str]) -> str:
    """What mimolab's main prints for argv; raises unless it exits 0 with nothing on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    if status != 0 or err.getvalue():
        raise RuntimeError(f"mimolab {argv} exited {status}: {err.getvalue()}")
    return out.getvalue()


def report_stdout(script: str) -> str:
    """What a report script prints, run in this process as ``__main__`` with no arguments."""
    out, argv, path = io.StringIO(), sys.argv, list(sys.path)
    sys.argv = [str(SCRIPTS / script)]
    try:
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    finally:
        sys.argv, sys.path[:] = argv, path  # the report puts src/ on sys.path
    return out.getvalue()


def write(directory) -> None:
    """Write every golden file, and each run's manifest, into directory."""
    pathlib.Path(directory).mkdir(parents=True, exist_ok=True)
    home = os.getcwd()
    os.chdir(directory)
    try:
        for name, run, _, _ in GOLDENS:
            if isinstance(run, str):
                pathlib.Path(name).write_text(report_stdout(run), encoding="utf-8")
            elif name.endswith(".txt"):
                pathlib.Path(name).write_text(mimolab_stdout(run), encoding="utf-8")
            else:
                output = name.removesuffix(".gz")
                mimolab_stdout([*run, "--output", output])
                if output != name:
                    csv = pathlib.Path(output)
                    pathlib.Path(name).write_bytes(gzip.compress(csv.read_bytes(), mtime=0))
                    csv.unlink()
    finally:
        os.chdir(home)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python scripts/goldens.py DIR")
    write(sys.argv[1])

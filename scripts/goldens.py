#!/usr/bin/env python3
"""Write every file of tests/golden/ into a directory: python scripts/goldens.py DIR.

GOLDENS holds one row per golden output: its file name, the mimolab argv or
the report script that writes it, the number of leading CSV columns compared
exactly, and whether it is pinned byte for byte.  Each mimolab golden is
written by its own row of the process-contract table (process_contract.py),
forked with ``--output NAME`` so that its manifest echoes the golden's name:
write() runs that table in a temporary directory, and collect() copies each
such row's output and manifest, or its stdout, into DIR.  Each report script
runs in this process, as ``__main__``.  A ``.txt`` golden is the run's or the
report's stdout; a ``.csv.gz`` golden is the run's CSV gzipped with mtime 0
and no file name, so its bytes repeat.  Regenerate tests/golden/ with it only
beside a numerics change that CHANGES.md declares; tests/test_golden.py
collects the goldens from Tier-1's one run of the table.
"""

import contextlib
import gzip
import io
import pathlib
import runpy
import shutil
import sys
import tempfile

SCRIPTS = pathlib.Path(__file__).resolve().parent

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


def collect(contract_dir, reports, directory) -> None:
    """Write every golden file, and each run's manifest, into directory.

    The mimolab goldens come from the process-contract table that ran in
    contract_dir, whose reports by row process_contract.check() returned; each
    golden's own row must have exited 0 with nothing on stderr.
    """
    import process_contract  # not at the top: it takes each golden's argv from GOLDENS

    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = [args for args, *_ in process_contract.ROWS]
    for name, run, _, _ in GOLDENS:
        if isinstance(run, str):
            (directory / name).write_text(report_stdout(run), encoding="utf-8")
            continue
        i = rows.index(process_contract.golden_args(name))
        report = reports[i]
        if report is None or report[0] != 0 or report[2]:
            raise RuntimeError(f"mimolab {rows[i]} did not exit 0 with an empty stderr: {report}")
        if name.endswith(".txt"):
            (directory / name).write_text(report[1], encoding="utf-8")
            continue
        output = pathlib.Path(contract_dir, str(i), name.removesuffix(".gz"))
        data = output.read_bytes()
        if output.name != name:
            data = gzip.compress(data, mtime=0)
        (directory / name).write_bytes(data)
        shutil.copyfile(f"{output}.manifest.json", directory / f"{output.name}.manifest.json")


def write(directory) -> None:
    """Run the process-contract table in a temporary directory; collect its goldens."""
    import process_contract

    with tempfile.TemporaryDirectory() as contract_dir:
        collect(contract_dir, process_contract.check(contract_dir)[1], directory)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python scripts/goldens.py DIR")
    write(sys.argv[1])

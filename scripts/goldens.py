#!/usr/bin/env python3
"""Write every file of tests/golden/ into a directory: python scripts/goldens.py DIR.

Each mimolab golden is written by its own row of the process-contract table
(process_contract.ROWS), which states the golden's argv and its comparison
rule; REPORTS names the two goldens that a report script prints.  write() runs
the table in a temporary directory, and collect() copies each own row's output
and manifest, or its stdout, into DIR, then runs each report script in this
process, as ``__main__``.  collect() leaves a ``.csv.gz`` golden as the run's
CSV, which golden_failures() reads like the gzipped file; write() then gzips
it with mtime 0 and no file name, so its bytes repeat.  Regenerate
tests/golden/ with it only beside a numerics change that CHANGES.md declares;
tests/test_golden.py collects the goldens from Tier-1's one run of the table.
"""

import contextlib
import gzip
import io
import pathlib
import runpy
import shutil
import sys
import tempfile

import process_contract

SCRIPTS = pathlib.Path(__file__).resolve().parent

# the goldens that a report script, of the same name, prints; they are pinned byte for byte
REPORTS = ["centralpark_report.txt", "squint_report.txt"]


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
    golden's own row must have exited 0 with nothing on stderr.  A .csv.gz
    golden is written uncompressed.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, row in enumerate(process_contract.ROWS):
        if row.rule is None:
            continue
        report, name = reports[i], row.golden
        if report is None or report[0] != 0 or report[2]:
            raise RuntimeError(f"mimolab {row.args} did not exit 0 with an empty stderr: {report}")
        if name.endswith(".txt"):
            (directory / name).write_text(report[1], encoding="utf-8")
            continue
        output = pathlib.Path(contract_dir, str(i), name.removesuffix(".gz"))
        shutil.copyfile(output, directory / name)
        shutil.copyfile(f"{output}.manifest.json", directory / f"{output.name}.manifest.json")
    for name in REPORTS:
        (directory / name).write_text(report_stdout(name.replace(".txt", ".py")), encoding="utf-8")


def write(directory) -> None:
    """Run the process-contract table in a temporary directory; collect its goldens and
    gzip the .csv.gz ones."""
    with tempfile.TemporaryDirectory() as contract_dir:
        collect(contract_dir, process_contract.check(contract_dir)[1], directory)
    for path in (pathlib.Path(directory, name) for name in process_contract.RULES):
        if path.suffix == ".gz":
            path.write_bytes(gzip.compress(path.read_bytes(), mtime=0))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python scripts/goldens.py DIR")
    write(sys.argv[1])

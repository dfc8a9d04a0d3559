#!/usr/bin/env python3
"""Run the closed-form commands where numpy cannot load: python scripts/numpy_free.py.

CASES holds one row per mimolab command: its argv, its exit code, and the
golden file of its output or of its stdout (None for neither).  A golden row
takes its argv from goldens.GOLDENS by name.  check() runs every row through
main in one fresh ``python -S`` child in which importing numpy raises, each
row in its own directory 0, 1, ...; -S skips site, whose .pth files may
preload modules that the CLI itself avoids.  A row fails if it exits with
another code, exits non-zero yet writes a file, or prints other than its
.txt golden; the run fails if the child loads a mimolab module beyond cli,
capacity, hardware and propagation, or a module of AVOIDED.
tests/test_cli.py also compares each written output and manifest with its
golden.  The script prints each failure and exits 1 if there is any; it
runs alike with numpy installed or not.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

from goldens import GOLDENS

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
RUNS = {name: run for name, run, _, _ in GOLDENS}

# standard-library modules the CLI does without: beyond os, sys and math it has its own
# JSON writer, plain schema classes and a set check of the key grammar
AVOIDED = {
    "__future__", "collections", "dataclasses", "enum", "functools", "importlib.resources",
    "inspect", "json", "re", "tempfile", "typing",
}


def _golden(name, output=None):
    """Golden ``name``'s run as a row: a .txt golden is its stdout; any other run writes
    ``output``, by default the golden's own name (a .csv.gz golden's CSV, uncompressed)."""
    if name.endswith(".txt"):
        return RUNS[name], 0, name
    return [*RUNS[name], "--output", output or name.removesuffix(".gz")], 0, name


# (argv, exit code, golden file of the output or of stdout)
CASES = [
    _golden("fresnel.json"),
    _golden("linkbudget.json"),
    _golden("estload_paper.json"),
    # --config is the shorthand of the reserved key config
    (["--set", "config=estload_paper", "--output", "estload.json"], 0, "estload_paper.json"),
    _golden("adc_128v8.json"),
    (["hwbudget", "--overhead-factor", "20"], 3, None),
    (["--config", "../malformed.ini"], 2, None),
    (["fresnel", "--freq-ghz", "nan"], 3, None),
    # a wavelength c/f that overflows names freq_ghz
    (["fresnel", "--freq-ghz", "1e-320"], 3, None),
    (["fresnel", "--freq-ghz", "1e300"], 3, None),
    _golden("list.txt"),
    (["--list"], 0, "list.txt"),
    _golden("usage.txt"),
    (["--help"], 0, "usage.txt"),
    (["warp-drive"], 3, None),
    # a missing experiment is invalid input too
    (["--seed", "3"], 3, None),
    (["fresnel", "--set", "freq_gz=38"], 3, None),
    # a command-line key outside the config key grammar is a parse error
    (["fresnel", "--", "3"], 2, None),
    # squint's schema reject comes before its numpy import
    (["squint", "--center-frequency-hz", "60e9", "--span-hz", "120e9"], 3, None),
    (["capacity", "--coherence-time-s", "1e-300"], 3, None),
    (["capacity", "--fine", "true", "--coherence-time-s", "100"], 3, None),
    (["capacity", "--snr-scaling", "bandwidth", "--ul-pilot-snr", "1e-300",
      "--reference-bandwidth-hz", "1e-300", "--bandwidth-hz", "1e300"], 3, None),
    # the bandwidth-scaled uplink SNR 1e100 runs, though ul_pilot_snr * reference_bandwidth_hz
    # overflows; its 40 user counts take the plain path too
    (["capacity", "--snr-scaling", "bandwidth", "--ul-pilot-snr", "1e200",
      "--reference-bandwidth-hz", "1e200", "--bandwidth-hz", "1e300", "--k-step", "1000",
      "--output", "scaled-snr.csv"], 0, None),
    (["antenna-sweep", "--coherence-time-s", "1e-300"], 3, None),
    (["capacity", "--k-max", "50000"], 3, None),
    (["capacity", "--k-min", "50000"], 3, None),
    (["antenna-sweep", "--k-min", "9", "--k-max", "2"], 3, None),
    # library checks that relate several parameters are invalid input too
    (["fresnel", "--d1", "0", "--d2", "0"], 3, None),
    (["estload", "--subcarriers-per-block", "2000"], 3, None),
    (["capacity", "--dl-ul-power-ratio", "1e308"], 3, None),
    # mobility's least drift gain is closed-form
    _golden("mobility_bound.json"),
    # rate sweeps of at most capacity.PLAIN_MAX_EVALUATIONS rate evaluations take the plain
    # path, numpy installed or not: 2,000 user counts, and 4 antenna counts x 1,000
    _golden("centralpark_60ghz.csv.gz"),
    _golden("antenna_sweep.csv"),
    # a drift amplitude above 1/8 wavelength is outside mobility's schema
    (["mobility", "--mu-list", "0.2"], 3, None),
    # paths that the manifest echoes in json's ASCII escapes: non-ASCII, and holding a
    # byte that is not UTF-8, which reaches Python as a lone surrogate
    _golden("fresnel.json", "\u00fcn\u00efcode-\u2603-\U0001d11e.json"),
    _golden("fresnel.json", "x\udcff.json"),
]

# runs each argument list through main in its own directory 0, 1, ...; any numpy import
# raises.  The lists arrive as ascii() wrote them, and json is imported only after the
# module snapshot, as it loads re and enum itself.
CHILD = """
import io, os, sys
sys.modules["numpy"] = None
from mimolab.cli import main

results = []
for i, args in enumerate(eval(sys.argv[1])):
    os.mkdir(str(i))
    os.chdir(str(i))
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        results.append((main(args), sys.stdout.getvalue()))
    finally:
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    os.chdir("..")
modules = sorted(sys.modules)
import json
print(json.dumps([results, modules]))
"""


def check(directory) -> list[str]:
    """Run CASES in the child, in rows 0, 1, ... of directory; one line per failure."""
    directory = pathlib.Path(directory)
    (directory / "malformed.ini").write_text("experiment = fresnel\nfreq_ghz 38\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, ascii([args for args, _, _ in CASES])],
        capture_output=True, text=True, cwd=directory, env={**os.environ, "PYTHONPATH": path},
    )
    if proc.returncode:
        return [f"the child exited {proc.returncode}: {proc.stderr}"]
    results, modules = json.loads(proc.stdout)
    failures = []
    for i, ((args, code, golden), (exit_code, stdout)) in enumerate(
        zip(CASES, results, strict=True)
    ):
        row = f"row {i} {args}:"
        written = sorted(p.name for p in (directory / str(i)).iterdir())
        if exit_code != code:
            failures.append(f"{row} exit {exit_code}, expected {code}")
        elif code and written:
            failures.append(f"{row} exit {code}, yet it wrote {written}")
        elif str(golden).endswith(".txt") and stdout != (GOLDEN / golden).read_text("utf-8"):
            failures.append(f"{row} stdout is not {golden}")
    loaded = [name for name in modules if name.startswith("mimolab")]
    if loaded != ["mimolab", "mimolab.capacity", "mimolab.cli", "mimolab.hardware",
                  "mimolab.propagation"]:
        failures.append(f"loaded the mimolab modules {loaded}")
    if AVOIDED & set(modules):
        failures.append(f"loaded {sorted(AVOIDED & set(modules))}")
    return failures


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        failures = check(scratch)
    for failure in failures:
        print(f"FAIL  {failure}")
    print(f"{len(CASES)} rows without numpy, {len(failures)} failures")
    sys.exit(1 if failures else 0)

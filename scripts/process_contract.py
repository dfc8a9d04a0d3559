#!/usr/bin/env python3
"""Run every row of the CLI's process contract: python scripts/process_contract.py.

ROWS holds one row per mimolab run: its argv, its exit code, the golden file
of its output or of its stdout (None for neither), its environment, the
``mimolab`` modules it leaves loaded, and the modules it must not add.  A
golden row takes its argv from goldens.GOLDENS by name; every mimolab golden
has a row of its own, which writes the golden's own file name, and the forked
runs of those rows are the only runs that write the goldens (goldens.py
collects them).

check() starts one ``python -S`` interpreter per environment; -S skips site,
whose .pth files may preload modules that the CLI itself avoids.
- NUMPY_BLOCKED: importing numpy raises.  The closed-form experiments, the
  small rate sweeps, the listings and the rejects run here.
- NUMPY_IMPORTABLE: numpy is imported before the baseline is taken, as numpy
  1.x loads ``numpy.random`` along with numpy itself; one BLAS thread keeps
  the interpreter to one thread, so that it forks safely.  The runs that need
  numpy run here.
Each interpreter takes its module baseline before it imports
``mimolab.cli``, so a module that ``cli.py`` itself imports counts against
every row.  It then forks once per row; the fork runs ``main`` in the row's
own directory 0, 1, ... with stdout and stderr captured, and reports its exit
code, its stdout, its stderr and the modules it added to the baseline.
check() returns each row's failures and each row's report.

A row fails if it exits with another code, exits non-zero yet writes a file,
exits 0 yet writes to stderr, prints other than its .txt golden, leaves loaded
other ``mimolab`` modules than its own, or adds a module it must not add (a
name, or a package with its submodules), or if its fork fails.  Tier-1 runs
check() once per session, in both environments; its tests compare each
written output and manifest with its golden, and collect the goldens from the
same run.  Where numpy cannot be imported at all, the script skips the
NUMPY_IMPORTABLE rows and says so.  It prints each failure and exits 1 if
there is any.
"""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys
import tempfile

from goldens import GOLDENS

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
RUNS = {name: run for name, run, _, _ in GOLDENS}
NUMPY_BLOCKED, NUMPY_IMPORTABLE = "numpy blocked", "numpy importable"

# standard-library modules the CLI does without: beyond os, sys and math it has its own
# JSON writer, plain schema classes and a set check of the key grammar
AVOIDED = (
    "__future__", "collections", "dataclasses", "enum", "functools", "importlib.resources",
    "inspect", "json", "re", "tempfile", "typing",
)
# what a numpy run must not add: numpy loads collections, enum, functools, inspect, re and
# typing, and the numpy modules use __future__, so of AVOIDED these are left
NUMPY_AVOIDED = ("dataclasses", "importlib.resources", "json", "tempfile")
# nor does a run that draws no numpy random numbers add numpy.random or hashlib: capacity
# draws none, and squint draws its phases from rng's plain-Python PCG64
UNSEEDED_AVOIDED = (*NUMPY_AVOIDED, "numpy.random", "hashlib", "_hashlib")

SQUINT = ("beamforming", "cli", "geometry", "rng", "scenarios")
MONTE_CARLO = ("channels", "cli", "rng")


def golden_args(name, output=None):
    """Golden ``name``'s mimolab argv: a .txt golden is its stdout; any other run writes
    ``output``, by default the golden's own name (a .csv.gz golden's CSV, uncompressed)."""
    if name.endswith(".txt"):
        return RUNS[name]
    return [*RUNS[name], "--output", output or name.removesuffix(".gz")]


def _golden(name, modules, output=None, env=NUMPY_BLOCKED, avoided=AVOIDED):
    """Golden ``name``'s run as a row."""
    return golden_args(name, output), 0, name, env, modules, avoided


def _blocked(args, code, modules):
    """A run without a golden, where numpy cannot be imported."""
    return args, code, None, NUMPY_BLOCKED, modules, AVOIDED


# (argv, exit code, golden file of the output or of stdout, environment,
#  mimolab modules left loaded, modules it must not add)
ROWS = [
    _golden("fresnel.json", ("cli", "propagation")),
    _golden("linkbudget.json", ("cli", "propagation")),
    _golden("estload_paper.json", ("cli", "propagation")),
    # --config is the shorthand of the reserved key config
    (["--set", "config=estload_paper", "--output", "estload.json"], 0, "estload_paper.json",
     NUMPY_BLOCKED, ("cli", "propagation"), AVOIDED),
    _golden("adc_128v8.json", ("cli", "hardware")),
    _golden("mobility_bound.json", ("cli", "propagation")),
    # a pinned output, and its manifest's values, do not depend on the --output name
    _golden("mobility_bound.json", ("cli", "propagation"), "out.json"),
    # rate sweeps of at most capacity.PLAIN_MAX_EVALUATIONS rate evaluations take the plain
    # path, numpy installed or not: 2,000 user counts, and 4 antenna counts x 1,000
    _golden("centralpark_60ghz.csv.gz", ("capacity", "cli")),
    _golden("antenna_sweep.csv", ("capacity", "cli")),
    # the bandwidth-scaled uplink SNR 1e100 runs, though ul_pilot_snr * reference_bandwidth_hz
    # overflows; its 40 user counts take the plain path too
    _blocked(["capacity", "--snr-scaling", "bandwidth", "--ul-pilot-snr", "1e200",
              "--reference-bandwidth-hz", "1e200", "--bandwidth-hz", "1e300", "--k-step", "1000",
              "--output", "scaled-snr.csv"], 0, ("capacity", "cli")),
    # paths that the manifest echoes in json's ASCII escapes: non-ASCII, and holding a
    # byte that is not UTF-8, which reaches Python as a lone surrogate
    _golden("fresnel.json", ("cli", "propagation"), "\u00fcn\u00efcode-\u2603-\U0001d11e.json"),
    _golden("fresnel.json", ("cli", "propagation"), "x\udcff.json"),
    # the listings and the usage load no library module
    _golden("list.txt", ("cli",)),
    (["--list"], 0, "list.txt", NUMPY_BLOCKED, ("cli",), AVOIDED),
    _golden("usage.txt", ("cli",)),
    (["--help"], 0, "usage.txt", NUMPY_BLOCKED, ("cli",), AVOIDED),
    # parse and schema rejects load no library module
    _blocked(["--config", "../malformed.ini"], 2, ("cli",)),
    # a command-line key outside the config key grammar is a parse error
    _blocked(["fresnel", "--", "3"], 2, ("cli",)),
    _blocked(["hwbudget", "--overhead-factor", "20"], 3, ("cli",)),
    _blocked(["fresnel", "--freq-ghz", "nan"], 3, ("cli",)),
    _blocked(["warp-drive"], 3, ("cli",)),
    # a missing experiment is invalid input too
    _blocked(["--seed", "3"], 3, ("cli",)),
    _blocked(["fresnel", "--set", "freq_gz=38"], 3, ("cli",)),
    # squint's schema reject comes before its numpy import
    _blocked(["squint", "--center-frequency-hz", "60e9", "--span-hz", "120e9"], 3, ("cli",)),
    # a drift amplitude above 1/8 wavelength is outside mobility's schema
    _blocked(["mobility", "--mu-list", "0.2"], 3, ("cli",)),
    # library checks that relate several parameters are invalid input too; they load
    # the library module that makes them
    # a wavelength c/f that overflows names freq_ghz
    _blocked(["fresnel", "--freq-ghz", "1e-320"], 3, ("cli", "propagation")),
    _blocked(["fresnel", "--freq-ghz", "1e300"], 3, ("cli", "propagation")),
    _blocked(["fresnel", "--d1", "0", "--d2", "0"], 3, ("cli", "propagation")),
    _blocked(["estload", "--subcarriers-per-block", "2000"], 3, ("cli", "propagation")),
    _blocked(["capacity", "--coherence-time-s", "1e-300"], 3, ("capacity", "cli")),
    _blocked(["capacity", "--fine", "true", "--coherence-time-s", "100"], 3, ("capacity", "cli")),
    _blocked(["capacity", "--snr-scaling", "bandwidth", "--ul-pilot-snr", "1e-300",
              "--reference-bandwidth-hz", "1e-300", "--bandwidth-hz", "1e300"], 3,
             ("capacity", "cli")),
    _blocked(["antenna-sweep", "--coherence-time-s", "1e-300"], 3, ("capacity", "cli")),
    _blocked(["capacity", "--k-max", "50000"], 3, ("capacity", "cli")),
    _blocked(["capacity", "--k-min", "50000"], 3, ("capacity", "cli")),
    _blocked(["antenna-sweep", "--k-min", "9", "--k-max", "2"], 3, ("capacity", "cli")),
    _blocked(["capacity", "--dl-ul-power-ratio", "1e308"], 3, ("capacity", "cli")),
    # the runs that need numpy
    _golden("fig4_32x32.csv", SQUINT, env=NUMPY_IMPORTABLE, avoided=UNSEEDED_AVOIDED),
    _golden("fig4_64x64.csv", SQUINT, env=NUMPY_IMPORTABLE, avoided=UNSEEDED_AVOIDED),
    _golden("fig4_128x128.csv", SQUINT, env=NUMPY_IMPORTABLE, avoided=UNSEEDED_AVOIDED),
    _golden("centralpark_3ghz.csv.gz", ("capacity", "cli"), env=NUMPY_IMPORTABLE,
            avoided=UNSEEDED_AVOIDED),
    _golden("hardening.json", MONTE_CARLO, env=NUMPY_IMPORTABLE, avoided=NUMPY_AVOIDED),
    _golden("favorable.json", MONTE_CARLO, env=NUMPY_IMPORTABLE, avoided=NUMPY_AVOIDED),
    _golden("hardening_m10000.json", MONTE_CARLO, env=NUMPY_IMPORTABLE, avoided=NUMPY_AVOIDED),
    *(_golden(name, MONTE_CARLO, "out.json", NUMPY_IMPORTABLE, NUMPY_AVOIDED)
      for name in ("hardening.json", "favorable.json", "hardening_m10000.json")),
]

# one interpreter per environment: it forks once per row of the argument lists, which
# arrive as ascii() wrote them.  Each fork runs its row in its own directory 0, 1, ...
# and writes [exit code, stdout, stderr, modules added to the baseline] to a pipe, in
# ascii() again, so that no module beyond io, os and sys is loaded to report; the interpreter
# reads the pipe to its end before it reaps the fork, and prints one line per row.
SERVER = """
import io, os, sys
if sys.argv[1] == "numpy importable":
    import numpy
else:
    sys.modules["numpy"] = None
baseline = set(sys.modules)
from mimolab.cli import main

for i, args in eval(sys.argv[2]):
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        status = 1
        try:
            os.mkdir(str(i))
            os.chdir(str(i))
            sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
            code = main(args)
            report = ascii([code, sys.stdout.getvalue(), sys.stderr.getvalue(),
                            sorted(set(sys.modules) - baseline)])
            with open(write_end, "wb") as pipe:
                pipe.write(report.encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    with open(read_end, "rb") as pipe:
        report = pipe.read().decode()
    print(report if os.waitpid(pid, 0)[1] == 0 else None)
"""


def _avoids(module, avoided):
    return any(module == name or module.startswith(name + ".") for name in avoided)


def check(directory, envs=(NUMPY_BLOCKED, NUMPY_IMPORTABLE)):
    """Run the rows of envs in rows 0, 1, ... of directory.

    Returns each row's failures and each row's report, [exit code, stdout, stderr,
    modules added] or None, both by row number.
    """
    directory = pathlib.Path(directory)
    (directory / "malformed.ini").write_text("experiment = fresnel\nfreq_ghz 38\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), *sys.path]))
    rows = {env: [(i, row[0]) for i, row in enumerate(ROWS) if row[3] == env] for env in envs}
    # the environments run side by side
    procs = {env: subprocess.Popen(
        [sys.executable, "-S", "-c", SERVER, env, ascii(rows[env])], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, cwd=directory,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
    ) for env in envs}
    failures, reports = {}, {}
    for env, proc in procs.items():
        stdout, stderr = proc.communicate()
        if proc.returncode:
            failure = f"the {env} interpreter exited {proc.returncode}: {stderr}"
            for i, _ in rows[env]:
                failures[i], reports[i] = [failure], None
            continue
        for (i, _), line in zip(rows[env], stdout.splitlines(), strict=True):
            reports[i] = ast.literal_eval(line)
            failures[i] = _row_failures(directory, i, reports[i])
    return failures, reports


def _row_failures(directory, i, report) -> list[str]:
    """What row i's report breaks of the row."""
    args, code, golden, env, modules, avoided = ROWS[i]
    if report is None:
        return ["the fork failed; run the row alone to see why"]
    exit_code, stdout, stderr, added = report
    failures = []
    written = sorted(p.name for p in (directory / str(i)).iterdir())
    if exit_code != code:
        failures.append(f"exit {exit_code}, expected {code}: {stderr}")
    elif code and written:
        failures.append(f"exit {code}, yet it wrote {written}")
    elif stderr and not code:
        failures.append(f"exit 0, yet it wrote to stderr: {stderr}")
    elif str(golden).endswith(".txt") and stdout != (GOLDEN / golden).read_text("utf-8"):
        failures.append(f"stdout is not {golden}")
    loaded = tuple(name.removeprefix("mimolab.") for name in added if name.startswith("mimolab."))
    if loaded != modules:
        failures.append(f"loaded the mimolab modules {list(loaded)}, not {list(modules)}")
    if any(_avoids(name, avoided) for name in added):
        failures.append(f"loaded {[name for name in added if _avoids(name, avoided)]}")
    return failures


if __name__ == "__main__":
    envs = (NUMPY_BLOCKED, NUMPY_IMPORTABLE)
    if importlib.util.find_spec("numpy") is None:
        envs = (NUMPY_BLOCKED,)
    with tempfile.TemporaryDirectory() as scratch:
        failures, _ = check(scratch, envs)
    for i, row_failures in failures.items():
        for failure in row_failures:
            print(f"FAIL  row {i} {ROWS[i][0]} ({ROWS[i][3]}): {failure}")
    if len(failures) < len(ROWS):
        print(f"numpy cannot be imported: skipped the {len(ROWS) - len(failures)} "
              f"{NUMPY_IMPORTABLE} rows")
    failed = sum(bool(row_failures) for row_failures in failures.values())
    print(f"{len(failures)} rows, {failed} failed")
    sys.exit(1 if failed else 0)

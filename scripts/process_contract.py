#!/usr/bin/env python3
"""Run every row of the CLI's process contract: python scripts/process_contract.py.

ROWS holds one row per mimolab run: its argv, its exit code, the golden file
of its output or of its stdout (None for neither), its environment, the
``mimolab`` modules it leaves loaded, the modules it must not add, and the
golden's comparison rule.  ROWS is the one table of the mimolab goldens: the
row that writes a golden under its own name (a .txt golden is its stdout)
states that golden's argv and its rule, the number of leading CSV columns
compared exactly and whether the golden is pinned byte for byte.  Every other
row that names a golden (another --output name, --list, --help, --set
config=) takes the rule from that row.  goldens.py copies the own rows'
outputs into tests/golden/.

check() starts ``python -S`` interpreters side by side, one for the
NUMPY_BLOCKED rows and two for the slower NUMPY_IMPORTABLE rows, which
alternate between them; -S skips site, whose .pth files may preload modules
that the CLI itself avoids.
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
name, or a package with its submodules), or if its fork fails.  An exit-0 row
with any other golden fails unless its output and manifest keep the golden's
rule (golden_failures).  Tier-1 runs check() once per session, in both
environments, and collects the goldens from the same run.  Where numpy cannot
be imported at all, the script skips the NUMPY_IMPORTABLE rows and says so.
It prints each failure and exits 1 if there is any.
"""

import ast
import gzip
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
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


def _golden(name, args, modules, exact=0, pinned=False, env=NUMPY_BLOCKED, avoided=AVOIDED):
    """The row that writes golden ``name`` under its own name (a .csv.gz golden's CSV,
    uncompressed), or prints it, with its rule: ``exact`` leading CSV columns compared
    exactly, and whether it is ``pinned`` byte for byte."""
    if not name.endswith(".txt"):
        args = [*args, "--output", name.removesuffix(".gz")]
    return args, 0, name, env, modules, avoided, (exact, pinned)


def _alias(args, name, modules, env=NUMPY_BLOCKED, avoided=AVOIDED):
    """Another run of golden ``name``, compared by the rule of the golden's own row."""
    return args, 0, name, env, modules, avoided, None


def _blocked(args, code, modules):
    """A run without a golden, where numpy cannot be imported."""
    return args, code, None, NUMPY_BLOCKED, modules, AVOIDED, None


# (argv, exit code, golden file of the output or of stdout, environment,
#  mimolab modules left loaded, modules it must not add, rule of its own golden row)
ROWS = [
    _golden("fresnel.json", ["fresnel"], ("cli", "propagation")),
    _golden("linkbudget.json", ["linkbudget", "--entry-window", "-40", "--entry-foliage", "-12.5"],
            ("cli", "propagation")),
    _golden("estload_paper.json", ["--config", "estload_paper"], ("cli", "propagation")),
    # --config is the shorthand of the reserved key config
    _alias(["--set", "config=estload_paper", "--output", "estload.json"], "estload_paper.json",
           ("cli", "propagation")),
    _golden("adc_128v8.json", ["--config", "adc_128v8"], ("cli", "hardware")),
    # the seeded Monte-Carlo kernels promise bit-identical results
    _golden("mobility_bound.json", ["--config", "mobility_bound"], ("cli", "propagation"),
            pinned=True),
    # a pinned output, and its manifest's values, do not depend on the --output name
    _alias(["--config", "mobility_bound", "--output", "out.json"], "mobility_bound.json",
           ("cli", "propagation")),
    # rate sweeps of at most capacity.PLAIN_MAX_EVALUATIONS rate evaluations take the plain
    # path, numpy installed or not: 2,000 user counts, and 4 antenna counts x 1,000; in the
    # rate CSVs m_antennas and k_users are integers, compared exactly
    _golden("centralpark_60ghz.csv.gz", ["--config", "centralpark_60ghz"], ("capacity", "cli"),
            exact=2),
    _golden("antenna_sweep.csv", ["antenna-sweep"], ("capacity", "cli"), exact=2),
    # the bandwidth-scaled uplink SNR 1e100 runs, though ul_pilot_snr * reference_bandwidth_hz
    # overflows; its 40 user counts take the plain path too
    _blocked(["capacity", "--snr-scaling", "bandwidth", "--ul-pilot-snr", "1e200",
              "--reference-bandwidth-hz", "1e200", "--bandwidth-hz", "1e300", "--k-step", "1000",
              "--output", "scaled-snr.csv"], 0, ("capacity", "cli")),
    # paths that the manifest echoes in json's ASCII escapes: non-ASCII, and holding a
    # byte that is not UTF-8, which reaches Python as a lone surrogate
    _alias(["fresnel", "--output", "\u00fcn\u00efcode-\u2603-\U0001d11e.json"], "fresnel.json",
           ("cli", "propagation")),
    _alias(["fresnel", "--output", "x\udcff.json"], "fresnel.json", ("cli", "propagation")),
    # the listings and the usage load no library module
    _golden("list.txt", ["list"], ("cli",), pinned=True),
    _alias(["--list"], "list.txt", ("cli",)),
    _golden("usage.txt", [], ("cli",), pinned=True),
    _alias(["--help"], "usage.txt", ("cli",)),
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
    # in the squint CSVs the frequency column is exact
    _golden("fig4_32x32.csv", ["--config", "fig4_32x32"], SQUINT, exact=1, env=NUMPY_IMPORTABLE,
            avoided=UNSEEDED_AVOIDED),
    _golden("fig4_64x64.csv", ["--config", "fig4_64x64"], SQUINT, exact=1, env=NUMPY_IMPORTABLE,
            avoided=UNSEEDED_AVOIDED),
    _golden("fig4_128x128.csv", ["--config", "fig4_128x128"], SQUINT, exact=1,
            env=NUMPY_IMPORTABLE, avoided=UNSEEDED_AVOIDED),
    _golden("centralpark_3ghz.csv.gz", ["--config", "centralpark_3ghz"], ("capacity", "cli"),
            exact=2, env=NUMPY_IMPORTABLE, avoided=UNSEEDED_AVOIDED),
    _golden("hardening.json", ["hardening"], MONTE_CARLO, pinned=True, env=NUMPY_IMPORTABLE,
            avoided=NUMPY_AVOIDED),
    _golden("favorable.json", ["favorable"], MONTE_CARLO, pinned=True, env=NUMPY_IMPORTABLE,
            avoided=NUMPY_AVOIDED),
    _golden("hardening_m10000.json", ["hardening", "--m-antennas", "10000", "--n-draws", "1000"],
            MONTE_CARLO, pinned=True, env=NUMPY_IMPORTABLE, avoided=NUMPY_AVOIDED),
    _alias(["hardening", "--output", "out.json"], "hardening.json", MONTE_CARLO,
           NUMPY_IMPORTABLE, NUMPY_AVOIDED),
    _alias(["favorable", "--output", "out.json"], "favorable.json", MONTE_CARLO,
           NUMPY_IMPORTABLE, NUMPY_AVOIDED),
    _alias(["hardening", "--m-antennas", "10000", "--n-draws", "1000", "--output", "out.json"],
           "hardening_m10000.json", MONTE_CARLO, NUMPY_IMPORTABLE, NUMPY_AVOIDED),
]
# each golden's rule, from its own row
RULES = {golden: rule for _, _, golden, *_, rule in ROWS if rule}


def _content(path):
    """A file's bytes, decompressed when it is gzipped."""
    data = path.read_bytes()
    return gzip.decompress(data) if path.name.endswith(".gz") else data


def _close(value, golden):
    return value == golden or abs(value - golden) <= 1e-12 * abs(golden)


def _csv_failures(text, golden_text, exact, where):
    """Where a CSV leaves its golden's header, shape or first ``exact`` columns, or the rest
    by more than rel 1e-12."""
    (header, *rows), (golden_header, *golden_rows) = (
        [line.split(",") for line in t.strip().split("\n")] for t in (text, golden_text))
    if header != golden_header:
        return [f"{where}: header {header}, golden {golden_header}"]
    if list(map(len, rows)) != list(map(len, golden_rows)):
        return [f"{where}: not the shape of the golden"]
    for line, (row, golden_row) in enumerate(zip(rows, golden_rows), 2):
        for j, (value, golden) in enumerate(zip(map(float, row), map(float, golden_row))):
            if value != golden and (j < exact or not _close(value, golden)):
                return [f"{where} line {line} {header[j]}: {value!r}, golden {golden!r}"]
    return []


def _json_failures(value, golden, where):
    """Where a JSON value leaves its golden's keys or non-float values, or its floats by
    more than rel 1e-12."""
    if type(value) is not type(golden):
        return [f"{where}: {value!r}, golden {golden!r}"]
    if isinstance(golden, dict):
        if list(value) != list(golden):
            return [f"{where}: keys {list(value)}, golden {list(golden)}"]
        pairs = [(value[key], golden[key], f"{where}.{key}") for key in golden]
    elif isinstance(golden, list):
        if len(value) != len(golden):
            return [f"{where}: {len(value)} items, golden {len(golden)}"]
        pairs = [(v, g, f"{where}[{i}]") for i, (v, g) in enumerate(zip(value, golden))]
    else:
        close = isinstance(golden, float) and _close(value, golden)
        return [] if value == golden or close else [f"{where}: {value!r}, golden {golden!r}"]
    return [failure for pair in pairs for failure in _json_failures(*pair)]


def golden_failures(directory, output, name) -> list[str]:
    """What the file ``output`` in directory, and its manifest, break of golden ``name``.

    Equal bytes pass, and a pinned golden passes only them.  Otherwise a CSV
    must keep the golden's header, shape and exact columns, and a JSON its keys
    and non-float values; their other floats must agree to a relative 1e-12.
    The output of a .csv.gz golden may be its CSV, uncompressed.  A .txt golden
    has no manifest.  The manifest echoes ``output`` where the golden manifest
    echoes the golden's own name; with that line swapped, it must be byte for
    byte the golden manifest when the output is byte for byte its golden, and
    keep the JSON rule otherwise.
    """
    exact, pinned = RULES[name]
    path = pathlib.Path(directory, output)
    if not path.is_file():
        return [f"wrote no {output}"]
    data, golden = _content(path), _content(GOLDEN / name)
    if data == golden:
        failures = []
    elif pinned:
        failures = [f"{output} is not byte for byte {name}"]
    elif ".csv" in name:
        failures = _csv_failures(data.decode(), golden.decode(), exact, output)
    else:
        failures = _json_failures(json.loads(data), json.loads(golden), output)
    if name.endswith(".txt"):
        return failures
    output, name = output.removesuffix(".gz"), name.removesuffix(".gz")
    path = pathlib.Path(directory, f"{output}.manifest.json")
    echo = '\n  "output": {},\n'.format
    manifest = path.read_text() if path.is_file() else ""
    if echo(json.dumps(output)) not in manifest:
        return [*failures, f"{path.name} does not echo the output {output!r}"]
    manifest = manifest.replace(echo(json.dumps(output)), echo(json.dumps(name)))
    golden_manifest = (GOLDEN / f"{name}.manifest.json").read_text()
    if data == golden:
        return [] if manifest == golden_manifest else [
            f"{path.name} is not byte for byte {name}.manifest.json"]
    return failures + _json_failures(json.loads(manifest), json.loads(golden_manifest), path.name)


# an interpreter of one environment: it forks once per row of the argument lists, which
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
    parts = []
    for env in envs:
        n = 2 if env == NUMPY_IMPORTABLE else 1
        parts += [(env, rows[env][k::n]) for k in range(n)]
    procs = [(env, part, subprocess.Popen(
        [sys.executable, "-S", "-c", SERVER, env, ascii(part)], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, cwd=directory,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
    )) for env, part in parts]
    failures, reports = {}, {}
    for env, part, proc in procs:
        stdout, stderr = proc.communicate()
        if proc.returncode:
            failure = f"the {env} interpreter exited {proc.returncode}: {stderr}"
            for i, _ in part:
                failures[i], reports[i] = [failure], None
            continue
        for (i, _), line in zip(part, stdout.splitlines(), strict=True):
            reports[i] = ast.literal_eval(line)
            failures[i] = _row_failures(directory, i, reports[i])
    return failures, reports


def _row_failures(directory, i, report) -> list[str]:
    """What row i's report breaks of the row."""
    args, code, golden, _, modules, avoided, _ = ROWS[i]
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
    if not code and golden and not golden.endswith(".txt"):
        failures += golden_failures(directory / str(i), args[args.index("--output") + 1], golden)
    return failures


if __name__ == "__main__":
    envs = (NUMPY_BLOCKED, NUMPY_IMPORTABLE)
    if importlib.util.find_spec("numpy") is None:
        envs = (NUMPY_BLOCKED,)
    with tempfile.TemporaryDirectory() as scratch:
        failures, _ = check(scratch, envs)
    sys.stdout.reconfigure(errors="backslashreplace")  # an output name may hold a lone surrogate
    for i, row_failures in failures.items():
        for failure in row_failures:
            print(f"FAIL  row {i} {ROWS[i][0]} ({ROWS[i][3]}): {failure}")
    if len(failures) < len(ROWS):
        print(f"numpy cannot be imported: skipped the {len(ROWS) - len(failures)} "
              f"{NUMPY_IMPORTABLE} rows")
    failed = sum(bool(row_failures) for row_failures in failures.values())
    print(f"{len(failures)} rows, {failed} failed")
    sys.exit(1 if failed else 0)

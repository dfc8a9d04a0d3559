#!/usr/bin/env python3
"""Run every row of the CLI's process contract: python scripts/process_contract.py [DIR].

ROWS holds one Row per mimolab run: its argv, its exit code, the golden file
of its output or of its stdout (None for neither), its environment, the
``mimolab`` modules it leaves loaded, the modules it must not add, the
golden's comparison rule, and the stderr of a non-zero exit.  The table owns
the CLI's contract at the level of argv: every run that needs only its argv,
successful or rejected, is a row; tests that need a patched library, files
set up beforehand or a real entry path stay in tests/test_cli.py.  ROWS is
also the one table of the mimolab goldens: the row that writes a golden under
its own name (a .txt golden is its stdout) states that golden's argv and its
rule, the number of leading CSV columns compared exactly and whether the
golden is pinned byte for byte.  Every other row that names a golden (another
--output name, --list, --help, --set config=) takes the rule from that row.
goldens.py copies the own rows' outputs into tests/golden/.

check() starts ``python -S`` interpreters side by side, one for the
NUMPY_BLOCKED rows and two for the slower NUMPY_IMPORTABLE rows, which
alternate between them; -S skips site, whose .pth files may preload modules
that the CLI itself avoids.
- NUMPY_BLOCKED: importing numpy raises.  The closed-form experiments, the
  small rate sweeps, the listings and every reject that comes before numpy
  run here, so each also shows that it loads no numpy.
- NUMPY_IMPORTABLE: numpy is imported before the baseline is taken, as numpy
  1.x loads ``numpy.random`` along with numpy itself; one BLAS thread keeps
  the interpreter to one thread, so that it forks safely.  The runs that need
  numpy, and the rejects made after it loads, run here.
Each interpreter takes its module baseline before it imports
``mimolab.cli``, so a module that ``cli.py`` itself imports counts against
every row, and from there on reads and writes bytecode in a cache that all
three share for the run, so that a module imported by many forks compiles
once even where bytecode is off.  It freezes the objects it holds, so that a
fork's collections skip them, and then forks once per row; the fork runs ``main`` in the row's
own directory 0, 1, ... with stdout and stderr captured, and reports its exit
code, its stdout, its stderr and the modules it added to the baseline.
check() returns each row's failures and each row's report.

A row fails if it exits with another code, exits non-zero yet writes a file
or prints anything on stdout, exits non-zero with another stderr than its
row's, exits 0 yet writes to stderr, prints other than its .txt golden,
leaves loaded other ``mimolab`` modules than its own, or adds a module it
must not add (a name, or a package with its submodules), or if its fork
fails.  A non-zero row's stderr is either an exact text (ending in a newline)
or a field: its one stderr line must then start
``invalid configuration: FIELD: ``.  An exit-0 row with any other golden
fails unless its output and manifest keep the golden's rule (golden_failures).  Tier-1 runs check() once per session, in
both environments, and collects the goldens from the same run.  Where numpy
cannot be imported at all, the script skips the NUMPY_IMPORTABLE rows and
says so.  The rows run in DIR, which is made if missing and kept, or else in
a temporary directory.  The script prints each failure and exits 1 if there
is any.
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
from typing import NamedTuple

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
# nor does a run that draws no numpy random numbers add numpy.random or hashlib: only the
# Monte-Carlo runs (channels) draw them; squint draws its phases from rng's plain-Python PCG64
UNSEEDED_AVOIDED = (*NUMPY_AVOIDED, "numpy.random", "hashlib", "_hashlib")

SQUINT = ("beamforming", "cli", "geometry", "rng", "scenarios")
MONTE_CARLO = ("channels", "cli", "rng")
CAPACITY = ("capacity", "cli")
PROPAGATION = ("cli", "propagation")
HARDWARE = ("cli", "hardware")


class Row(NamedTuple):
    args: list  # argv
    code: int  # exit code
    golden: str | None  # golden file of its output or of its stdout
    env: str  # NUMPY_BLOCKED or NUMPY_IMPORTABLE
    modules: tuple  # mimolab modules it leaves loaded
    avoided: tuple  # modules it must not add
    rule: tuple | None  # (exact CSV columns, pinned) of its own golden's row
    stderr: str | None  # of a non-zero exit: its exact text, or the field it names


def _row(args, code, golden, modules, env, rule=None, stderr=None):
    """A row, with the modules it must not add, which follow from its environment and its
    mimolab modules."""
    if env == NUMPY_BLOCKED:
        avoided = AVOIDED
    else:
        avoided = NUMPY_AVOIDED if "channels" in modules else UNSEEDED_AVOIDED
    return Row(args, code, golden, env, modules, avoided, rule, stderr)


def _golden(name, args, modules, exact=0, pinned=False, env=NUMPY_BLOCKED):
    """The row that writes golden ``name`` under its own name (a .csv.gz golden's CSV,
    uncompressed), or prints it, with its rule: ``exact`` leading CSV columns compared
    exactly, and whether it is ``pinned`` byte for byte."""
    if not name.endswith(".txt"):
        args = [*args, "--output", name.removesuffix(".gz")]
    return _row(args, 0, name, modules, env, rule=(exact, pinned))


def _alias(args, name, modules, env=NUMPY_BLOCKED):
    """Another run of golden ``name``, compared by the rule of the golden's own row."""
    return _row(args, 0, name, modules, env)


def _run(args, modules, env=NUMPY_BLOCKED):
    """A run without a golden that exits 0."""
    return _row(args, 0, None, modules, env)


def _reject(args, code, stderr, modules=("cli",), env=NUMPY_BLOCKED):
    """A run that exits ``code`` non-zero; ``stderr`` is its exact stderr text, or, without a
    final newline, the field that its one stderr line names."""
    return _row(args, code, None, modules, env, stderr=stderr)


# a command-line error is exit 2 with a message that names no position
PARSE_ERRORS = [_reject(args, 2, f"parse error: {message}\n") for args, message in [
    (["fresnel", "--seed"], "flag --seed needs a value"),
    (["fresnel", "--set", "d1"], "--set expects key=value, got 'd1'"),
    (["fresnel", "-x"], "unknown flag '-x'"),
    (["fresnel", "squint"], "unexpected arguments: ['squint']"),
    (["list", "squint"], "unexpected arguments: ['squint']"),
    # a listing is the only token on its line
    (["--list", "squint"], "unexpected arguments: ['squint']"),
    (["squint", "--list"], "unexpected arguments: ['--list']"),
    (["list", "--seed", "3", "--output", "x.json"],
     "a listing takes no other argument, got '--seed'"),
    (["--seed", "3", "--list"], "a listing takes no other argument, got '--seed'"),
    (["--list", "--set", "seed=3"], "a listing takes no other argument, got '--set'"),
    # command-line keys follow a config file's key grammar
    (["fresnel", "--", "3"], "invalid key ''"),
    (["fresnel", "--set", "=3"], "invalid key ''"),
    (["fresnel", "--Seed", "3"], "invalid key 'Seed'"),
    (["linkbudget", "--set", "entry_X=3"], "invalid key 'entry_X'"),
    (["fresnel", "--seed\n", "5"], "invalid key 'seed\\n'"),
]]
# a value outside its schema, or outside a library check across fields, exits 3 naming the
# field; a library check loads the module that makes it
OUT_OF_RANGE = [_reject(args, 3, field, *where) for args, field, *where in [
    (["squint", "--set", "n_points=1"], "n_points"),
    # past the bound that keeps the center channel vector within memory
    (["squint", "--rows", "20000"], "rows"),
    # past the bound that keeps the per-point CSV rows within memory
    (["squint", "--n-points", "1000001"], "n_points"),
    # past the bounds that keep the per-draw antenna samples within memory
    (["hardening", "--m-antennas", "10000001"], "m_antennas"),
    (["favorable", "--m-antennas", "10000001"], "m_antennas"),
    (["mobility", "--m-antennas", "10000001"], "m_antennas"),
    # past the bound that keeps the per-K CSV rows within memory: 1,040,000 user counts
    (["capacity", "--fine", "true", "--coherence-time-s", "2.6"], "k_step", CAPACITY),
    (["antenna-sweep", "--fine", "true", "--coherence-time-s", "2.6"], "k_step", CAPACITY),
    # coherence blocks of no sample and of more than 2**53 samples
    (["capacity", "--coherence-time-s", "1e-9"], "coherence_time_s", CAPACITY),
    (["capacity", "--coherence-time-s", "1e12"], "coherence_time_s", CAPACITY),
    (["antenna-sweep", "--coherence-bandwidth-hz", "1"], "coherence_time_s", CAPACITY),
    # a coherence block of infinitely many samples
    (["capacity", "--coherence-time-s", "1.7e308"], "coherence_time_s", CAPACITY),
    (["antenna-sweep", "--coherence-time-s", "1.7e308"], "coherence_time_s", CAPACITY),
    # half a wavelength at the center frequency underflows to 0 m; the array checks it
    (["squint", "--center-frequency-hz", "1.7e308"], "center_frequency_hz", SQUINT,
     NUMPY_IMPORTABLE),
    # the bandwidth-scaled uplink SNR underflows to 0
    (["capacity", "--snr-scaling", "bandwidth", "--ul-pilot-snr", "1e-300",
      "--reference-bandwidth-hz", "1e-300", "--bandwidth-hz", "1e300"], "ul_pilot_snr", CAPACITY),
    # the K grid against the coherence block of 40,000 samples
    (["capacity", "--k-max", "50000"], "k_max", CAPACITY),
    (["capacity", "--k-min", "50000"], "k_min", CAPACITY),
    (["antenna-sweep", "--k-min", "9", "--k-max", "2"], "k_min", CAPACITY),
    # a link of zero length, and a channel block wider than the subcarrier grid
    (["fresnel", "--d1", "0", "--d2", "0"], "d1", PROPAGATION),
    (["estload", "--subcarriers-per-block", "2000"], "subcarriers_per_block", PROPAGATION),
    # half a wavelength at the center frequency overflows to inf m
    (["squint", "--center-frequency-hz", "5e-301", "--span-hz", "1e-301", "--rows", "1",
      "--cols", "1"], "center_frequency_hz", SQUINT, NUMPY_IMPORTABLE),
    # SNR products that overflow: the downlink SNR dl_ul_power_ratio * rho_ul, the
    # bandwidth-scaled uplink SNR, and the pilot energy K * rho_ul of the largest K
    (["capacity", "--dl-ul-power-ratio", "1e308", "--k-step", "1000"], "dl_ul_power_ratio",
     CAPACITY),
    (["antenna-sweep", "--dl-ul-power-ratio", "1e308"], "dl_ul_power_ratio", CAPACITY),
    (["capacity", "--ul-pilot-snr", "1e200", "--dl-ul-power-ratio", "1e200", "--k-step", "1000"],
     "dl_ul_power_ratio", CAPACITY),
    (["capacity", "--ul-pilot-snr", "1e308", "--snr-scaling", "bandwidth",
      "--reference-bandwidth-hz", "1e10", "--bandwidth-hz", "1", "--k-step", "1000"],
     "ul_pilot_snr", CAPACITY),
    (["capacity", "--ul-pilot-snr", "1e305", "--dl-ul-power-ratio", "1"], "ul_pilot_snr",
     CAPACITY),
    # a wavelength c/f that overflows to inf m, and a frequency of 1e309 Hz
    (["fresnel", "--freq-ghz", "1e-320"], "freq_ghz", PROPAGATION),
    (["fresnel", "--freq-ghz", "1e300"], "freq_ghz", PROPAGATION),
]]
NON_FINITE_VALUES = [_reject(args, 3, field) for args, field in [
    (["squint", "--span-hz", "nan", "--output", "out.txt"], "span_hz"),
    (["fresnel", "--freq-ghz", "nan"], "freq_ghz"),
    (["capacity", "--ul-pilot-snr", "inf", "--output", "out.txt"], "ul_pilot_snr"),
    (["fresnel", "--d1", "-inf", "--output", "out.txt"], "d1"),
    (["squint", "--rows", "nan", "--output", "out.txt"], "rows"),
    (["mobility", "--mu-list", "0.1,nan", "--output", "out.txt"], "mu_list"),
    # finite, but 2**enob overflows a double
    (["hwbudget", "--enob-a", "2000", "--output", "out.txt"], "enob_a"),
    # no formula reads the carrier, so only the schema can reject it
    (["capacity", "--carrier-hz", "nan", "--output", "out.txt"], "carrier_hz"),
]]
# valid input whose result is not a finite number exits 4 naming the first such quantity
NON_FINITE_RESULTS = [_reject(args, 4, f"runtime failure: {message}\n", modules)
                      for args, message, modules in [
    (["estload", "--m-antennas", "1000000000000000000000", "--coherence-time-s", "1e-320",
      "--output", "out.txt"], "estimates_per_second is inf, not a finite number", PROPAGATION),
    (["capacity", "--bandwidth-hz", "1e308", "--set", "k_step=1000", "--output", "out.txt"],
     "rate_per_ue_bps in data row 1 is inf, not a finite number", CAPACITY),
    # only in CSV rows; the manifest stays finite
    (["antenna-sweep", "--bandwidth-hz", "1e308", "--set", "k_step=1000", "--output", "out.txt"],
     "rate_per_ue_bps in data row 1 is inf, not a finite number", CAPACITY),
    # FOM * fs * 2**ENOB overflows to inf
    (["hwbudget", "--fom-j-per-cs", "1e300", "--enob-a", "1000", "--output", "out.txt"],
     "adc_a.unit_power_w is inf, not a finite number", HARDWARE),
    # math.fsum raises on overflow instead of returning inf
    (["linkbudget", "--entry-a", "1e308", "--entry-b", "1e308", "--output", "out.txt"],
     "total_db: intermediate overflow in fsum", PROPAGATION),
    # M*K*blocks is an integer past the double range
    (["estload", "--m-antennas", "1e200", "--k-users", "1e200", "--output", "out.txt"],
     "estimates_per_second is inf, not a finite number", PROPAGATION),
]]

ROWS = [
    _golden("fresnel.json", ["fresnel"], PROPAGATION),
    _golden("linkbudget.json", ["linkbudget", "--entry-window", "-40", "--entry-foliage", "-12.5"],
            PROPAGATION),
    _golden("estload_paper.json", ["--config", "estload_paper"], PROPAGATION),
    # --config is the shorthand of the reserved key config
    _alias(["--set", "config=estload_paper", "--output", "estload.json"], "estload_paper.json",
           PROPAGATION),
    _golden("adc_128v8.json", ["--config", "adc_128v8"], HARDWARE),
    # the seeded Monte-Carlo kernels promise bit-identical results
    _golden("mobility_bound.json", ["--config", "mobility_bound"], PROPAGATION, pinned=True),
    # a pinned output, and its manifest's values, do not depend on the --output name
    _alias(["--config", "mobility_bound", "--output", "out.json"], "mobility_bound.json",
           PROPAGATION),
    # an odd M, whose least drift gain sits above the bound, beside mu = 0
    _run(["mobility", "--m-antennas", "1", "--mu-list", "0,0.125", "--n-draws", "1000", "--seed",
          "3", "--output", "mobility.json"], PROPAGATION),
    # rate sweeps of at most capacity.PLAIN_MAX_EVALUATIONS rate evaluations take the plain
    # path, numpy installed or not: 2,000 user counts, and 4 antenna counts x 1,000; in the
    # rate CSVs m_antennas and k_users are integers, compared exactly
    _golden("centralpark_60ghz.csv.gz", ["--config", "centralpark_60ghz"], CAPACITY, exact=2),
    _golden("antenna_sweep.csv", ["antenna-sweep"], CAPACITY, exact=2),
    # the bandwidth-scaled uplink SNR 1e100 runs, though ul_pilot_snr * reference_bandwidth_hz
    # overflows; its 40 user counts take the plain path too
    _run(["capacity", "--snr-scaling", "bandwidth", "--ul-pilot-snr", "1e200",
          "--reference-bandwidth-hz", "1e200", "--bandwidth-hz", "1e300", "--k-step", "1000",
          "--output", "scaled-snr.csv"], CAPACITY),
    # an M beyond uint64 in both rate CSVs, on the plain path
    _run(["capacity", "--m-antennas", "18446744073709551617", "--k-step", "1000", "--output",
          "capacity_big_m.csv"], CAPACITY),
    _run(["antenna-sweep", "--m-grid", "100,18446744073709551617", "--output",
          "antenna_sweep_big_m.csv"], CAPACITY),
    # paths that the manifest echoes in json's ASCII escapes: non-ASCII, and holding a
    # byte that is not UTF-8, which reaches Python as a lone surrogate
    _alias(["fresnel", "--output", "\u00fcn\u00efcode-\u2603-\U0001d11e.json"], "fresnel.json",
           PROPAGATION),
    _alias(["fresnel", "--output", "x\udcff.json"], "fresnel.json", PROPAGATION),
    # the listings and the usage load no library module
    _golden("list.txt", ["list"], ("cli",), pinned=True),
    _alias(["--list"], "list.txt", ("cli",)),
    _golden("usage.txt", [], ("cli",), pinned=True),
    _alias(["--help"], "usage.txt", ("cli",)),
    # help stops at its own token, whatever else the line holds
    *(_alias(args, "usage.txt", ("cli",)) for args in (["--list", "--help"], ["list", "-h"],
                                                        ["--help", "--list"])),
    # parse and schema rejects load no library module
    _reject(["--config", "../malformed.ini"], 2,
            "parse error: line 2, column 1: expected 'key = value'\n"),
    *PARSE_ERRORS,
    _reject(["hwbudget", "--overhead-factor", "20"], 3, "overhead_factor"),
    # an unknown experiment is named, beside every known one
    _reject(["warp-drive"], 3, "invalid configuration: experiment: expected one of ('squint', "
            "'capacity', 'antenna-sweep', 'mobility', 'fresnel', 'linkbudget', 'estload', "
            "'hwbudget', 'hardening', 'favorable'), got 'warp-drive'\n"),
    # a missing experiment is invalid input too
    _reject(["--seed", "3"], 3, "experiment"),
    _reject(["fresnel", "--set", "freq_gz=38"], 3, "freq_gz"),
    _reject(["fresnel", "--set", "freq_ghz=fast"], 3, "freq_ghz"),
    # a ledger entry without a label is an unknown parameter
    *(_reject(["linkbudget", *args, "--output", "lb.json"], 3,
              "invalid configuration: entry_: unknown parameter for experiment 'linkbudget'\n")
      for args in (["--set", "entry_=3"], ["--entry-", "3"])),
    _reject(["--config", "no_such_file.ini"], 3, "config"),
    # squint's schema reject comes before its numpy import
    _reject(["squint", "--center-frequency-hz", "60e9", "--span-hz", "120e9"], 3, "span_hz"),
    _reject(["squint", "--set", "center_frequency_hz=60e9", "--set", "span_hz=120e9"], 3,
            "span_hz"),
    # 201 points within 1e-6 Hz of 60 GHz round onto a few distinct doubles
    _reject(["squint", "--rows", "4", "--cols", "4", "--span-hz", "1e-6"], 3, "span_hz", SQUINT,
            NUMPY_IMPORTABLE),
    # a drift amplitude above 1/8 wavelength is outside mobility's schema
    _reject(["mobility", "--mu-list", "0.2"], 3, "mu_list"),
    _reject(["mobility", "--set", "mu_list=0.3"], 3, "mu_list"),
    *NON_FINITE_VALUES,
    *OUT_OF_RANGE,
    _reject(["capacity", "--coherence-time-s", "1e-300"], 3, "coherence_time_s", CAPACITY),
    _reject(["capacity", "--fine", "true", "--coherence-time-s", "100"], 3, "k_step", CAPACITY),
    _reject(["antenna-sweep", "--coherence-time-s", "1e-300"], 3, "coherence_time_s", CAPACITY),
    _reject(["capacity", "--dl-ul-power-ratio", "1e308"], 3, "dl_ul_power_ratio", CAPACITY),
    *NON_FINITE_RESULTS,
    # both converter powers underflow to 0 W, so the ratio has no value
    _reject(["hwbudget", "--fom-j-per-cs", "1e-320", "--sample-rate-hz", "1e-10", "--enob-a", "1",
             "--enob-b", "1", "--output", "out.json"], 4,
            "runtime failure: adc_power_ratio_a_over_b: array B's ADC power underflows to 0 W\n",
            HARDWARE),
    # finite SNRs, but M*gamma*rho_dl/K overflows: an infinite SINR and SE, and a nan SE
    # (1 - 1) * inf at K = tau_c; none warns, on the plain path (40 rows) or numpy's (40,000)
    *(_reject(["capacity", "--m-antennas", "1e300", "--dl-ul-power-ratio", "1e10", "--k-step",
               k_step, "--output", "out.csv"], 4,
              "runtime failure: se_per_ue in data row 1 is inf, not a finite number\n", CAPACITY,
              env) for k_step, env in (("1000", NUMPY_BLOCKED), ("1", NUMPY_IMPORTABLE))),
    # the runs that need numpy; the NUMPY_IMPORTABLE rows alternate between two interpreters
    # in table order, which puts the 100,000-row sweep and squint 2048x1024, and the
    # hardening runs, on different ones
    # in the squint CSVs the frequency column is exact
    _golden("fig4_32x32.csv", ["--config", "fig4_32x32"], SQUINT, exact=1, env=NUMPY_IMPORTABLE),
    # squint's analog beam in two row blocks of 2**20 elements, over a batch of 16
    # frequencies and a tail of 4
    _run(["squint", "--rows", "2048", "--cols", "1024", "--n-points", "20", "--output",
          "squint_2048x1024.csv"], SQUINT, NUMPY_IMPORTABLE),
    # 100,000 rows: the CSV writer's row blocks, about 25 of them, and their seams
    _run(["capacity", "--coherence-time-s", "0.25", "--set", "fine=true", "--output",
          "capacity.csv"], CAPACITY, NUMPY_IMPORTABLE),
    _golden("centralpark_3ghz.csv.gz", ["--config", "centralpark_3ghz"], CAPACITY, exact=2,
            env=NUMPY_IMPORTABLE),
    _golden("fig4_64x64.csv", ["--config", "fig4_64x64"], SQUINT, exact=1, env=NUMPY_IMPORTABLE),
    _golden("hardening.json", ["hardening"], MONTE_CARLO, pinned=True, env=NUMPY_IMPORTABLE),
    _golden("fig4_128x128.csv", ["--config", "fig4_128x128"], SQUINT, exact=1,
            env=NUMPY_IMPORTABLE),
    _golden("favorable.json", ["favorable"], MONTE_CARLO, pinned=True, env=NUMPY_IMPORTABLE),
    _golden("hardening_m10000.json", ["hardening", "--m-antennas", "10000", "--n-draws", "1000"],
            MONTE_CARLO, pinned=True, env=NUMPY_IMPORTABLE),
    _alias(["hardening", "--output", "out.json"], "hardening.json", MONTE_CARLO, NUMPY_IMPORTABLE),
    _alias(["favorable", "--output", "out.json"], "favorable.json", MONTE_CARLO, NUMPY_IMPORTABLE),
    _alias(["hardening", "--m-antennas", "10000", "--n-draws", "1000", "--output", "out.json"],
           "hardening_m10000.json", MONTE_CARLO, NUMPY_IMPORTABLE),
    # Monte-Carlo seams that the golden runs miss: a tail group of one entry past 1,024
    # hashed seeds; one pair a block; blocks of 1,365 children cut to 1,364, so that each
    # holds whole pairs
    _run(["hardening", "--m-antennas", "17", "--n-draws", "1025", "--output",
          "hardening_m17.json"], MONTE_CARLO, NUMPY_IMPORTABLE),
    _run(["favorable", "--m-antennas", "4097", "--n-pairs", "3", "--output",
          "favorable_m4097.json"], MONTE_CARLO, NUMPY_IMPORTABLE),
    _run(["favorable", "--m-antennas", "3", "--n-pairs", "700", "--output", "favorable_m3.json"],
         MONTE_CARLO, NUMPY_IMPORTABLE),
]
# each golden's rule, from its own row
RULES = {row.golden: row.rule for row in ROWS if row.rule}


def _content(path):
    """A file's bytes, decompressed when they are gzip's."""
    data = path.read_bytes()
    return gzip.decompress(data) if data.startswith(b"\x1f\x8b") else data


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
# from here on the forks share one bytecode cache, so that each module compiles once
sys.dont_write_bytecode, sys.pycache_prefix = False, sys.argv[3]
from mimolab.cli import main
import gc
gc.freeze()  # a fork's collections then skip the objects loaded so far, which stay shared

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
    rows = {env: [(i, row.args) for i, row in enumerate(ROWS) if row.env == env] for env in envs}
    parts = []
    for env in envs:
        n = 2 if env == NUMPY_IMPORTABLE else 1
        parts += [(env, rows[env][k::n]) for k in range(n)]
    failures, reports = {}, {}
    with tempfile.TemporaryDirectory() as cache:
        procs = [(env, part, subprocess.Popen(
            [sys.executable, "-S", "-c", SERVER, env, ascii(part), cache],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=directory,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        )) for env, part in parts]
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


def _stderr_failures(stderr, expected) -> list[str]:
    """Where a non-zero exit's stderr leaves its expectation: the exact text, or, for a
    field, one line that starts ``invalid configuration: FIELD: ``."""
    if expected.endswith("\n"):
        return [] if stderr == expected else [f"stderr {stderr!r}, expected {expected!r}"]
    start = f"invalid configuration: {expected}: "
    if stderr.count("\n") == 1 and stderr.endswith("\n") and stderr.startswith(start):
        return []
    return [f"stderr {stderr!r} is not one line naming {expected}"]


def _row_failures(directory, i, report) -> list[str]:
    """What row i's report breaks of the row."""
    row = ROWS[i]
    if report is None:
        return ["the fork failed; run the row alone to see why"]
    exit_code, stdout, stderr, added = report
    failures = []
    written = sorted(p.name for p in (directory / str(i)).iterdir())
    if exit_code != row.code:
        failures.append(f"exit {exit_code}, expected {row.code}: {stderr}")
    elif exit_code and written:
        failures.append(f"exit {exit_code}, yet it wrote {written}")
    elif exit_code and stdout:
        failures.append(f"exit {exit_code}, yet it printed {stdout!r}")
    elif exit_code:
        failures += _stderr_failures(stderr, row.stderr)
    elif stderr:
        failures.append(f"exit 0, yet it wrote to stderr: {stderr}")
    elif str(row.golden).endswith(".txt") and stdout != (GOLDEN / row.golden).read_text("utf-8"):
        failures.append(f"stdout is not {row.golden}")
    loaded = tuple(name.removeprefix("mimolab.") for name in added if name.startswith("mimolab."))
    if loaded != row.modules:
        failures.append(f"loaded the mimolab modules {list(loaded)}, not {list(row.modules)}")
    if any(_avoids(name, row.avoided) for name in added):
        failures.append(f"loaded {[name for name in added if _avoids(name, row.avoided)]}")
    if not row.code and row.golden and not row.golden.endswith(".txt"):
        output = row.args[row.args.index("--output") + 1]
        failures += golden_failures(directory / str(i), output, row.golden)
    return failures


if __name__ == "__main__":
    envs = (NUMPY_BLOCKED, NUMPY_IMPORTABLE)
    if importlib.util.find_spec("numpy") is None:
        envs = (NUMPY_BLOCKED,)
    if len(sys.argv) > 2:
        sys.exit("usage: python scripts/process_contract.py [DIR]")
    with tempfile.TemporaryDirectory() as scratch:
        directory = pathlib.Path(sys.argv[1] if len(sys.argv) == 2 else scratch)
        directory.mkdir(parents=True, exist_ok=True)
        failures, _ = check(directory, envs)
    sys.stdout.reconfigure(errors="backslashreplace")  # an output name may hold a lone surrogate
    for i, row_failures in failures.items():
        for failure in row_failures:
            print(f"FAIL  row {i} {ROWS[i].args} ({ROWS[i].env}): {failure}")
    if len(failures) < len(ROWS):
        print(f"numpy cannot be imported: skipped the {len(ROWS) - len(failures)} "
              f"{NUMPY_IMPORTABLE} rows")
    failed = sum(bool(row_failures) for row_failures in failures.values())
    print(f"{len(failures)} rows, {failed} failed")
    sys.exit(1 if failed else 0)

#!/usr/bin/env python3
"""Outside-in benchmark of the mimolab command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``mimolab`` from its
``src`` directory; nothing is installed.  The workloads are listed in
workloads.py and explained in NOTES.md.

``--trace 0`` measures the end-to-end metrics.  Every timed sample is
scaled to the reference host speed by the loops of hostspeed.py timed around
it; the raw wall-time medians are printed beside the scaled ones.

* ``setup_s``: median over fresh interpreters of the time to import
  ``mimolab.cli``;
* ``cold_s``: time of one pass over the workload's invocations, each a fresh
  ``python -m mimolab.cli`` process timed from spawn to exit: the sum over
  invocations of each one's median;
* ``warm_s``: median time of one pass through ``mimolab.cli.main`` in a
  worker process, after one untimed warm-up pass in that process;
* ``peak_rss_mb``: median over cold passes of the largest peak RSS of any
  child, read per child with ``os.wait4``.

The run and every process it starts are pinned to one CPU.  Rounds of one
import probe, one cold pass, and warm passes for as long as that cold pass
took repeat for ``--seconds``.  A worker process runs ``PASSES_PER_WORKER``
timed passes, across rounds, before a fresh one replaces it.
``--trace 1`` alternates untraced and traced warm passes instead and reports
per-layer metrics from the spans of tracer.py.  Every pass's outputs are
checked (checks.py); an invocation that exits with another code than
expected, or whose outputs fail the check, is counted as failed.  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import check_outputs
from hostspeed import at_reference_speed, calibration_s
from workloads import (
    MALFORMED_CONFIG, MALFORMED_CONFIG_TEXT, REJECT, WORKLOADS, Invocation, argv,
)

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
SETUP_IMPORTS = 7  # at least this many import probes, one per round
MIN_PASSES = 3
PASSES_PER_WORKER = 5  # timed passes in one worker process before a fresh one starts
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.append(sys.argv[1])\n"
    "from hostspeed import calibration_s\n"
    "before = calibration_s()\n"
    "start = time.perf_counter()\n"
    "import mimolab.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "after = calibration_s()\n"
    "import numpy\n"
    "print(elapsed, before, after, numpy.__version__, mimolab.cli.__file__)\n"
)



def _span(name: str, field: str):
    return lambda p: p["spans"].get(name, {}).get(field, 0)


def _count(name: str):
    return lambda p: p["counts"].get(name, 0)


def _module(name: str):
    return lambda p: p["modules"].get(name, 0.0)


# per-layer metric -> (unit, value from one traced pass); NOTES.md says which
# end-to-end metric each should move
PER_LAYER = {
    "cli.main.self_s": ("s", _span("cli.main", "self_seconds")),
    "cli.parse_config_text.s": ("s", _span("cli.parse_config_text", "seconds")),
    "cli.coerce_value.calls": ("count", _span("cli.coerce_value", "calls")),
    "cli.run.self_s": ("s", _span("cli.run", "self_seconds")),
    "cli.output_bytes": ("bytes", lambda p: p["output_bytes"]),
    "geometry.array_response.calls": ("count", _span("geometry.array_response", "calls")),
    "geometry.array_response.s": ("s", _span("geometry.array_response", "seconds")),
    "geometry.channel_vector.self_s": ("s", _span("geometry.channel_vector", "self_seconds")),
    "geometry.elements": ("count", _count("geometry.elements")),
    "beamforming.efficiency.calls": ("count", _span("beamforming.efficiency", "calls")),
    "beamforming.efficiency.s": ("s", _span("beamforming.efficiency", "seconds")),
    "beamforming.squint_sweep.self_s": ("s", _span("beamforming.squint_sweep", "self_seconds")),
    "beamforming.SquintCurve.csv_text.s": (
        "s", _span("beamforming.SquintCurve.csv_text", "seconds")),
    "capacity.sum_rate.calls": ("count", _span("capacity.sum_rate", "calls")),
    "capacity.sum_rate.s": ("s", _span("capacity.sum_rate", "seconds")),
    "capacity.optimize_users.self_s": ("s", _span("capacity.optimize_users", "self_seconds")),
    "capacity.sweep_csv_text.s": ("s", _span("capacity.sweep_csv_text", "seconds")),
    "capacity.sweep_csv_text.bytes": ("bytes", _count("capacity.sweep_csv_text.bytes")),
    "capacity.sweep_csv_text.rows": ("count", _count("capacity.sweep_csv_text.rows")),
    "rng.derive_seed.calls": ("count", _span("rng.derive_seed", "calls")),
    "rng.derive_seed.s": ("s", _span("rng.derive_seed", "seconds")),
    "rng.RandomStream.init.calls": ("count", _span("rng.RandomStream.init", "calls")),
    "rng.RandomStream.init.s": ("s", _span("rng.RandomStream.init", "seconds")),
    "rng.complex_normal.s": ("s", _span("rng.RandomStream.complex_normal", "seconds")),
    "rng.uniform.s": ("s", _span("rng.RandomStream.uniform", "seconds")),
    "rng.samples": ("count", _count("rng.samples")),
    "channels.hardening_metric.self_s": (
        "s", _span("channels.hardening_metric", "self_seconds")),
    "channels.favorable_propagation_metric.self_s": (
        "s", _span("channels.favorable_propagation_metric", "self_seconds")),
    "channels.drift_bound_check.self_s": (
        "s", _span("channels.drift_bound_check", "self_seconds")),
    "channels.drift_bound_check.peak_alloc_mb": (
        "MB", lambda p: p["peak_alloc"].get("channels.drift_bound_check", 0) / 2**20),
    "propagation.s": ("s", _module("propagation")),
    "hardware.s": ("s", _module("hardware")),
    "trace.overhead_s": ("s", None),
    "trace.unattributed_pct": ("%", lambda p: 100.0 * (1.0 - p["top_level_s"] / p["seconds"])),
}
EXACT_UNITS = ("count", "bytes")  # work counts: must repeat exactly from pass to pass


def child_env(root: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(root / "src"), **THREAD_PINS)


def import_probe(env: dict, cwd: Path, root: Path) -> tuple[tuple[float, float], str]:
    """(Wall, scaled) seconds to import mimolab.cli in a fresh interpreter, and
    numpy's version."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(HERE)], env=env, cwd=cwd,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    seconds, before, after, numpy_version, module_file = out.split()
    if not Path(module_file).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"imported mimolab from {module_file}, not from {root / 'src'}")
    seconds = float(seconds)
    return (seconds, at_reference_speed(seconds, float(before), float(after))), numpy_version


def scaled(times: list[float], calibrations: list[float]) -> list[tuple[float, float]]:
    """(Wall, scaled) seconds of each sample, given the loop times around them."""
    return [(t, at_reference_speed(t, before, after))
            for t, before, after in zip(times, calibrations[:-1], calibrations[1:], strict=True)]


def cold_pass(argvs: list[list[str]], directory: Path, env: dict) -> tuple[list, list, int]:
    """(Wall, scaled) seconds of each invocation, exit codes and the largest
    peak RSS (KiB) of one pass."""
    times, calibrations, codes, peak_kib = [], [calibration_s()], [], 0
    for args in argvs:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "mimolab.cli", *args], cwd=directory,
                                env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        times.append(time.perf_counter() - start)
        calibrations.append(calibration_s())
        proc.returncode = os.waitstatus_to_exitcode(status)
        codes.append(proc.returncode)
        peak_kib = max(peak_kib, usage.ru_maxrss)
    return scaled(times, calibrations), codes, peak_kib


class Worker:
    """The in-process side: worker.py running passes on request."""

    def __init__(self, root: Path, env: dict, argvs: list[list[str]]):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(root)],
                                     cwd=root, env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._send({"argvs": argvs})

    def _send(self, message: dict) -> None:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()

    def run(self, directory: Path, trace: bool) -> dict:
        self._send({"dir": str(directory), "trace": trace})
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self) -> None:
        """End the worker by closing its input and wait for it to exit."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Ledger:
    """Checks each pass's outputs and counts attempted and failed invocations."""

    def __init__(self, invocations: tuple[Invocation, ...], seed: int, work: Path):
        self.invocations = invocations
        self.seed = seed
        self.work = work
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: dict[str, str] = {}
        self._digests: dict[str, str] = {}
        self._verdicts: dict[str, str | None] = {}

    def new_dir(self) -> Path:
        self.passes += 1
        directory = self.work / f"pass-{self.passes}"
        directory.mkdir()
        return directory

    def record(self, directory: Path, codes: list[int]) -> int:
        """Check one pass, delete its directory, and return the bytes it wrote."""
        written = {path.name: path.read_bytes() for path in directory.iterdir()}
        shutil.rmtree(directory)
        for inv, code in zip(self.invocations, codes, strict=True):
            files = {name: data for name, data in written.items()
                     if name in (inv.output, inv.output + ".manifest.json")}
            digest = hashlib.sha256(repr(sorted(files.items())).encode()).hexdigest()
            if inv.label not in self._digests:
                self._digests[inv.label] = digest
                self._verdicts[inv.label] = check_outputs(inv, self.seed, files, REFERENCE_DIR)
            verdict = self._verdicts[inv.label]
            if digest != self._digests[inv.label]:
                verdict = "outputs differ from an earlier pass of the same run"
                self.correct = False
            elif verdict is not None and inv.check != REJECT:
                self.correct = False
            self.attempted += 1
            if code != inv.expected_exit or verdict is not None:
                self.failed += 1
                self.problems.setdefault(
                    inv.label, f"exit {code} (expected {inv.expected_exit}); {verdict or 'ok'}")
        return sum(len(data) for data in written.values())


def spread(values: list[float]) -> str:
    """Sample count, quartiles, and the highest percentile with ten samples beyond it."""
    n = len(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else values * 3
    text = f"n={n}, q1={q1:.6g}, q3={q3:.6g}"
    if n <= 10:
        return text + ", no percentile has ten samples beyond it"
    rank = n - 10
    return text + f", p{100 * rank / n:.0f}={sorted(values)[rank - 1]:.6g}"


def pass_time(passes: list[list[tuple[float, float]]]) -> tuple[float, str]:
    """Scaled time of one pass, the sum of the medians of its timed parts (each
    invocation, or the whole pass), and a note with the same sum of wall times
    and the spread of pass totals."""
    per_invocation = list(zip(*passes, strict=True))
    scaled_s = sum(statistics.median(s for _, s in samples) for samples in per_invocation)
    wall_s = sum(statistics.median(w for w, _ in samples) for samples in per_invocation)
    totals = [sum(s for _, s in p) for p in passes]
    return scaled_s, f"wall {wall_s:.6f} s; passes {spread(totals)}"


def measure_end_to_end(root, work, argvs, env, seconds, ledger, report):
    setup, cold, warm, peaks = [], [], [], []
    worker, worker_passes = None, 0
    deadline = time.perf_counter() + seconds
    try:
        while min(len(cold), len(warm)) < MIN_PASSES or time.perf_counter() < deadline:
            setup.append(import_probe(env, work, root)[0])
            directory = ledger.new_dir()
            phase_start = time.perf_counter()
            times, codes, peak_kib = cold_pass(argvs, directory, env)
            ledger.record(directory, codes)
            cold.append(times)
            peaks.append(peak_kib / 1024)
            phase_end = 2 * time.perf_counter() - phase_start
            while True:
                # fresh workers: in-process times differ from one process to
                # the next by more than from one pass to the next
                if worker is None or worker_passes == PASSES_PER_WORKER:
                    if worker is not None:
                        worker.close()
                    worker, worker_passes = Worker(root, env, argvs), 0
                    directory = ledger.new_dir()
                    ledger.record(directory, worker.run(directory, False)["codes"])  # warm-up
                directory = ledger.new_dir()
                reply = worker.run(directory, False)
                ledger.record(directory, reply["codes"])
                warm.append(scaled([reply["seconds"]], reply["calibrations"]))
                worker_passes += 1
                now = time.perf_counter()
                if now >= phase_end or (now >= deadline and len(warm) >= MIN_PASSES):
                    break
    finally:
        if worker is not None:
            worker.close()
    setup += [import_probe(env, work, root)[0] for _ in range(SETUP_IMPORTS - len(setup))]
    setup_wall = statistics.median(w for w, _ in setup)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup),
                    f"wall {setup_wall:.6f} s; imports {spread([s for _, s in setup])}"),
        "cold_s": pass_time(cold),
        "warm_s": pass_time(warm),
        "peak_rss_mb": (statistics.median(peaks), f"median; cold passes {spread(peaks)}"),
    }
    units = {"peak_rss_mb": "MB"}
    for name, (value, note) in metrics.items():
        report(f"{name:<14} {value:12.6f} {units.get(name, 's'):<5} {note}")
    return {name: (value, units.get(name, "s")) for name, (value, _) in metrics.items()}


def measure_per_layer(root, work, argvs, env, seconds, ledger, report):
    plain, traced = [], []
    with Worker(root, env, argvs) as worker:
        directory = ledger.new_dir()
        ledger.record(directory, worker.run(directory, False)["codes"])  # warm-up
        deadline = time.perf_counter() + seconds
        while min(len(plain), len(traced)) < MIN_PASSES or time.perf_counter() < deadline:
            for trace, samples in ((False, plain), (True, traced)):
                directory = ledger.new_dir()
                reply = worker.run(directory, trace)
                reply["output_bytes"] = ledger.record(directory, reply["codes"])
                samples.append(reply)
    overhead = (statistics.median(p["seconds"] for p in traced)
                - statistics.median(p["seconds"] for p in plain))
    metrics = {}
    for name, (unit, extract) in PER_LAYER.items():
        if extract is None:
            value = overhead
        else:
            values = [extract(p) for p in traced]
            if unit in EXACT_UNITS and len(set(values)) > 1:
                ledger.correct = False
                ledger.problems[name] = f"work count differs between passes: {sorted(set(values))}"
            value = statistics.median(values)
        metrics[name] = (value, unit)
        report(f"{name:<46} {value:16.6f} {unit}")
    report(f"({len(traced)} traced and {len(plain)} untraced passes)")
    return metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    nproc = len(os.sched_getaffinity(0))
    # The vCPUs of a shared host change speed independently of one another, so
    # the host-speed loops are only a measure of the sample's speed when the
    # two run on the same CPU; no two of the benchmark's processes run at once.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    root = Path.cwd().resolve()
    if not (root / "src" / "mimolab" / "cli.py").is_file():
        print(f"no mimolab sources under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    invocations = WORKLOADS[args.workload]
    argvs = [argv(inv, args.seed) for inv in invocations]
    env = child_env(root)
    build = root / ".bench_build"
    build.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    lines = []
    try:
        (work / MALFORMED_CONFIG).write_text(MALFORMED_CONFIG_TEXT, encoding="utf-8")
        ledger = Ledger(invocations, args.seed, work)
        # the first import fills the bytecode cache, which users do not pay for on each run
        _, numpy_version = import_probe(env, work, root)
        measure = measure_per_layer if args.trace else measure_end_to_end
        metrics = measure(root, work, argvs, env, args.seconds, ledger, lines.append)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"python {platform.python_version()}, numpy {numpy_version}, "
          f"nproc {nproc}, pinned to cpu {cpu}, cpu {cpu_model()!r}, "
          + " ".join(f"{k}={v}" for k, v in THREAD_PINS.items()))
    for line in lines:
        print(line)
    print(f"fail_ratio     {ledger.failed / ledger.attempted:12.6f} 1     "
          f"{ledger.failed} of {ledger.attempted} invocations failed")
    for label, problem in ledger.problems.items():
        print(f"  {label}: {problem}")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

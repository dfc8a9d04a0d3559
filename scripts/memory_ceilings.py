#!/usr/bin/env python3
"""Run each CLI schema bound that caps memory and check its peak against its figure.

CEILINGS holds one row per run at a memory bound: the run as a config
mapping, and its figure, the peak resident set (VmHWM) in MiB that the bound
is documented to allow.  Each run goes to a fresh python child with one BLAS
thread, in a temporary directory; the child reads its own VmHWM from
/proc/self/status as the run ends.  One line is printed per row, and the
script exits 1 if a run exits non-zero or peaks more than 15% above its
figure.  Linux only; no arguments.
"""

import os
import pathlib
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SLACK = 1.15
CEILINGS = (
    ({"experiment": "squint", "rows": "4096", "cols": "4096", "n_points": "2"}, 64),
    ({"experiment": "squint", "rows": "1", "cols": "1", "n_points": "1000000"}, 52),
    ({"experiment": "hardening", "m_antennas": "10000000", "n_draws": "2"}, 110),
    ({"experiment": "favorable", "m_antennas": "10000000", "n_pairs": "1"}, 340),
    # tau_c = 2.5 s * 400 kHz: one row per user count, up to the sweep cap
    ({"experiment": "capacity", "coherence_time_s": "2.5", "k_step": "1"}, 90),
    ({"experiment": "antenna-sweep", "coherence_time_s": "2.5", "k_step": "1"}, 90),
)

# the CLI's stdout goes to /dev/null; the last stdout line is the peak in KiB
CHILD = """import os, sys
from mimolab.cli import main
sys.stdout = open(os.devnull, "w")
status = main(sys.argv[1:])
with open("/proc/self/status") as proc_status:
    peak = next(line.split()[1] for line in proc_status if line.startswith("VmHWM:"))
print(peak, file=sys.__stdout__)
sys.exit(status)
"""


def measure(config: dict) -> tuple[int, float | None]:
    """Exit status of the config's run in a fresh child, and its VmHWM in MiB (None if unread)."""
    argv = [arg for key, value in config.items() for arg in ("--set", f"{key}={value}")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=cwd, env=env,
                              stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.split()
    return proc.returncode, int(lines[-1]) / 1024 if lines else None


if __name__ == "__main__":
    failures = 0
    for config, figure_mib in CEILINGS:
        status, peak_mib = measure(config)
        ok = status == 0 and peak_mib is not None and peak_mib <= SLACK * figure_mib
        failures += not ok
        peak = "no peak" if peak_mib is None else f"peaked at {peak_mib:.1f} MiB"
        run = " ".join(f"{key}={value}" for key, value in config.items())
        print(f"{'ok' if ok else 'FAIL'}  {run}: exit {status}, {peak}; "
              f"figure {figure_mib} MiB + {SLACK - 1:.0%}", flush=True)
    sys.exit(1 if failures else 0)

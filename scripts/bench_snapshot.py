#!/usr/bin/env python3
"""Run the benchmark's four workloads and the Tier-1 suite; write one BENCH_<N>.json.

    python scripts/bench_snapshot.py N

Each workload runs as ``python3 perfbench/run.py --workload W --seed 42
--seconds 24 --trace 0`` from the root of this checkout, and the snapshot
keeps its final JSON line as it is.  The snapshot also records the commit and
whether the tree differs from it, a SHA-256 of the tracked files under
``perfbench/`` and under ``src/`` (so a snapshot names the instrument and the
code it measured), the host, the Tier-1 wall time and summary line, and
whether ``src/`` held bytecode.  Every child runs with
``PYTHONDONTWRITEBYTECODE=1``, so a checkout without bytecode stays without
it, as a fresh clone does; run ``python -m compileall -q src`` first to
measure with bytecode.  The file goes to the root of the checkout; the
workloads are those that BENCHMARK.json lists.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED, SECONDS = 42, 24
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
# known defects of the harness that made the numbers (ROADMAP item 1), kept beside them
HARNESS_NOTES = [
    "peak_rss_mb is read with os.wait4 after a vfork+exec spawn, so it includes the "
    "harness's own high-water mark; capacity's figure is the harness's",
    "without bytecode, setup_s is mostly compiling src/mimolab/cli.py in each fresh process",
]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def tree_sha256(directory: str) -> str:
    """SHA-256 over the path and bytes of each file that git tracks under ``directory``."""
    digest = hashlib.sha256()
    for name in sorted(git("ls-files", "-z", directory).split("\0")):
        if name:
            digest.update(name.encode() + b"\0" + (ROOT / name).read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor()


def has_bytecode() -> bool:
    return any((ROOT / "src").rglob("*.pyc"))


def run_workload(name: str, env: dict) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_tier1(env: dict) -> dict:
    env = {**env, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                              env.get("PYTHONPATH")]))}
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall_s, 3), "exit": proc.returncode,
            "summary": lines[-1] if lines else ""}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("number", type=int, help="N of the BENCH_<N>.json written")
    args = parser.parse_args()

    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    snapshot = {
        "commit": git("rev-parse", "HEAD").strip(),
        "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench").strip()),
        "perfbench_sha256": tree_sha256("perfbench"),
        "src_sha256": tree_sha256("src"),
        "host": {
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
        },
        "bytecode": has_bytecode(),
        "harness_notes": HARNESS_NOTES,
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} "
                   f"--seconds {SECONDS} --trace 0",
        "workloads": {},
    }
    for name in workloads:
        print(f"workload {name} ...", file=sys.stderr, flush=True)
        snapshot["workloads"][name] = run_workload(name, env)
    print("tier-1 ...", file=sys.stderr, flush=True)
    snapshot["tier1"] = run_tier1(env)
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

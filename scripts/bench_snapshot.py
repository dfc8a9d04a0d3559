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
measure the workloads with bytecode.  The file goes to the root of the
checkout; the workloads are those that BENCHMARK.json lists.

Its ``runs`` section holds the wall time of one fresh ``python -m mimolab.cli``
process, spawn to exit, for each bundled config and for the ``hardening`` and
``favorable`` defaults, each writing its default output in a temp directory.
Each run is timed RUNS times, round-robin with the two floors ``python -c
pass`` and ``python -c "import numpy"``, so drift spreads evenly and each
figure reads as a margin over its floor.  A run is timed on two temp copies
of this checkout's ``src/``: one without bytecode, one ``compileall``-ed (not
through ``PYTHONPYCACHEPREFIX``, which would compile numpy and the standard
library from source as well).  Each figure is the median and quartiles in
seconds.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
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

ROOT = Path(__file__).resolve().parent.parent
SEED, SECONDS = 42, 24
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
# known defects of the harness that made the numbers (ROADMAP item 1), kept beside them
HARNESS_NOTES = [
    "peak_rss_mb is read with os.wait4 after a vfork+exec spawn, so it includes the "
    "harness's own high-water mark; capacity's figure is the harness's",
    "without bytecode, setup_s is mostly compiling src/mimolab/cli.py (810 lines, the "
    "runners other than squint's in the library modules) in each fresh process; the runs "
    "section times each run with and without bytecode",
]
RUNS = 11  # fresh processes per run and per floor
FLOORS = {"python -c pass": ["-c", "pass"], "python -c 'import numpy'": ["-c", "import numpy"]}


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


def with_src(env: dict, src: Path) -> dict:
    """env with src first on PYTHONPATH."""
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))}


def run_tier1(env: dict) -> dict:
    env = with_src(env, ROOT / "src")
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall_s, 3), "exit": proc.returncode,
            "summary": lines[-1] if lines else ""}


def quartiles(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median_s": round(median, 5), "q1_s": round(q1, 5), "q3_s": round(q3, 5)}


def time_runs(env: dict) -> dict:
    """The runs section: floors and fresh CLI runs, timed round-robin, without and with bytecode."""
    sys.path.insert(0, str(ROOT / "src"))
    from mimolab.cli import BUNDLED_CONFIGS

    runs = {name: ["--config", name] for name in BUNDLED_CONFIGS}
    runs.update(hardening=["hardening"], favorable=["favorable"])
    with tempfile.TemporaryDirectory() as scratch:
        trees = {tree: Path(scratch, tree, "src") for tree in ("no_bytecode", "bytecode")}
        for src in trees.values():
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if not compileall.compile_dir(trees["bytecode"], quiet=1):
            sys.exit("compileall failed on the copy of src/")
        cases = [("floors", name, argv, None) for name, argv in FLOORS.items()]
        cases += [(tree, name, ["-m", "mimolab.cli", *argv], src)
                  for tree, src in trees.items() for name, argv in runs.items()]
        samples = {case[:2]: [] for case in cases}
        for _ in range(RUNS):
            for group, name, argv, src in cases:
                start = time.perf_counter()
                proc = subprocess.run([sys.executable, *argv], cwd=scratch,
                                      env=env if src is None else with_src(env, src),
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
                samples[group, name].append(time.perf_counter() - start)
                if proc.returncode != 0:
                    sys.exit(f"{name} ({group}) exited {proc.returncode}:\n{proc.stderr.decode()}")
    section = {"count": RUNS, "command": "python -m mimolab.cli [--config NAME | NAME]"}
    for (group, name), times in samples.items():
        section.setdefault(group, {})[name] = quartiles(times)
    return section


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
    print("fresh-process runs ...", file=sys.stderr, flush=True)
    snapshot["runs"] = time_runs(env)
    print("tier-1 ...", file=sys.stderr, flush=True)
    snapshot["tier1"] = run_tier1(env)
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

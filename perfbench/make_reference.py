#!/usr/bin/env python3
"""Writes the reference outputs that checks.py compares against.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose outputs are the accepted reference.
Every invocation of every workload that is expected to succeed runs once at
REFERENCE_SEED as a fresh ``python -m mimolab.cli`` process; its primary
output and manifest are copied into reference/, gzipped (with a fixed
timestamp) when larger than 64 KiB.
"""

from __future__ import annotations

import gzip
import subprocess
import sys
import tempfile
from pathlib import Path

from run import REFERENCE_DIR, child_env
from workloads import REFERENCE_SEED, REJECT, WORKLOADS, argv

GZIP_ABOVE = 64 * 1024


def main() -> int:
    root = Path.cwd().resolve()
    env = child_env(root)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for invocations in WORKLOADS.values():
        for inv in invocations:
            if inv.check == REJECT:
                continue
            with tempfile.TemporaryDirectory() as tmp:
                subprocess.run([sys.executable, "-m", "mimolab.cli", *argv(inv, REFERENCE_SEED)],
                               cwd=tmp, env=env, check=True, stdout=subprocess.DEVNULL)
                for name in (inv.output, inv.output + ".manifest.json"):
                    data = (Path(tmp) / name).read_bytes()
                    if len(data) > GZIP_ABOVE:
                        name, data = name + ".gz", gzip.compress(data, mtime=0)
                    (REFERENCE_DIR / name).write_bytes(data)
                    print(f"wrote {REFERENCE_DIR / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs every workload untraced and traced and prints all metrics.

    python3 perfbench/report.py [--seed N] [--seconds S]

Run from the root of a checkout.  Prints each run's own report (run.py),
then one table of the end-to-end metrics and fail_ratio per workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import REFERENCE_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    table = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=True,
            ).stdout.splitlines()
            print("\n".join(out[:-1]), end="\n\n", flush=True)
            result = json.loads(out[-1])
            if not trace:
                table.append((workload, result))
    names = list(table[0][1]["metrics"])
    print(f"{'workload':<12}" + "".join(f"{n:>16}" for n in names + ["fail_ratio"]))
    for workload, result in table:
        cells = [f"{m['value']:.4f} {m['unit']}" for m in result["metrics"].values()]
        cells.append(f"{result['failed'] / result['attempted']:.4f}")
        print(f"{workload:<12}" + "".join(f"{c:>16}" for c in cells)
              + ("" if result["correct"] else "  OUTPUTS INCORRECT"))
    return 0


if __name__ == "__main__":
    sys.exit(main())

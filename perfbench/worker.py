"""Runs workload passes in-process through ``mimolab.cli.main``.

Started by run.py as ``python worker.py ROOT``.  The first line on stdin is
``{"argvs": [[...], ...]}``; every following line ``{"dir": D, "trace": T}``
runs each argument list once with D as the working directory and answers
with one JSON line: the pass's wall time, the exit codes, and either the
host-speed loop times taken before and after the pass (T false) or the span
statistics of the pass (T true).  The CLI's own stdout and stderr are
discarded.  End of input ends the worker.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

from hostspeed import calibration_s
from tracer import Tracer, span_stats


def run_pass(cli, argvs: list[list[str]], directory: str, tracer) -> dict:
    codes, calibrations = [], []
    sink = io.StringIO()
    os.chdir(directory)
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        if tracer is not None:
            tracer.reset()
            tracer.install()
        else:
            # around the pass, not each invocation: the loop slows the
            # millisecond-long invocations that follow it
            calibrations.append(calibration_s())
        try:
            start = time.perf_counter()
            for argv in argvs:
                try:
                    codes.append(cli.main(list(argv)))  # looked up after install
                except Exception:  # an uncaught error exits 1 from the command line
                    traceback.print_exc(file=sys.__stderr__)
                    codes.append(1)
            seconds = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
            else:
                calibrations.append(calibration_s())
    result = {"seconds": seconds, "calibrations": calibrations, "codes": codes}
    if tracer is not None:
        by_name, by_module, top_level = span_stats(tracer.spans)
        result["spans"] = {name: dataclasses.asdict(s) for name, s in by_name.items()}
        result["modules"] = by_module
        result["top_level_s"] = top_level
        result["counts"] = dict(tracer.counts)
        result["peak_alloc"] = tracer.peak_alloc
    return result


if __name__ == "__main__":
    root = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(root / "src"))
    import mimolab.cli

    if not Path(mimolab.cli.__file__).resolve().is_relative_to(root / "src"):
        sys.exit(f"imported mimolab from {mimolab.cli.__file__}, not from {root / 'src'}")
    out = sys.stdout
    argvs = json.loads(sys.stdin.readline())["argvs"]
    tracer = Tracer()
    for line in sys.stdin:
        request = json.loads(line)
        reply = run_pass(mimolab.cli, argvs, request["dir"],
                         tracer if request["trace"] else None)
        out.write(json.dumps(reply) + "\n")
        out.flush()

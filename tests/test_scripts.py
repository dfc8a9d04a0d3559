"""Each script under scripts/ runs to exit 0.

The reports' pinned text is checked with the other goldens, in test_golden.py,
through goldens.py.  memory_ceilings.py is left out: its runs are the largest
that the memory bounds allow, hundreds of MiB each and about 15 s in all.  Its
table is checked instead: its runs sit at the schema's memory bounds, and
README quotes each of its figures.  bench_snapshot.py runs the benchmark for
minutes, so only the BENCH_*.json files it wrote are checked.
"""

import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

from mimolab import cli
from mimolab.cli import EXPERIMENTS, resolve

from memory_ceilings import CEILINGS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
README = SCRIPTS.parent / "README.md"


def run_script(script, args, cwd):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, cwd=cwd
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_all_bundled(tmp_path):
    assert "== adc_128v8 ==" in run_script("run_all_bundled.py", [str(tmp_path)], tmp_path)


def test_memory_ceilings_run_every_memory_bound():
    runs = {}
    for config, _ in CEILINGS:
        exp, _, _, params = resolve(config)  # valid input, or ValidationError
        if exp.name in ("capacity", "antenna-sweep"):
            params = {**params, "sweep_length": len(cli._capacity_scenario(params)[1])}
        runs.setdefault(exp.name, []).append(params)
    squint = {param.name: param for param in EXPERIMENTS["squint"].params}
    bounds = [
        *(("squint", name, squint[name].max_value) for name in ("rows", "cols", "n_points")),
        ("hardening", "m_antennas", cli._MAX_ANTENNAS),
        ("favorable", "m_antennas", cli._MAX_ANTENNAS),
        ("capacity", "sweep_length", cli._MAX_USER_COUNTS),
        ("antenna-sweep", "sweep_length", cli._MAX_USER_COUNTS),
    ]
    unreached = [(experiment, name, bound) for experiment, name, bound in bounds
                 if all(params[name] != bound for params in runs.get(experiment, ()))]
    assert not unreached, f"no memory_ceilings.py run sits at {unreached}"


def test_readme_quotes_every_memory_figure():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if "Schema bounds that keep memory" in line)
    indent = lines[start].index("-")
    # the bullet runs on while its lines are indented past its dash
    bullet = [lines[start], *itertools.takewhile(
        lambda line: len(line) - len(line.lstrip()) > indent, lines[start + 1:])]
    quoted = {int(figure.replace(",", ""))
              for figure in re.findall(r"(\d[\d,]*)\s+MiB", " ".join(bullet))}
    assert quoted == {figure for _, figure in CEILINGS}


def test_bench_snapshots_hold_every_workload_correct():
    root = SCRIPTS.parent
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    metrics = {metric["name"] for metric in benchmark["end_to_end"]}
    assert len(workloads) == 4
    for path in sorted(root.glob("BENCH_*.json")):
        snapshot = json.loads(path.read_text())
        assert set(snapshot) == {"commit", "dirty", "perfbench_sha256", "src_sha256", "host",
                                 "bytecode", "harness_notes", "command", "workloads", "tier1"}, path.name
        assert re.fullmatch("[0-9a-f]{40}", snapshot["commit"])
        assert all(re.fullmatch("[0-9a-f]{64}", snapshot[key])
                   for key in ("perfbench_sha256", "src_sha256"))
        assert set(snapshot["host"]) == {"python", "numpy", "nproc", "cpu"}
        assert type(snapshot["bytecode"]) is bool and type(snapshot["dirty"]) is bool
        assert list(snapshot["workloads"]) == workloads, path.name
        for name, result in snapshot["workloads"].items():
            assert result["correct"] is True and result["failed"] == 0, (path.name, name)
            assert set(result["metrics"]) == metrics, (path.name, name)
        assert snapshot["tier1"]["wall_s"] > 0 and snapshot["tier1"]["exit"] == 0

"""Output checks for one invocation's files.

At the reference seed every primary output and manifest is compared with
the stored reference: structure (keys, lengths, CSV header, value types)
exactly and numbers at a relative tolerance of 1e-12.  At any other seed,
seed-independent outputs are compared the same way and the rest are checked
against invariants that hold for every seed.
"""

from __future__ import annotations

import gzip
import json
import math
import re
from pathlib import Path

from workloads import (
    EXACT, FAVORABLE, HARDENING, MOBILITY, REFERENCE_SEED, REJECT, SQUINT, Invocation,
)

REL_TOL = 1e-12
STATISTICAL_REL_TOL = 0.1  # Monte-Carlo metrics: several standard errors at the workload sizes
DRIFT_SLACK = 1e-12  # the extreme drift patterns sit on the bound up to rounding
_INT_RE = re.compile(r"^-?\d+$")


class Mismatch(Exception):
    pass


def compare(actual, expected, where: str = "") -> None:
    """Raise Mismatch unless structures match exactly and numbers within REL_TOL."""
    if type(actual) is not type(expected):
        raise Mismatch(f"{where}: type {type(actual).__name__} != {type(expected).__name__}")
    if isinstance(actual, dict):
        if actual.keys() != expected.keys():
            raise Mismatch(f"{where}: keys {sorted(actual)} != {sorted(expected)}")
        for key in expected:
            compare(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(actual, list):
        if len(actual) != len(expected):
            raise Mismatch(f"{where}: length {len(actual)} != {len(expected)}")
        for i, (a, e) in enumerate(zip(actual, expected)):
            compare(a, e, f"{where}[{i}]")
    elif isinstance(actual, float):
        if not (math.isfinite(actual) and
                abs(actual - expected) <= REL_TOL * max(abs(actual), abs(expected))):
            raise Mismatch(f"{where}: {actual!r} != {expected!r}")
    elif actual != expected:
        raise Mismatch(f"{where}: {actual!r} != {expected!r}")


def parse_csv(text: str) -> dict:
    lines = text.splitlines()
    rows = [[int(f) if _INT_RE.match(f) else float(f) for f in line.split(",")]
            for line in lines[1:]]
    return {"header": lines[0] if lines else "", "rows": rows}


def parse_output(inv: Invocation, data: bytes):
    text = data.decode("utf-8")
    return parse_csv(text) if inv.ext == "csv" else json.loads(text)


def reference_bytes(reference_dir: Path, name: str) -> bytes:
    path = reference_dir / name
    if path.exists():
        return path.read_bytes()
    return gzip.decompress((reference_dir / (name + ".gz")).read_bytes())


def _near(value: float, expected: float, rel: float, where: str) -> None:
    if not (math.isfinite(value) and abs(value - expected) <= rel * abs(expected)):
        raise Mismatch(f"{where}: {value!r} is not within {rel:.0%} of {expected!r}")


def _check_squint(output: dict, ref: dict, results: dict) -> None:
    compare(output["header"], ref["header"], "header")
    if len(output["rows"]) != len(ref["rows"]):
        raise Mismatch(f"rows: {len(output['rows'])} != {len(ref['rows'])}")
    compare([row[0] for row in output["rows"]], [row[0] for row in ref["rows"]], "frequency_hz")
    effs = [row[1] for row in output["rows"]]
    if not all(isinstance(e, float) and 0.0 <= e <= 1.0 for e in effs):
        raise Mismatch("efficiency outside [0, 1]")
    if results["min_efficiency"] != min(effs) or results["max_efficiency"] != max(effs):
        raise Mismatch("manifest extremes differ from the curve")
    if not min(effs) <= results["center_efficiency"] <= max(effs):
        raise Mismatch("center efficiency outside the curve's range")


def _check_mobility(output: dict, ref: dict, seed: int) -> None:
    if len(output["reports"]) != len(ref["reports"]):
        raise Mismatch("number of drift reports changed")
    for i, (report, expected) in enumerate(zip(output["reports"], ref["reports"])):
        fixed = {k: v for k, v in report.items() if k not in ("seed", "min_observed_gain")}
        compare(fixed, {k: v for k, v in expected.items()
                        if k not in ("seed", "min_observed_gain")}, f"reports[{i}]")
        if report["seed"] != seed or report["holds"] is not True:
            raise Mismatch(f"reports[{i}]: seed or holds wrong")
        if not report["min_observed_gain"] >= report["bound_gain"] * (1.0 - DRIFT_SLACK):
            raise Mismatch(f"reports[{i}]: minimum gain below the bound")


def _check_metric(output: dict, ref: dict, seed: int, expected_value: float) -> None:
    compare({k: v for k, v in output.items() if k not in ("seed", "value")},
            {k: v for k, v in ref.items() if k not in ("seed", "value")}, "record")
    if output["seed"] != seed:
        raise Mismatch("record seed differs from the run seed")
    _near(output["value"], expected_value, STATISTICAL_REL_TOL, "value")


def favorable_expectation(m: int) -> float:
    """E|h_i^H h_j| / (|h_i| |h_j|) for i.i.d. CN(0, 1) vectors of length m."""
    return math.gamma(1.5) * math.exp(math.lgamma(m) - math.lgamma(m + 0.5))


def check_outputs(inv: Invocation, seed: int, files: dict[str, bytes],
                  reference_dir: Path) -> str | None:
    """None when the files written by one invocation pass, else the reason."""
    manifest_name = inv.output + ".manifest.json"
    if inv.check == REJECT:
        return f"wrote {sorted(files)} although the input is invalid" if files else None
    if set(files) != {inv.output, manifest_name}:
        return f"expected {inv.output} and its manifest, found {sorted(files)}"
    try:
        output = parse_output(inv, files[inv.output])
        manifest = json.loads(files[manifest_name])
        ref = parse_output(inv, reference_bytes(reference_dir, inv.output))
        ref_manifest = json.loads(reference_bytes(reference_dir, manifest_name))
        # seeds beyond 2**53 lose digits in the CLI's numeric parsing
        if abs(seed) < 2**53 and manifest.get("seed") != seed:
            raise Mismatch(f"manifest seed {manifest.get('seed')!r} != {seed}")
        run_seed = manifest["seed"]
        manifest["seed"] = REFERENCE_SEED
        if seed == REFERENCE_SEED or inv.check == EXACT:
            compare(output, ref, inv.output)
            compare(manifest, ref_manifest, manifest_name)
            return None
        results = manifest.pop("results")
        ref_results = ref_manifest.pop("results")
        compare(manifest, ref_manifest, manifest_name)
        if results.keys() != ref_results.keys():
            raise Mismatch("manifest result keys changed")
        if inv.check == SQUINT:
            compare(results["m_antennas"], ref_results["m_antennas"], "results.m_antennas")
            _check_squint(output, ref, results)
        elif inv.check == MOBILITY:
            _check_mobility(output, ref, run_seed)
            compare(results, output, "manifest results")
        elif inv.check == HARDENING:
            m = manifest["parameters"]["m_antennas"]
            _check_metric(output, ref, run_seed, 1.0 / math.sqrt(m))
            compare(results, {"value": output["value"]}, "manifest results")
        elif inv.check == FAVORABLE:
            m = manifest["parameters"]["m_antennas"]
            _check_metric(output, ref, run_seed, favorable_expectation(m))
            compare(results, {"value": output["value"]}, "manifest results")
    except (Mismatch, KeyError, TypeError, ValueError, UnicodeDecodeError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None

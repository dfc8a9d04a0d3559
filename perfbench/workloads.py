"""The benchmark's workloads: which CLI invocations each one runs.

Every invocation is a list of ``mimolab`` arguments without ``--seed`` and
``--output``; run.py appends both, so the workload seed reaches every
run and outputs land in a per-pass directory under fixed names.  NOTES.md
in this directory says why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass

REFERENCE_SEED = 42
"""Seed of the stored reference outputs; other seeds are checked by invariants."""

# How an invocation's outputs are checked when the seed is not REFERENCE_SEED
# (at REFERENCE_SEED every output is compared with the stored reference):
EXACT = "exact"            # output does not depend on the seed
SQUINT = "squint"          # efficiencies in [0, 1], frequency grid as stored
MOBILITY = "mobility"      # drift bound holds
HARDENING = "hardening"    # metric near 1/sqrt(M)
FAVORABLE = "favorable"    # metric near its i.i.d. Rayleigh expectation
REJECT = "reject"          # must exit non-zero and write no output

MALFORMED_CONFIG = "malformed.ini"
"""Config file run.py writes into its work directory for the parse-error case.

Invocations run inside a per-pass subdirectory of that work directory, so
they name the file through ``..``.
"""
MALFORMED_CONFIG_TEXT = "experiment = fresnel\nfreq_ghz 38\n"


@dataclass(frozen=True)
class Invocation:
    label: str
    args: tuple[str, ...]
    check: str
    ext: str = "json"
    expected_exit: int = 0

    @property
    def output(self) -> str:
        return f"{self.label}.{self.ext}"


WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    "squint": (
        Invocation("fig4_32x32", ("--config", "fig4_32x32"), SQUINT, "csv"),
        Invocation("fig4_64x64", ("--config", "fig4_64x64"), SQUINT, "csv"),
        Invocation("fig4_128x128", ("--config", "fig4_128x128"), SQUINT, "csv"),
    ),
    "capacity": (
        Invocation("centralpark_3ghz", ("--config", "centralpark_3ghz"), EXACT, "csv"),
        Invocation("centralpark_60ghz", ("--config", "centralpark_60ghz"), EXACT, "csv"),
        Invocation("antenna_sweep", ("antenna-sweep",), EXACT, "csv"),
    ),
    "montecarlo": (
        Invocation("hardening_m100", ("hardening", "--m-antennas", "100", "--n-draws", "10000"),
                   HARDENING),
        Invocation("hardening_m10000",
                   ("hardening", "--m-antennas", "10000", "--n-draws", "1000"), HARDENING),
        Invocation("favorable", ("favorable",), FAVORABLE),
        Invocation("mobility_bound", ("--config", "mobility_bound"), MOBILITY),
    ),
    "cli-small": (
        Invocation("fresnel", ("fresnel",), EXACT),
        Invocation("linkbudget",
                   ("linkbudget", "--entry-window", "-40", "--entry-foliage", "-12.5"), EXACT),
        Invocation("estload_paper", ("--config", "estload_paper"), EXACT),
        Invocation("adc_128v8", ("--config", "adc_128v8"), EXACT),
        Invocation("reject_range", ("hwbudget", "--overhead-factor", "20"), REJECT,
                   expected_exit=3),
        Invocation("reject_parse", ("--config", f"../{MALFORMED_CONFIG}"), REJECT, expected_exit=2),
        # exits 0 and writes NaN until non-finite input is rejected
        Invocation("reject_nan", ("fresnel", "--freq-ghz", "nan"), REJECT, expected_exit=3),
    ),
}


def argv(invocation: Invocation, seed: int) -> list[str]:
    """Full CLI argument list of one invocation for one workload seed."""
    return [*invocation.args, "--seed", str(seed), "--output", invocation.output]

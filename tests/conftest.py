import sys
from pathlib import Path

# allow running the suite from a fresh checkout without installing
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mimolab import cli  # noqa: E402


def bundled(name: str, **overrides) -> dict:
    """A bundled config's parameters as the CLI resolves them, after key=value overrides.

    A capacity config yields capacity.rate_table's keyword arguments, with tau_c
    and the (possibly bandwidth-scaled) uplink SNR derived as the CLI derives them.
    """
    exp, _, _, params = cli.resolve({"config": name, **{k: str(v) for k, v in overrides.items()}})
    return cli._capacity_scenario(params)[0] if exp.name == "capacity" else params

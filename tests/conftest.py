import math
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


def rayleigh_z(metric: str, value: float, m_antennas: int, n: int) -> float:
    """How many standard deviations a Monte-Carlo diagnostic lies from its exact value.

    Both diagnostics have exact distributions under i.i.d. CN(0, 1) entries.
    ``hardening``: ||h||^2 ~ Gamma(M, 1), so std/mean = 1/sqrt(M), and by the
    delta method the sample ratio over n draws has sd
    (1/sqrt(M)) * sqrt((1/2 + 1/(2M)) / n).  ``favorable``: |rho|^2 ~ Beta(1, M - 1)
    for M >= 2, so E|rho| = Gamma(3/2) Gamma(M) / Gamma(M + 1/2) and
    Var|rho| = 1/M - (E|rho|)^2, and the mean over n pairs has sd sqrt(Var|rho| / n).
    """
    if metric == "hardening":
        mean = 1.0 / math.sqrt(m_antennas)
        sd = mean * math.sqrt((0.5 + 0.5 / m_antennas) / n)
    elif metric == "favorable":
        mean = math.gamma(1.5) * math.exp(math.lgamma(m_antennas) - math.lgamma(m_antennas + 0.5))
        sd = math.sqrt((1.0 / m_antennas - mean**2) / n)
    else:
        raise ValueError(f"no exact reference for {metric!r}")
    return (value - mean) / sd

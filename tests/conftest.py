import math
import sys
from pathlib import Path

import numpy as np

# allow running the suite from a fresh checkout without installing; the scripts' tables
# import as modules
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

from mimolab import cli  # noqa: E402


def bundled(name: str, **overrides) -> dict:
    """A bundled config's parameters as the CLI resolves them, after key=value overrides.

    A capacity config yields capacity.rate_table's keyword arguments, with tau_c
    and the (possibly bandwidth-scaled) uplink SNR derived as the CLI derives them.
    """
    exp, _, _, params = cli.resolve({"config": name, **{k: str(v) for k, v in overrides.items()}})
    return cli._capacity_scenario(params)[0] if exp.name == "capacity" else params


def numpy_stream(seed: int) -> np.random.Generator:
    """numpy's PCG64 generator of ``seed``'s low 64 bits: the stream ``rng.uniforms`` copies."""
    return np.random.Generator(np.random.PCG64(seed & (2**64 - 1)))


def polar_complex_normal(u: np.ndarray) -> np.ndarray:
    """CN(0, 1) samples from (..., 2, n) uniforms: radius u[..., 0, :], angle u[..., 1, :].

    The complex normals that mimolab's Monte-Carlo reductions stand for, as a reference.
    """
    return np.sqrt(-np.log1p(-u[..., 0, :])) * np.exp(2j * np.pi * u[..., 1, :])


def pair_correlation(h_i: np.ndarray, h_j: np.ndarray) -> float:
    """|h_i^H h_j| / (||h_i|| ||h_j||), clipped to 1; the reference for the favorable metric."""
    h_i = np.asarray(h_i, dtype=complex)
    h_j = np.asarray(h_j, dtype=complex)
    denom = np.linalg.norm(h_i) * np.linalg.norm(h_j)
    if denom == 0.0:
        raise ValueError("pair correlation is undefined for zero vectors")
    # clipped to 1 against last-bit rounding, as beamforming.efficiency is; min keeps a NaN
    return min(float(abs(np.vdot(h_i, h_j)) / denom), 1.0)


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

"""Coherence-block accounting in plain Python: samples per block, user-count grids.

Kept free of numpy, so the CLI can validate a capacity scenario, and reject
it, without loading the numeric modules.
"""


def coherence_samples(coherence_time_s: float, coherence_bandwidth_hz: float) -> int:
    """Usable samples tau_c = round(time * bandwidth) of a block of constant channel."""
    if not (coherence_time_s > 0 and coherence_bandwidth_hz > 0):
        raise ValueError("coherence time and bandwidth must be positive")
    tau_c = round(coherence_time_s * coherence_bandwidth_hz)
    if tau_c < 1:
        raise ValueError("a coherence block must contain at least one sample")
    # rate_table holds K <= tau_c as int64 and forms K/tau_c in doubles, exact to 2**53
    if tau_c > 2**53:
        raise ValueError(f"a coherence block of {tau_c} samples exceeds 2**53")
    return tau_c


def k_range(tau_c: int, k_min: int = 1, k_max: int = 0, k_step: int = 0) -> range:
    """User counts k_min..k_max (0 means tau_c) in steps of k_step.

    k_step 0 picks tau_c // 1000 but at least 1, which keeps the full range
    under 2000 points however long the block; k_step 1 sweeps every count.
    """
    k_max = k_max if k_max > 0 else tau_c
    step = k_step if k_step > 0 else max(1, tau_c // 1000)
    if not 1 <= k_min <= k_max <= tau_c:
        raise ValueError(
            f"need 1 <= k_min <= k_max <= tau_c, got k_min={k_min}, k_max={k_max}, tau_c={tau_c}"
        )
    return range(k_min, k_max + 1, step)

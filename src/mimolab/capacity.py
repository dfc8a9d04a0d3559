"""Closed-form downlink rates under MRT, per coherence block.

Single cell, i.i.d. Rayleigh fading, K single-antenna users served with
maximum ratio transmission.  Channel knowledge comes from K orthogonal
uplink pilot samples per coherence block (tau_p = K), leaving a fraction
1 - K/tau_c of each block for data.  With MMSE estimation quality
gamma = tau_p*rho_ul / (1 + tau_p*rho_ul) and the downlink budget rho_dl
split equally over users, each user sees

    SINR = M * gamma * (rho_dl / K) / (1 + rho_dl)

where the denominator carries unit noise plus non-coherent interference
from all K streams.  Everything is deterministic closed-form arithmetic on
plain numbers (a scenario is rate_table's keyword arguments); no
Monte-Carlo is involved.  The block length tau_c comes from
``coherence_samples`` and the user-count grid from ``k_range``.

The closed form is written once, in ``_rates``, and evaluated two ways with
the same operations in the same order: per user count in Python floats
(``rate_lists``), or once over an int64 array of user counts (``rate_table``).
Only log2 may round the two apart, in the last bit.  ``rate_columns`` and
``antenna_sweep`` take the plain evaluator for a run of at most
PLAIN_MAX_EVALUATIONS rate evaluations, where it costs less than importing
numpy; numpy is imported only inside the vectorised path, so the CLI can
validate a capacity scenario, and reject it, without loading numpy.
"""

import math

RATE_COLUMNS = ("m_antennas", "k_users", "pilot_fraction", "se_per_ue", "rate_per_ue_bps",
                "sum_rate_bps")
"""The rate_table columns, and so the rate CSVs' header; k_users is also the pilot length tau_p."""

PLAIN_MAX_EVALUATIONS = 2**13
"""The most rate evaluations a run makes in plain Python; a longer run takes numpy.

On 2-core x86 hosts under Python 3.11 the plain loop costs 0.75-1.1 us per
evaluation (1.5-2.1 ms for 2,000 user counts, 33-51 ms for 40,000), so 2**13
evaluations take 6-10 ms: an order of magnitude below the numpy import (90-165
ms) that a fresh process saves, and at most that much extra for a process that
already holds numpy.
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


def _quality(tau_p, rho_ul):
    """MMSE channel-estimate quality tau_p*rho / (1 + tau_p*rho), in [0, 1), per tau_p."""
    x = tau_p * rho_ul
    return x / (1.0 + x)


def _rates(k, log2, m_antennas, tau_c, ul_pilot_snr, dl_ul_power_ratio, bandwidth_hz):
    """rate_table's pilot fraction, SE, rate and sum rate of user count k: a Python int
    with log2 = math.log2, or an int64 array with np.log2."""
    rho_dl = dl_ul_power_ratio * ul_pilot_snr
    gamma = _quality(k, ul_pilot_snr)
    sinr = m_antennas * gamma * (rho_dl / k) / (1.0 + rho_dl)
    pilot_fraction = k / tau_c
    se = (1.0 - pilot_fraction) * log2(1.0 + sinr)
    rate = se * bandwidth_hz
    return pilot_fraction, se, rate, k * rate


def _check(k, least, most, m_antennas, tau_c, ul_pilot_snr, dl_ul_power_ratio, bandwidth_hz):
    """Raise ValueError unless the closed form covers the scenario and every K of k.

    least and most give the smallest and the largest entry of a non-empty k.
    """
    if not bandwidth_hz > 0:
        raise ValueError(f"bandwidth_hz must be positive, got {bandwidth_hz}")
    if not m_antennas >= 1:
        raise ValueError(f"m_antennas must be at least 1, got {m_antennas}")
    if not (ul_pilot_snr > 0 and dl_ul_power_ratio > 0):
        raise ValueError("SNR and power ratio must be positive")
    if len(k) == 0:
        raise ValueError("k_users must be non-empty")
    if not (least(k) >= 1 and most(k) <= tau_c):
        raise ValueError(
            f"k_users must lie in 1..{tau_c} (the coherence block), got {least(k)}..{most(k)}"
        )


def rate_table(k_users, *, m_antennas: int, tau_c: int, ul_pilot_snr: float,
               dl_ul_power_ratio: float, bandwidth_hz: float) -> dict:
    """Rates for every user count K on the grid, one numpy array per RATE_COLUMNS name, M repeated.

    M antennas serve K users in blocks of tau_c samples (``coherence_samples``)
    with linear uplink pilot SNR rho_ul and downlink SNR
    rho_dl = dl_ul_power_ratio * rho_ul.  Per user SE = (1 - K/tau_c) *
    log2(1 + SINR) in bit/s/Hz and rate SE*B; the sum rate is K times that.
    """
    import numpy as np

    scenario = (m_antennas, tau_c, ul_pilot_snr, dl_ul_power_ratio, bandwidth_hz)
    k = np.asarray(k_users, dtype=np.int64)
    _check(k, np.min, np.max, *scenario)
    # overflow yields inf/nan without a warning, as Python float arithmetic does;
    # cli.run then names the first non-finite cell
    with np.errstate(over="ignore", invalid="ignore"):
        columns = _rates(k, np.log2, *scenario)
    return dict(zip(RATE_COLUMNS, (np.full(k.shape, m_antennas), k, *columns)))


def rate_lists(k_users, *, m_antennas: int, tau_c: int, ul_pilot_snr: float,
               dl_ul_power_ratio: float, bandwidth_hz: float) -> dict:
    """rate_table's columns as lists of Python numbers, evaluated per K without numpy."""
    k = list(k_users)
    _check(k, min, max, m_antennas, tau_c, ul_pilot_snr, dl_ul_power_ratio, bandwidth_hz)
    log2 = math.log2
    # the arguments spelled out, as a *args call would build a tuple per K
    rows = [_rates(one, log2, m_antennas, tau_c, ul_pilot_snr, dl_ul_power_ratio, bandwidth_hz)
            for one in k]
    return dict(zip(RATE_COLUMNS, ([m_antennas] * len(k), k, *map(list, zip(*rows)))))


def _evaluator(evaluations: int):
    """The rate evaluator for a run of that many rate evaluations: rate_lists or rate_table."""
    return rate_lists if evaluations <= PLAIN_MAX_EVALUATIONS else rate_table


def rate_columns(k_users, **rate_args) -> dict:
    """The columns of one sweep over k_users, from the evaluator its length selects."""
    return _evaluator(len(k_users))(k_users, **rate_args)


def best_row(table: dict) -> dict:
    """The row with the largest sum rate as Python numbers; ties go to the smaller K.

    The columns are either rate_lists' lists or numpy arrays.
    """
    sums = table["sum_rate_bps"]
    if isinstance(sums, list):
        i = max(range(len(sums)), key=sums.__getitem__)  # the first of equal maxima
        return {name: column[i] for name, column in table.items()}
    i = int(sums.argmax())  # the first of equal maxima
    return {name: column.item(i) for name, column in table.items()}  # also an object column


def antenna_sweep(m_grid, k_users, **rate_args) -> list[dict]:
    """best_row over k_users for each M (replacing rate_args' m_antennas), by M."""
    if len(m_grid) == 0:
        raise ValueError("m_grid must be non-empty")
    evaluate = _evaluator(len(m_grid) * len(k_users))
    return [best_row(evaluate(k_users, **{**rate_args, "m_antennas": m}))
            for m in sorted(int(m) for m in m_grid)]

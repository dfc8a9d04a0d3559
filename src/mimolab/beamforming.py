"""Analog, digital, and hybrid beamformers and their gain across frequency.

Gain pairing is the transmit-side one throughout: a precoder w applied to a
channel h yields |sum_m w_m h_m|^2.  The matched filter is therefore the
conjugated channel, and a unit-modulus (analog) weight vector is optimal
exactly when its per-element phases cancel the channel phases.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from .geometry import PlanarArray, factor_batches, steering_factors

_SWEEP_ELEMENTS = 2**15
"""Complex entries per squint_sweep batch, summed over its working arrays."""

_BEAM_ELEMENTS = 2**20
"""Entries of squint_sweep's analog beam per row block: every array up to 1024 x 1024 is one."""


class DegenerateEntryWarning(UserWarning):
    """A channel entry with zero magnitude was given phase zero."""


def mrt_weights(h: np.ndarray) -> np.ndarray:
    """Matched filter conj(h)/||h||; attains efficiency 1 on h."""
    h = np.asarray(h, dtype=complex)
    norm = np.linalg.norm(h)
    if norm == 0.0:
        raise ValueError("cannot match a zero channel vector")
    return np.conj(h) / norm


def _check_alignable(zero_norm: bool, zero_entries: bool) -> None:
    """Raise for a zero channel, else warn of zero entries on behalf of the caller's caller."""
    if zero_norm:
        raise ValueError("cannot align to a zero channel vector")
    if zero_entries:
        warnings.warn(
            "channel has zero-magnitude entries; their phases default to 0",
            DegenerateEntryWarning,
            stacklevel=3,
        )


def _phase_aligned(phase: np.ndarray, m: int) -> np.ndarray:
    """exp(-j*phase)/sqrt(m), evaluated in one complex array."""
    w = -1j * phase
    np.exp(w, out=w)
    w /= np.sqrt(m)
    return w


def analog_weights(h_center: np.ndarray) -> np.ndarray:
    """Per-element phase alignment exp(-j*angle(h))/sqrt(M).

    This is the exact maximizer of the transmit gain |sum w_m h_m| under the
    unit-modulus constraint.  Entries of h with zero magnitude carry no
    phase information; they get phase 0 and a DegenerateEntryWarning.
    """
    h = np.asarray(h_center, dtype=complex)
    _check_alignable(np.linalg.norm(h) == 0.0, np.any(h == 0))
    return _phase_aligned(np.angle(h), h.size)


def hybrid_weights(channels: Sequence[np.ndarray], n_rf: int) -> np.ndarray:
    """Per-user hybrid precoders: analog beam bank plus a digital mix.

    The bank holds one phase-aligned analog beam per user (n_rf - K spare
    chains stay unused), except at n_rf == M where every antenna has its own
    chain: the phase-shifter stage is then a pass-through and the bank is
    the identity, so the construction reduces to fully digital precoding.
    The digital layer is regularized zero-forcing on the effective channel
    G[i, j] = h_i^T bank_j with regularizer eps*I, eps = 1e-9 * trace of the
    Gram matrix; near-collinear users are absorbed by the regularizer rather
    than raising.  Row j of the K x M result is user j's vector
    bank @ digital[:, j], normalized to unit norm.
    """
    channels = [np.asarray(h, dtype=complex) for h in channels]
    k_users = len(channels)
    if k_users == 0:
        raise ValueError("need at least one user channel")
    m = channels[0].size
    if any(h.size != m for h in channels):
        raise ValueError("all user channels must have the same length")
    if not k_users <= n_rf <= m:
        raise ValueError(f"need K <= n_rf <= M, got K={k_users}, n_rf={n_rf}, M={m}")

    if n_rf == m:
        bank = np.eye(m, dtype=complex)
    else:
        bank = np.stack([analog_weights(h) for h in channels], axis=1)

    h_mat = np.stack(channels, axis=1)  # M x K, one column per user
    g = h_mat.T @ bank  # K x n_used effective channel
    gram = g @ g.conj().T
    eps = 1e-9 * np.trace(gram).real
    digital = np.linalg.solve(gram + eps * np.eye(k_users), g).conj().T

    weights = (bank @ digital).T  # K x M, one row per user
    norms = np.linalg.norm(weights, axis=1)
    collapsed = np.flatnonzero(norms == 0.0)
    if collapsed.size:
        raise ValueError(f"hybrid weights collapsed to zero for user {collapsed[0]}")
    return weights / norms[:, None]


def efficiency(w: np.ndarray, h: np.ndarray) -> float:
    """Fraction of the matched-filter gain attained: |sum w_m h_m|^2 / (||w||^2 ||h||^2).

    Equals 1 exactly when w is collinear with conj(h); an efficiency of 1 on
    an M-element array corresponds to the full array gain M.  The result is
    clipped into [0, 1] to absorb last-bit rounding.
    """
    weights = np.asarray(w, dtype=complex)
    h = np.asarray(h, dtype=complex)
    h_power = np.vdot(h, h).real
    if h_power == 0.0:
        raise ValueError("efficiency is undefined for a zero channel vector")
    w_power = np.vdot(weights, weights).real
    value = abs(np.dot(weights, h)) ** 2 / (w_power * h_power)
    return min(max(value, 0.0), 1.0)


def sweep_frequencies(f_center_hz: float, span_hz: float, n_points: int) -> np.ndarray:
    """n_points >= 2 equally spaced frequencies in [f_center - span/2, f_center + span/2].

    A span too narrow for n_points strictly increasing doubles is rejected.
    """
    if n_points < 2:
        raise ValueError(f"n_points must be at least 2, got {n_points}")
    freqs = np.linspace(f_center_hz - span_hz / 2.0, f_center_hz + span_hz / 2.0, n_points)
    if not np.all(freqs[1:] > freqs[:-1]):
        raise ValueError(f"span_hz {span_hz} is too narrow for {n_points} distinct frequencies")
    return freqs


def _sweep_batch(rows: int, cols: int, paths: int) -> int:
    """Frequencies per squint_sweep batch: as many as _SWEEP_ELEMENTS entries hold, at least 16.

    Per frequency a batch holds paths*(2*rows + cols) factor entries
    (a_v, a_h and W a_h, the last over at most one row block's rows) and
    2*paths**2 Gram entries.  Six paths on a square array take 50
    frequencies at 32 x 32, 26 at 64 x 64 and the floor of 16 from
    128 x 128 up.  Each row block's pass over the band runs the same
    batches, and only the first forms the Gram entries.
    """
    return max(16, _SWEEP_ELEMENTS // (paths * (2 * rows + cols) + 2 * paths**2))


def squint_sweep(
    array: PlanarArray,
    channel: tuple[np.ndarray, np.ndarray],
    f_center_hz: float,
    freqs: np.ndarray,
) -> np.ndarray:
    """Efficiency of a center-frequency analog beam at each of freqs.

    The channel is the (gains, cosines) pair of ``steering_factors``.
    The analog weights w are aligned once at f_center and reused at every
    frequency, say the band of ``sweep_frequencies``, each of which must be
    positive.  Each point is independent of the others (evaluation order is
    irrelevant), and the curve is 1.0 at the center frequency by construction
    only for single-path channels; multipath keeps it below 1 everywhere.

    With W = w reshaped to rows x cols, w.h(f) = sum_l g_l a_v,l^T W a_h,l,
    and ||h(f)||^2 is the sum over path pairs (l, k) of g_l conj(g_k) times
    the product of the row and column Gram entries <a_v,l, a_v,k>
    <a_h,l, a_h,k>, so h(f) itself is never formed.

    Once per sweep: the center factors from ``steering_factors``, which run
    the channel checks, and the zero-channel check and DegenerateEntryWarning
    of ``analog_weights``, taken over the whole of h(f_center).
    Per row block of _BEAM_ELEMENTS // cols rows (every array up to
    1024 x 1024 is one block): the block of h(f_center), a (block rows x
    paths) by (paths x cols) product as ``channel_vector`` forms it, its
    analog weights and their share of ||w||^2, and one pass over the band
    through ``factor_batches``, which checks every frequency first (naming
    the first bad one).
    Per batch of ``_sweep_batch`` frequencies: the row and column factors,
    their tables checked to 4.9e-13 of unit modulus so every entry is within
    1e-12; W's block times a_h,l for every path and frequency as one matrix
    product, added into w.h(f); and, in the first block's pass, the Gram
    entries as batched (paths x rows) by (rows x paths) products.
    This costs 4 * paths exponentials per frequency and block instead of
    paths * rows * cols, and the working arrays are bounded by the batch and
    the row block rather than by the band or the array.

    An array of one block forms w as analog_weights(channel_vector(array,
    channel, f_center)) does.  The result agrees with efficiency(w,
    channel_vector(array, channel, f)), which takes its factors from
    ``steering_factors`` too, to about 1e-14 relative, the rounding of the
    changed summation order; an array of several blocks adds up w.h(f) and
    ||w||^2 block by block, which moves it by as little.
    """
    rows, cols = array.rows, array.cols
    center_v, center_h = steering_factors(array, channel, np.array([f_center_hz]))
    gains = np.asarray(channel[0], dtype=complex)
    weighted_v, center_h = (gains[:, None] * center_v[:, 0]).T, center_h[:, 0]
    block = max(1, _BEAM_ELEMENTS // cols)
    spans = [slice(r, r + block) for r in range(0, rows, block)]

    def center_rows(span: slice) -> np.ndarray:
        """Rows span of h(f_center), formed as channel_vector forms the whole of it."""
        return weighted_v[span] @ center_h

    zero_norm, zero_entries = True, False
    for span in spans:
        h_rows = center_rows(span)
        zero_norm = zero_norm and np.linalg.norm(h_rows) == 0.0
        zero_entries = zero_entries or bool(np.any(h_rows == 0))
        del h_rows  # one block of h at a time
    _check_alignable(zero_norm, zero_entries)

    gain_pairs = np.outer(gains, gains.conj())
    batch = _sweep_batch(rows, cols, len(gains))
    # effs holds ||h(f)||^2 until the last block's pass; w.h(f) is summed over the row blocks
    # in beam, which one block does without
    effs, w_power = np.empty(len(freqs)), 0.0
    beam = np.zeros(len(freqs), dtype=complex) if len(spans) > 1 else None
    for span in spans:
        w_rows = _phase_aligned(np.angle(center_rows(span)), rows * cols)
        w_power += np.vdot(w_rows, w_rows).real
        chunks = (slice(start, start + batch) for start in range(0, len(freqs), batch))
        for chunk, (a_v, a_h) in zip(chunks, factor_batches(array, channel, freqs, batch)):
            if span is spans[0]:
                gram_v = a_v.transpose(1, 0, 2) @ a_v.conj().transpose(1, 2, 0)
                gram_h = a_h.transpose(1, 0, 2) @ a_h.conj().transpose(1, 2, 0)
                effs[chunk] = np.einsum("lk,flk,flk->f", gain_pairs, gram_v, gram_h).real
                if np.any(effs[chunk] <= 0.0):
                    raise ValueError("efficiency is undefined for a zero channel vector")
            # W[span] a_h,l for every path and frequency of the batch as one matrix product
            part = np.einsum("l,lfm,lfm->f", gains, a_v[..., span],
                             (a_h.reshape(-1, cols) @ w_rows.T).reshape(*a_h.shape[:2], -1))
            if beam is not None:
                beam[chunk] += part
                part = beam[chunk]
            if span is spans[-1]:
                effs[chunk] = np.clip(np.abs(part) ** 2 / (w_power * effs[chunk]), 0.0, 1.0)
        del w_rows  # one block of W at a time
    return effs

"""Planar arrays and frequency-dependent array responses.

Element positions are fixed in meters when an array is built, while the
phase accumulated per meter grows linearly with frequency.  A weight vector
aligned at one frequency therefore drifts out of alignment elsewhere in the
band; every squint result downstream traces back to that fact.

Conventions, fixed so outputs reproduce bit for bit:
  * the element grid is indexed row-major with element (0, 0) as the zero-
    phase reference (any other reference differs by a global phase that no
    gain metric observes);
  * direction cosines are k_h = sin(azimuth)*cos(elevation) horizontally
    and k_v = sin(elevation) vertically;
  * the response entry for grid position (m, n) at frequency f is
    exp(j * 2*pi * (f/c) * spacing * (n*k_h + m*k_v)).

A multipath channel is a pair (gains, cosines) of L complex path gains and
an L x 2 array of direction cosines (k_h, k_v).  The gains are frequency-
flat: all frequency dependence of the channel lives in the array response,
with no per-path delay phase across the band.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import SPEED_OF_LIGHT_M_S


def direction_cosines(azimuth_rad: float, elevation_rad: float) -> tuple[float, float]:
    """Direction cosines (k_h, k_v) of an azimuth and elevation, radians from boresight."""
    if not -math.pi < azimuth_rad <= math.pi:
        raise ValueError(f"azimuth_rad must lie in (-pi, pi], got {azimuth_rad}")
    if not -math.pi / 2 <= elevation_rad <= math.pi / 2:
        raise ValueError(f"elevation_rad must lie in [-pi/2, pi/2], got {elevation_rad}")
    return math.sin(azimuth_rad) * math.cos(elevation_rad), math.sin(elevation_rad)


class PlanarArray:
    """Rectangular grid of rows x cols isotropic elements, spacing in meters.

    The spacing is chosen once (typically half a wavelength at the design
    frequency) and never rescales with the evaluation frequency.
    """

    def __init__(self, rows: int, cols: int, spacing_m: float):
        if rows < 1 or cols < 1:
            raise ValueError(f"array needs rows >= 1 and cols >= 1, got {rows}x{cols}")
        if not 0 < spacing_m < math.inf:
            raise ValueError(f"spacing_m must be positive and finite, got {spacing_m}")
        self.rows, self.cols, self.spacing_m = rows, cols, spacing_m

    @property
    def num_elements(self) -> int:
        return self.rows * self.cols

    @classmethod
    def half_wavelength_at(cls, rows: int, cols: int, frequency_hz: float) -> "PlanarArray":
        """Array spaced at c/(2f) for the given design frequency."""
        if not frequency_hz > 0:
            raise ValueError(f"frequency_hz must be positive, got {frequency_hz}")
        return cls(rows, cols, SPEED_OF_LIGHT_M_S / (2.0 * frequency_hz))


def _powers(base: np.ndarray, count: int) -> np.ndarray:
    """[1, base, base**2, ...] with count entries along a new last axis, as a running product."""
    table = np.empty(base.shape + (count,), dtype=complex)
    table[..., 0] = 1.0
    if count == 1:  # a running product of one entry multiplies nothing
        return table
    table[..., 1:] = base[..., None]
    return np.multiply.accumulate(table, axis=-1, out=table)


def _ramps_into(out: np.ndarray, coarse: np.ndarray, fine: np.ndarray) -> None:
    """out[..., q*B + r] = coarse[..., q] * fine[..., r] over out's last axis, B = fine.shape[-1]."""
    n, block = out.shape[-1], fine.shape[-1]
    whole = n // block
    np.multiply(coarse[..., :whole, None], fine[..., None, :],
                out=out[..., :whole * block].reshape(*out.shape[:-1], whole, block))
    if whole * block < n:  # the ragged last block
        np.multiply(coarse[..., whole, None], fine[..., :n - whole * block],
                    out=out[..., whole * block:])


def factor_batches(
    array: PlanarArray, channel: tuple[np.ndarray, np.ndarray], frequencies_hz: np.ndarray,
    batch: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Row and column factors of every path's response, batch frequencies at a time.

    Yields the factors of ``steering_factors`` for frequencies_hz[start:start + batch]
    at start = 0, batch, 2*batch, ...: a_v with shape (paths, frequencies, rows) and
    a_h with shape (paths, frequencies, cols), both C-contiguous.  Every batch is
    written into the same two buffers, so a batch is overwritten by the next one.
    An empty band yields one empty batch.

    Once, before the first batch: the channel checks of ``steering_factors``,
    the positivity check of every frequency (naming the first bad one), the
    two buffers and the table steps.  Per batch, with s = 2*pi*(f/c)*spacing
    and each side's block length B = ceil(sqrt(n)): the fine steps exp(j*s*k)
    and coarse steps exp(j*s*(B*k)) of rows and columns from one exponential
    call; their powers from one running product (``_powers``); one check that
    holds every table entry within 4.9e-13 of unit modulus; and each factor,
    the outer product of its coarse and fine table without the ragged tail of
    the last block, written into its buffer.  A product of two checked entries
    lies within (1 + 4.9e-13)**2 - 1 plus one rounding, under 1e-12, of unit
    modulus, so the check on the tables bounds every factor entry.  The scale
    s is formed per batch, so the band costs no memory beyond its own.
    """
    gains, cosines = channel[0], np.asarray(channel[1], dtype=float)
    if len(gains) == 0:
        raise ValueError("a multipath channel needs at least one path")
    if np.sum(np.abs(gains) ** 2) <= 0.0:
        raise ValueError("total path power must be positive")
    if cosines.shape != (len(gains), 2):
        raise ValueError(f"need one (k_h, k_v) row per path gain, got {cosines.shape} cosines")
    freqs = np.asarray(frequencies_hz, dtype=float)
    if not np.all(freqs > 0):
        raise ValueError(f"frequency_hz must be positive, got {freqs[~(freqs > 0)][0]}")
    sizes, cosine_of = (array.rows, array.cols), (cosines[:, 1], cosines[:, 0])
    blocks = [math.isqrt(n - 1) + 1 for n in sizes]
    # four tables: the coarse and fine steps of the row factor, then of the column factor
    steps = np.stack([step for k, b in zip(cosine_of, blocks) for step in (b * k, k)])[..., None]
    count = max(max(b, -(-n // b)) for n, b in zip(sizes, blocks))
    paths = len(gains)
    buffers = [np.empty(paths * min(batch, len(freqs)) * n, dtype=complex) for n in sizes]
    for start in range(0, max(len(freqs), 1), batch):
        scale = 2.0 * np.pi * (freqs[start:start + batch] / SPEED_OF_LIGHT_M_S) * array.spacing_m
        tables = _powers(np.exp(1j * (scale * steps)), count)
        if not np.max(np.abs(np.abs(tables) - 1.0), initial=0.0) <= 4.9e-13:
            raise ValueError("array response entries must have unit magnitude")
        width = tables.shape[2]
        a_v, a_h = (buffer[:paths * width * n].reshape(paths, width, n)
                    for n, buffer in zip(sizes, buffers))
        for factor, coarse, fine, b in zip((a_v, a_h), tables[0::2], tables[1::2], blocks):
            _ramps_into(factor, coarse, fine[..., :b])
        del tables, coarse, fine  # only the factors outlive the batch's build
        yield a_v, a_h


def steering_factors(
    array: PlanarArray, channel: tuple[np.ndarray, np.ndarray], frequencies_hz: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row and column factors of every path's response at every frequency.

    The channel needs at least one path, one (k_h, k_v) row per gain and
    positive total power; every frequency must be positive.  The planar
    response is separable: with s = 2*pi*(f/c)*spacing, entry (m, n)
    is a_v[m] * a_h[n] for a_v[m] = exp(j*s*m*k_v) and
    a_h[n] = exp(j*s*n*k_h), and the row-major response is np.kron(a_v, a_h).
    Each factor is built from two exponentials per path and frequency, a
    fine step exp(j*s*k) and a coarse step over a block of B = ceil(sqrt(n))
    elements, whose powers are running products: entry q*B + r is
    coarse**q * fine**r.  The phase is thus rounded as two terms and each
    product adds a rounding, so an entry moves by a few ulp of the largest
    phase s*m*k plus a few ulp per multiplication.  Returns a_v with shape
    (paths, frequencies, rows) and a_h with shape (paths, frequencies, cols),
    whose entries are within 1e-12 of unit modulus.  This is the one-batch
    case of ``factor_batches``, which runs the checks and builds the tables.
    """
    freqs = np.asarray(frequencies_hz, dtype=float)
    return next(factor_batches(array, channel, freqs, max(len(freqs), 1)))


def channel_vector(
    array: PlanarArray, channel: tuple[np.ndarray, np.ndarray], frequency_hz: float
) -> np.ndarray:
    """Channel vector h(f) = sum of gain_l * response(direction_l, f) over paths.

    Entry (m, n) is sum_l g_l a_v,l[m] a_h,l[n] with the factors of
    ``steering_factors`` at the single frequency: one (rows x paths) by
    (paths x cols) product, flattened row-major.
    """
    a_v, a_h = steering_factors(array, channel, np.array([frequency_hz]))
    gains = np.asarray(channel[0], dtype=complex)
    return ((gains[:, None] * a_v[:, 0]).T @ a_h[:, 0]).ravel()

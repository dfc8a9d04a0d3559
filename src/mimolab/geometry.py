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

import numpy as np

from .propagation import SPEED_OF_LIGHT_M_S


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
    table[..., 1:] = base[..., None]
    return np.multiply.accumulate(table, axis=-1, out=table)


def _phase_ramps(scale: np.ndarray, cosine: np.ndarray, n: int) -> np.ndarray:
    """exp(j*scale*m*cosine) for m = 0 .. n-1 along a new last axis.

    Each ramp is a geometric progression in m, so with a block length
    B = ceil(sqrt(n)) and m = q*B + r it is the outer product of a coarse
    table Z**q and a fine table z**r, for the two exponentials
    z = exp(j*scale*cosine) and Z = exp(j*scale*(B*cosine)).  Both tables
    are running products (about sqrt(n) multiplications each), so a ramp
    costs two exponentials instead of n.  The ragged tail of the last block
    is sliced off.  Every entry of both tables is checked to lie within
    4.9e-13 of unit modulus, the table tolerance; a product of two such
    entries is then within (1 + 4.9e-13)**2 - 1 plus one rounding, under
    1e-12, of unit modulus, so the check on about 2*sqrt(n) table entries
    bounds all n ramp entries.
    """
    block = math.isqrt(n - 1) + 1
    coarse = _powers(np.exp(1j * (scale * (block * cosine))), -(-n // block))
    fine = _powers(np.exp(1j * (scale * cosine)), block)
    for table in (coarse, fine):
        if not np.max(np.abs(np.abs(table) - 1.0)) <= 4.9e-13:
            raise ValueError("array response entries must have unit magnitude")
    ramps = coarse[..., :, None] * fine[..., None, :]
    return ramps.reshape(*ramps.shape[:-2], -1)[..., :n]


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
    fine step exp(j*s*k) and a coarse step over a block of about sqrt(n)
    elements, whose powers are running products (``_phase_ramps``).  The
    phase is thus rounded as two terms and each product adds a rounding, so
    an entry moves by a few ulp of the largest phase s*m*k plus a few ulp
    per multiplication.  Returns a_v with shape (paths, frequencies, rows)
    and a_h with shape (paths, frequencies, cols).  Their entries are within
    1e-12 of unit modulus: ``_phase_ramps`` checks its coarse and fine tables
    to 4.9e-13, which bounds every product.
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
    scale = 2.0 * np.pi * (freqs / SPEED_OF_LIGHT_M_S) * array.spacing_m
    return (_phase_ramps(scale, cosines[:, 1, None], array.rows),
            _phase_ramps(scale, cosines[:, 0, None], array.cols))


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

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimolab import geometry
from mimolab.beamforming import squint_sweep, sweep_frequencies
from mimolab.geometry import (
    SPEED_OF_LIGHT_M_S,
    PlanarArray,
    channel_vector,
    direction_cosines,
    steering_factors,
)
from mimolab.scenarios import SIXPATH_DIRECTIONS, sixpath_channel

C = SPEED_OF_LIGHT_M_S

directions = st.tuples(st.floats(-math.pi + 1e-9, math.pi), st.floats(-math.pi / 2, math.pi / 2))
frequencies = st.floats(1e8, 1e12)


def channel(gains, directions):
    """(gains, cosines) pair of paths with the given gains toward (azimuth, elevation)s."""
    return np.array(gains, dtype=complex), np.array([direction_cosines(*d) for d in directions])


def response(array, direction, frequency_hz):
    """Row-major response of a single unit-gain path toward (azimuth, elevation)."""
    return channel_vector(array, channel([1.0], [direction]), frequency_hz)


def test_half_wavelength_spacing():
    for f in (3e9, 38e9, 60e9):
        arr = PlanarArray.half_wavelength_at(4, 4, f)
        assert abs(arr.spacing_m - C / (2 * f)) <= 1e-9 * arr.spacing_m


def test_boresight_response_is_all_ones():
    arr = PlanarArray.half_wavelength_at(3, 5, 28e9)
    resp = response(arr, (0.0, 0.0), 11e9)
    assert np.allclose(resp, 1.0 + 0.0j, atol=1e-15)


def test_endfire_half_wavelength_pair():
    f = 10e9
    arr = PlanarArray.half_wavelength_at(1, 2, f)
    resp = response(arr, (math.pi / 2, 0.0), f)
    assert resp[0] == pytest.approx(1.0 + 0.0j)
    # half-wavelength end-fire: second element sits exactly pi out of phase
    assert resp[1] == pytest.approx(-1.0 + 0.0j, abs=1e-12)


def test_phase_scales_linearly_with_frequency():
    arr = PlanarArray.half_wavelength_at(4, 6, 60e9)
    direction = (0.7, -0.4)
    f = 20e9
    low = np.angle(response(arr, direction, f))
    high = np.angle(response(arr, direction, 2 * f))
    delta = (high - 2 * low) % (2 * np.pi)
    delta = np.minimum(delta, 2 * np.pi - delta)
    assert np.max(delta) < 1e-9


def test_positions_do_not_rescale_with_evaluation_frequency():
    # same spacing in meters regardless of where the response is evaluated
    arr = PlanarArray.half_wavelength_at(2, 2, 60e9)
    direction = (0.5, 0.1)
    r1 = response(arr, direction, 59e9)
    r2 = response(arr, direction, 61e9)
    assert arr.spacing_m == C / (2 * 60e9)
    assert not np.allclose(r1, r2)


def test_unit_modulus_over_random_draws():
    rng = np.random.Generator(np.random.PCG64(2024))
    arr = PlanarArray.half_wavelength_at(3, 4, 60e9)
    for _ in range(1000):
        az = rng.uniform(-math.pi + 1e-9, math.pi)
        el = rng.uniform(-math.pi / 2, math.pi / 2)
        f = rng.uniform(1e9, 200e9)
        chan = channel([1.0], [(az, el)])
        for factor in steering_factors(arr, chan, [f]):
            assert np.max(np.abs(np.abs(factor) - 1.0)) <= 1e-12
        assert np.max(np.abs(np.abs(channel_vector(arr, chan, f)) - 1.0)) <= 1e-12


@settings(max_examples=100)
@given(direction=directions, f=frequencies)
def test_conjugate_symmetry(direction, f):
    arr = PlanarArray.half_wavelength_at(3, 3, 60e9)
    az, el = direction
    mirrored = (-az if az != math.pi else math.pi, -el)
    forward = response(arr, direction, f)
    backward = response(arr, mirrored, f)
    if az != math.pi:
        assert np.allclose(backward, np.conj(forward), atol=1e-12)


def test_single_path_channel_equals_response():
    arr = PlanarArray.half_wavelength_at(4, 4, 60e9)
    chan = channel([1.0 + 0.0j], [(0.3, -0.2)])
    h = channel_vector(arr, chan, 58e9)
    a_v, a_h = steering_factors(arr, chan, [58e9])
    # a one-term matrix product may round the complex multiply differently
    np.testing.assert_allclose(h, np.kron(a_v[0, 0], a_h[0, 0]), rtol=0, atol=1e-15)


def test_opposite_gains_cancel():
    arr = PlanarArray.half_wavelength_at(2, 3, 60e9)
    d = (0.3, -0.2)
    g = 0.8 - 0.3j
    chan = channel([g, -g], [d, d])
    assert np.allclose(channel_vector(arr, chan, 60e9), 0.0, atol=1e-15)


def test_sixpath_channel_against_bruteforce_accumulation():
    # independent oracle: per-element scalar accumulation with cmath
    arr = PlanarArray.half_wavelength_at(32, 32, 60e9)
    chan = sixpath_channel(42)
    gains, _ = chan
    f = 60e9
    h = channel_vector(arr, chan, f)

    brute = np.zeros(arr.num_elements, dtype=complex)
    for m in range(arr.rows):
        for n in range(arr.cols):
            acc = 0.0 + 0.0j
            for gain, (az, el) in zip(gains, SIXPATH_DIRECTIONS):
                k_h = math.sin(az) * math.cos(el)
                k_v = math.sin(el)
                phase = 2.0 * math.pi * (f / C) * arr.spacing_m * (n * k_h + m * k_v)
                acc += gain * cmath.exp(1j * phase)
            brute[m * arr.cols + n] = acc

    assert np.allclose(h, brute, rtol=1e-12, atol=1e-12)
    power = np.vdot(h, h).real
    brute_power = sum(abs(x) ** 2 for x in brute)
    assert power == pytest.approx(brute_power, rel=1e-12)
    # distinct path directions: far from the co-directional coherent limit
    coherent = (sum(abs(g) for g in gains)) ** 2 * arr.num_elements
    assert power < coherent


@settings(max_examples=50)
@given(seed=st.integers(0, 2**32 - 1))
def test_channel_power_triangle_inequality(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    arr = PlanarArray.half_wavelength_at(3, 3, 60e9)
    gains, directions = [], []
    for _ in range(rng.integers(1, 5)):
        gains.append(rng.normal() + 1j * rng.normal())
        directions.append((rng.uniform(-3, 3), rng.uniform(-1.5, 1.5)))
    h = channel_vector(arr, channel(gains, directions), 60e9)
    bound = (sum(abs(g) for g in gains)) ** 2 * arr.num_elements
    assert np.vdot(h, h).real <= bound * (1 + 1e-12)


def test_triangle_equality_for_shared_direction():
    arr = PlanarArray.half_wavelength_at(3, 3, 60e9)
    gains = (0.5, 1.5, 0.25)
    h = channel_vector(arr, channel(gains, [(0.4, 0.2)] * 3), 60e9)
    bound = sum(gains) ** 2 * arr.num_elements
    assert np.vdot(h, h).real == pytest.approx(bound, rel=1e-12)


def test_frequency_continuity():
    arr = PlanarArray.half_wavelength_at(32, 32, 60e9)
    chan = sixpath_channel(42)
    f = 60e9
    df = f * 1e-7  # well inside the df/f < 1e-6 regime
    h0 = channel_vector(arr, chan, f)
    h1 = channel_vector(arr, chan, f + df)
    rel = np.linalg.norm(h1 - h0) / np.linalg.norm(h0)
    assert rel < 1e-3


@pytest.mark.parametrize(
    "rows,cols,spacing,f",
    [
        (0, 4, 0.01, 1e9),
        (4, 0, 0.01, 1e9),
        (4, 4, 0.0, 1e9),
        (4, 4, -0.1, 1e9),
        (4, 4, float("nan"), 1e9),
        (4, 4, math.inf, 1e9),
        (4, 4, 0.01, 0.0),
        (4, 4, 0.01, float("nan")),
        # c/2f overflows to an infinite spacing
        (4, 4, 0.01, 5e-301),
    ],
)
def test_invalid_array_rejected(rows, cols, spacing, f):
    # each case breaks one input: the shape, the spacing, or the frequency that sets it
    with pytest.raises(ValueError):
        PlanarArray(rows, cols, spacing)
        PlanarArray.half_wavelength_at(rows, cols, f)


def test_invalid_direction_rejected():
    assert direction_cosines(math.pi, -math.pi / 2)[1] == -1.0  # both ends closed
    with pytest.raises(ValueError, match="azimuth_rad"):
        direction_cosines(-math.pi, 0.0)  # open at -pi
    with pytest.raises(ValueError, match="azimuth_rad"):
        direction_cosines(3.5, 0.0)
    with pytest.raises(ValueError, match="elevation_rad"):
        direction_cosines(0.0, 2.0)
    with pytest.raises(ValueError, match="elevation_rad"):
        direction_cosines(0.0, float("nan"))


def test_nonpositive_frequency_rejected():
    arr = PlanarArray.half_wavelength_at(2, 2, 60e9)
    with pytest.raises(ValueError):
        response(arr, (0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        response(arr, (0.0, 0.0), -1e9)
    chan = channel([1.0], [(0.0, 0.0)])
    with pytest.raises(ValueError):
        steering_factors(arr, chan, [60e9, 0.0])


def test_nan_frequency_rejected():
    nan = float("nan")
    arr = PlanarArray.half_wavelength_at(2, 2, 60e9)
    with pytest.raises(ValueError):
        response(arr, (0.0, 0.0), nan)
    chan = channel([1.0], [(0.0, 0.0)])
    with pytest.raises(ValueError):
        steering_factors(arr, chan, [60e9, nan])
    with pytest.raises(ValueError):
        PlanarArray.half_wavelength_at(2, 2, nan)


def test_empty_or_powerless_channel_rejected():
    arr = PlanarArray.half_wavelength_at(2, 2, 60e9)
    with pytest.raises(ValueError, match="at least one path"):
        steering_factors(arr, (np.array([]), np.empty((0, 2))), [60e9])
    with pytest.raises(ValueError, match="total path power"):
        channel_vector(arr, channel([0.0, 0.0], [(0.0, 0.0), (0.1, 0.0)]), 60e9)
    # one cosine row per gain
    gains, cosines = channel([1.0, 0.5], [(0.0, 0.0), (0.1, 0.0)])
    for bad in (cosines[:1], np.hstack([cosines, cosines]), cosines.ravel()):
        with pytest.raises(ValueError, match="one \\(k_h, k_v\\) row per path gain"):
            steering_factors(arr, (gains, bad), [60e9])


@pytest.mark.parametrize("n", [1, 2, 3, 31, 127, 128, 4096])
def test_steering_factors_match_one_exponential_per_element(n):
    # Direct: phi = fl(s * fl(m * k)) is within 2u|phi| of the exact phase s*m*k, u = eps/2.
    # Factored: the coarse phase s*(q*B)*k and the fine phase s*r*k are each within 2u of
    # their size, both at most P = max |s*m*k|.  As |exp(ja) - exp(jb)| <= |a - b|, the two
    # entries differ by at most 6u*P = 3*eps*P, plus a few eps for the exponentials
    # and the product of the coarse and fine factors.
    arr = PlanarArray.half_wavelength_at(n, n, 60e9)
    chan = sixpath_channel(42)
    freqs = np.array([59e9, 60e9, 61e9])
    a_v, a_h = steering_factors(arr, chan, freqs)
    scale = (2.0 * np.pi * (freqs / C) * arr.spacing_m)[None, :, None]
    eps = np.finfo(float).eps
    for factor, k in ((a_v, chan[1][:, 1]), (a_h, chan[1][:, 0])):
        phase = scale * (np.arange(n) * k[:, None, None])
        assert factor.shape == phase.shape == (6, 3, n)
        bound = eps * (3.0 * np.max(np.abs(phase)) + 8.0)
        assert np.max(np.abs(factor - np.exp(1j * phase))) <= bound


def test_steering_factors_check_unit_modulus():
    # an infinite frequency passes the positivity check, but 0 * inf gives NaN phases
    arr = PlanarArray.half_wavelength_at(2, 2, 60e9)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="unit magnitude"):
        response(arr, (0.0, 0.0), float("inf"))


@pytest.mark.parametrize("n", [1, 2, 31, 4096])
def test_factor_tables_are_checked_to_their_tolerance(monkeypatch, n):
    # _phase_ramps checks its coarse and fine tables to 4.9e-13 of unit modulus, so every
    # product stays within 1e-12; a table off by more is rejected before any product
    arr = PlanarArray.half_wavelength_at(n, n, 60e9)
    chan = sixpath_channel(42)
    powers = geometry._powers

    def tables_off_by(t):
        monkeypatch.setattr(geometry, "_powers", lambda base, count: (1 + t) * powers(base, count))

    tables_off_by(4e-13)
    for factor in steering_factors(arr, chan, [59e9, 61e9]):
        assert np.max(np.abs(np.abs(factor) - 1.0)) <= 1e-12
    tables_off_by(6e-13)
    with pytest.raises(ValueError, match="unit magnitude"):
        steering_factors(arr, chan, [59e9, 61e9])


def _accumulated_powers(base, count):
    """_powers as a running product at every count, one-entry tables included."""
    table = np.empty(base.shape + (count,), dtype=complex)
    table[..., 0] = 1.0
    table[..., 1:] = base[..., None]
    return np.multiply.accumulate(table, axis=-1, out=table)


def test_one_element_array_skips_the_running_product_bit_for_bit(monkeypatch):
    # a 1x1 array's tables hold one entry, which a running product leaves as it is
    arr = PlanarArray.half_wavelength_at(1, 1, 60e9)
    chan = sixpath_channel(42)
    freqs = sweep_frequencies(60e9, 4e9, 1000)  # a few batches and a ragged tail

    def outputs():
        return [a.tobytes() for a in (*steering_factors(arr, chan, freqs),
                                      squint_sweep(arr, chan, 60e9, freqs))]

    skipped = outputs()
    monkeypatch.setattr(geometry, "_powers", _accumulated_powers)
    assert skipped == outputs()
    assert skipped[0] == np.ones((6, 1000, 1), dtype=complex).tobytes()


def test_channel_vector_allocates_little_beyond_its_result():
    arr = PlanarArray.half_wavelength_at(512, 512, 60e9)
    chan = sixpath_channel(42)
    tracemalloc.start()
    try:
        h = channel_vector(arr, chan, 60e9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * h.nbytes

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimolab import beamforming, geometry
from mimolab.beamforming import (
    DegenerateEntryWarning,
    _sweep_batch,
    analog_weights,
    efficiency,
    hybrid_weights,
    mrt_weights,
    squint_sweep,
    sweep_frequencies,
)
from mimolab.geometry import PlanarArray, channel_vector, direction_cosines
from mimolab.scenarios import sixpath_channel

from conftest import bundled

CENTER_HZ = bundled("fig4_32x32")["center_frequency_hz"]


def fig4_array(side):
    """side x side aperture spaced at half a wavelength of the fig4 configs' center."""
    return PlanarArray.half_wavelength_at(side, side, CENTER_HZ)


def _los_channel(azimuth_rad, elevation_rad):
    """(gains, cosines) of a single unit-gain path toward the given direction."""
    return np.array([1.0 + 0.0j]), np.array([direction_cosines(azimuth_rad, elevation_rad)])


def _band_sweep(array, channel, center_hz, span_hz, n_points):
    """(frequencies, efficiencies) of squint_sweep over the band of sweep_frequencies."""
    freqs = sweep_frequencies(center_hz, span_hz, n_points)
    return freqs, squint_sweep(array, channel, center_hz, freqs)


def _random_channel(seed, m=16):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.normal(size=m) + 1j * rng.normal(size=m)


# ---------------------------------------------------------------------------
# MRT
# ---------------------------------------------------------------------------

def test_mrt_single_entry_channel():
    w = mrt_weights(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
    assert np.allclose(w, [1.0, 0.0, 0.0, 0.0])


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1))
def test_mrt_attains_unit_efficiency(seed):
    h = _random_channel(seed)
    assert efficiency(mrt_weights(h), h) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    k_users=st.integers(1, 4),
    spare_chains=st.integers(0, 12),
)
def test_weights_have_unit_norm_and_analog_equal_magnitudes(seed, k_users, spare_chains):
    m = 16
    channels = [_random_channel(seed + k, m) for k in range(k_users)]
    analog = analog_weights(channels[0])
    hybrid = hybrid_weights(channels, n_rf=k_users + spare_chains)  # K <= n_rf <= M
    assert hybrid.shape == (k_users, m)
    for w in (mrt_weights(channels[0]), analog, *hybrid):
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
    assert np.max(np.abs(np.abs(analog) - 1.0 / math.sqrt(m))) <= 1e-12


def test_mrt_rejects_zero_channel():
    with pytest.raises(ValueError):
        mrt_weights(np.zeros(4, dtype=complex))


def test_digital_gain_is_full_at_every_frequency():
    arr = fig4_array(32)
    chan = sixpath_channel(42)
    for f in np.linspace(59e9, 61e9, 7):
        h = channel_vector(arr, chan, f)
        assert efficiency(mrt_weights(h), h) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# analog weights
# ---------------------------------------------------------------------------

def test_analog_matches_pure_steering_vector():
    arr = PlanarArray.half_wavelength_at(8, 8, 60e9)
    chan = _los_channel(0.6, -0.3)
    h = channel_vector(arr, chan, 60e9)
    assert efficiency(analog_weights(h), h) == pytest.approx(1.0, abs=1e-12)


def test_analog_center_efficiency_on_sixpath_64():
    arr = fig4_array(64)
    h = channel_vector(arr, sixpath_channel(42), CENTER_HZ)
    eff = efficiency(analog_weights(h), h)
    assert 0.85 <= eff <= 0.95  # about 90% with reflections present


def test_analog_equal_magnitude_channel_gets_full_gain():
    rng = np.random.Generator(np.random.PCG64(5))
    h = 2.7 * np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
    assert efficiency(analog_weights(h), h) == pytest.approx(1.0, abs=1e-12)


def test_analog_zero_entries_warn_and_get_phase_zero():
    h = np.array([1.0 + 1.0j, 0.0, 2.0], dtype=complex)
    with pytest.warns(DegenerateEntryWarning):
        w = analog_weights(h)
    assert w[1] == pytest.approx(1.0 / math.sqrt(3))


def test_analog_rejects_zero_vector():
    with pytest.raises(ValueError):
        analog_weights(np.zeros(3, dtype=complex))


def test_analog_is_unit_modulus_optimum():
    h = _random_channel(99, m=32)
    w = analog_weights(h)
    best = abs(np.dot(w, h))
    rng = np.random.Generator(np.random.PCG64(100))
    for _ in range(1000):
        perturbed = np.exp(1j * rng.uniform(0, 2 * np.pi, h.size)) / math.sqrt(h.size)
        assert abs(np.dot(perturbed, h)) <= best * (1 + 1e-12)


# ---------------------------------------------------------------------------
# hybrid weights
# ---------------------------------------------------------------------------

def test_hybrid_full_chains_reduce_to_digital():
    h = _random_channel(3, m=16)
    (w,) = hybrid_weights([h], n_rf=16)
    assert efficiency(w, h) == pytest.approx(1.0, abs=1e-9)


def test_hybrid_single_chain_equals_analog():
    h = _random_channel(4, m=16)
    (w,) = hybrid_weights([h], n_rf=1)
    assert np.allclose(w, analog_weights(h), atol=1e-12)


def test_hybrid_two_separated_los_users():
    arr = PlanarArray.half_wavelength_at(16, 16, 60e9)
    h1 = channel_vector(arr, _los_channel(math.pi / 4, 0.0), 60e9)
    h2 = channel_vector(arr, _los_channel(-math.pi / 4, 0.0), 60e9)
    w1, w2 = hybrid_weights([h1, h2], n_rf=2)
    assert efficiency(w1, h1) >= 0.95
    assert efficiency(w2, h2) >= 0.95
    assert abs(np.dot(w1, h2)) ** 2 / np.vdot(h2, h2).real <= 1e-2
    assert abs(np.dot(w2, h1)) ** 2 / np.vdot(h1, h1).real <= 1e-2


def test_hybrid_weights_lie_in_bank_span():
    h1 = _random_channel(11, m=25)
    h2 = _random_channel(12, m=25)
    bank = np.stack([analog_weights(h) for h in (h1, h2)], axis=1)
    for w in hybrid_weights([h1, h2], n_rf=2):
        coeffs, *_ = np.linalg.lstsq(bank, w, rcond=None)
        assert np.linalg.norm(bank @ coeffs - w) < 1e-10


def test_hybrid_collinear_users_do_not_raise():
    h = _random_channel(8, m=16)
    w = hybrid_weights([h, h * (1 + 1e-12)], n_rf=2)  # regularizer absorbs the rank drop
    assert np.isfinite(w).all()


def test_hybrid_rejects_too_few_chains():
    h1, h2 = _random_channel(1), _random_channel(2)
    with pytest.raises(ValueError):
        hybrid_weights([h1, h2], n_rf=1)
    with pytest.raises(ValueError):
        hybrid_weights([h1], n_rf=17)  # n_rf > M


# ---------------------------------------------------------------------------
# efficiency
# ---------------------------------------------------------------------------

def test_efficiency_orthogonal_is_zero():
    w = np.array([1.0, 0.0], dtype=complex)
    h = np.array([0.0, 1.0], dtype=complex)
    assert efficiency(w, h) == 0.0


def test_efficiency_rejects_zero_channel():
    with pytest.raises(ValueError):
        efficiency(np.ones(2, dtype=complex), np.zeros(2, dtype=complex))


@settings(max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    re=st.floats(-5, 5),
    im=st.floats(-5, 5),
)
def test_efficiency_scale_invariant_and_bounded(seed, re, im):
    c = complex(re, im)
    if abs(c) < 1e-6:
        c = 1.0 + 1.0j
    h = _random_channel(seed, m=8)
    w = _random_channel(seed + 1, m=8)
    w = w / np.linalg.norm(w)
    base = efficiency(w, h)
    assert 0.0 <= base <= 1.0
    assert efficiency(w, c * h) == pytest.approx(base, rel=1e-9)


def test_efficiency_one_iff_conjugate_collinear():
    h = _random_channel(21, m=12)
    w = np.conj(h) * (0.3 - 0.9j)
    w /= np.linalg.norm(w)
    assert efficiency(w, h) == pytest.approx(1.0, abs=1e-12)
    w2 = h / np.linalg.norm(h)  # collinear with h itself, not its conjugate
    assert efficiency(w2, h) < 1.0


def test_sixpath_32_stays_above_three_quarters_at_band_edges():
    arr = fig4_array(32)
    chan = sixpath_channel(42)
    w = analog_weights(channel_vector(arr, chan, CENTER_HZ))
    for f in (CENTER_HZ - 1e9, CENTER_HZ + 1e9):
        assert efficiency(w, channel_vector(arr, chan, f)) >= 0.75


# ---------------------------------------------------------------------------
# squint sweep
# ---------------------------------------------------------------------------

def test_sweep_center_is_exact_for_single_path():
    arr = PlanarArray.half_wavelength_at(16, 16, 60e9)
    chan = _los_channel(0.8, -0.5)
    freqs, effs = _band_sweep(arr, chan, 60e9, 2e9, 41)
    center = np.argmin(np.abs(freqs - 60e9))
    assert effs[center] == pytest.approx(1.0, abs=1e-12)
    # squint persists even in LoS: the band edges fall below the center
    assert effs[0] < 1.0 and effs[-1] < 1.0


@pytest.mark.parametrize("side", [32, 64, 128])
def test_sweep_400mhz_band_for_all_apertures(side):
    _, effs = _band_sweep(fig4_array(side), sixpath_channel(42), CENTER_HZ, 400e6, 41)
    assert np.all(effs >= 0.80)
    assert np.all(effs <= 0.95)


def test_sweep_larger_aperture_squints_harder():
    chan = sixpath_channel(42)
    _, small = _band_sweep(fig4_array(32), chan, CENTER_HZ, 2e9, 41)
    _, large = _band_sweep(fig4_array(128), chan, CENTER_HZ, 2e9, 41)
    assert large.min() < small.min()
    assert small.min() >= 0.75


def test_digital_dominates_hybrid_dominates_analog_across_band():
    arr = fig4_array(32)
    chan = sixpath_channel(42)
    h_center = channel_vector(arr, chan, CENTER_HZ)
    analog = analog_weights(h_center)
    for f in np.linspace(59e9, 61e9, 9):
        h = channel_vector(arr, chan, f)
        digital_eff = efficiency(mrt_weights(h), h)
        (hybrid,) = hybrid_weights([h_center], n_rf=1)
        hybrid_eff = efficiency(hybrid, h)
        analog_eff = efficiency(analog, h)
        assert digital_eff == pytest.approx(1.0, abs=1e-12)
        assert digital_eff >= hybrid_eff - 1e-12
        assert hybrid_eff >= analog_eff - 1e-12


def _batches(rows, cols, channel, n_batches, tail):
    """Points filling n_batches whole squint_sweep batches plus a ragged tail of tail points."""
    return n_batches * _sweep_batch(rows, cols, len(channel[0])) + tail


_SIXPATH_7, _SIXPATH_42, _LOS = sixpath_channel(7), sixpath_channel(42), _los_channel(0.8, -0.5)


@pytest.mark.parametrize(
    "rows, cols, channel, n_points",
    [
        (32, 32, _SIXPATH_42, 201),  # the fig4 sweep: four batches of 50 and one point
        (8, 24, _SIXPATH_7, _batches(8, 24, _SIXPATH_7, 2, 3)),
        (24, 8, _SIXPATH_7, _batches(24, 8, _SIXPATH_7, 2, 3)),
        (8, 24, _LOS, _batches(8, 24, _LOS, 2, 1)),
        (24, 8, _LOS, 3),  # a band shorter than one batch
        # prime sides: every block of the row factors' sqrt(n) split is ragged or single
        (127, 3, _SIXPATH_42, _batches(127, 3, _SIXPATH_42, 2, 5)),
        # the smallest array: the largest batch, 364 frequencies
        (1, 1, _SIXPATH_42, _batches(1, 1, _SIXPATH_42, 2, 7)),
    ],
    ids=["sixpath-32x32", "sixpath-8x24", "sixpath-24x8", "los-8x24", "los-24x8",
         "sixpath-127x3", "sixpath-1x1"],
)
def test_sweep_matches_per_frequency_reference(rows, cols, channel, n_points):
    # the batched separable kernel against one full channel vector per frequency
    arr = PlanarArray.half_wavelength_at(rows, cols, CENTER_HZ)
    freqs, effs = _band_sweep(arr, channel, CENTER_HZ, 2e9, n_points)
    w = analog_weights(channel_vector(arr, channel, CENTER_HZ))
    expected = [efficiency(w, channel_vector(arr, channel, f)) for f in freqs]
    assert freqs.size == n_points
    np.testing.assert_allclose(effs, expected, rtol=1e-12, atol=0)
    if len(channel[0]) == 1 and n_points % 2 == 1:
        assert effs[n_points // 2] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "rows, cols, channel",
    [(24, 8, _SIXPATH_7), (8, 24, _SIXPATH_7), (127, 3, _SIXPATH_42), (24, 8, _LOS)],
    ids=["sixpath-24x8", "sixpath-8x24", "sixpath-127x3", "los-24x8"],
)
def test_sweep_over_several_row_blocks_matches_per_frequency_reference(monkeypatch, rows, cols,
                                                                       channel):
    # 20 beam entries a block: 24x8 takes 12 blocks of 2 rows, 8x24 8 blocks of one row and
    # 127x3 blocks of 6 rows with a ragged last one, each over two whole batches and a tail
    monkeypatch.setattr(beamforming, "_BEAM_ELEMENTS", 20)
    arr = PlanarArray.half_wavelength_at(rows, cols, CENTER_HZ)
    freqs, effs = _band_sweep(arr, channel, CENTER_HZ, 2e9, _batches(rows, cols, channel, 2, 3))
    w = analog_weights(channel_vector(arr, channel, CENTER_HZ))
    expected = [efficiency(w, channel_vector(arr, channel, f)) for f in freqs]
    np.testing.assert_allclose(effs, expected, rtol=1e-12, atol=0)


def test_sweep_checks_the_whole_center_channel_over_its_row_blocks(monkeypatch):
    monkeypatch.setattr(beamforming, "_BEAM_ELEMENTS", 20)
    arr = PlanarArray.half_wavelength_at(24, 8, CENTER_HZ)

    def last_row_zero(array, channel, frequencies_hz):
        # the center factors with the last row of h(f_center), in the last row block, zeroed
        a_v, a_h = geometry.steering_factors(array, channel, frequencies_hz)
        a_v[:, :, -1] = 0.0
        return a_v, a_h

    monkeypatch.setattr(beamforming, "steering_factors", last_row_zero)
    with pytest.warns(DegenerateEntryWarning) as warned:
        _band_sweep(arr, _SIXPATH_7, CENTER_HZ, 2e9, 21)
    assert len(warned) == 1
    monkeypatch.setattr(beamforming, "steering_factors", geometry.steering_factors)
    # two boresight paths of opposite gain: h(f_center) is exactly zero in every block
    cancelling = np.array([1.0 + 0.0j, -1.0 + 0.0j]), np.zeros((2, 2))
    with pytest.raises(ValueError, match="cannot align to a zero channel vector"):
        _band_sweep(arr, cancelling, CENTER_HZ, 2e9, 21)


def test_sweep_batch_follows_its_element_budget():
    assert [_sweep_batch(n, n, 6) for n in (1, 32, 64, 128, 4096)] == [364, 50, 26, 16, 16]


def test_sweep_working_set_stays_at_its_batch_budget():
    # 128x128 keeps batches of 16 frequencies; with them the sweep's traced peak is 1.33 MiB,
    # most of it the center-frequency channel vector and the analog weights
    arr = fig4_array(128)
    freqs = sweep_frequencies(CENTER_HZ, 2e9, 201)
    chan = sixpath_channel(42)
    tracemalloc.start()
    try:
        squint_sweep(arr, chan, CENTER_HZ, freqs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.4 * 2**20


def test_sweep_argument_validation():
    with pytest.raises(ValueError, match="n_points must be at least 2, got 1"):
        sweep_frequencies(60e9, 2e9, 1)
    with pytest.raises(ValueError, match="span_hz 0.0 is too narrow for 10"):
        sweep_frequencies(60e9, 0.0, 10)
    freqs = sweep_frequencies(1e9, 4e9, 10)  # the band reaches nonpositive frequencies
    with pytest.raises(ValueError, match="frequency_hz must be positive"):
        squint_sweep(fig4_array(32), sixpath_channel(42), 1e9, freqs)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_sweep_rejects_a_bad_frequency_in_a_later_batch(bad):
    # 32x32 takes batches of 50 frequencies: the first bad one sits in the second batch
    freqs = sweep_frequencies(CENTER_HZ, 2e9, 120)
    freqs[[75, 110]] = bad, -2.0
    with pytest.raises(ValueError, match=f"^frequency_hz must be positive, got {bad}$"):
        squint_sweep(fig4_array(32), sixpath_channel(42), CENTER_HZ, freqs)


def test_sweep_checks_the_factor_tables_of_every_batch(monkeypatch):
    powers = geometry._powers

    def band_tables_off(base, count):
        # base has one column per frequency: the center-frequency channel vector stays valid
        return (1 + 6e-13 if base.shape[-1] > 1 else 1.0) * powers(base, count)

    monkeypatch.setattr(geometry, "_powers", band_tables_off)
    with pytest.raises(ValueError, match="unit magnitude"):
        _band_sweep(fig4_array(32), sixpath_channel(42), CENTER_HZ, 2e9, 21)


def test_squint_curve_validation():
    arr = fig4_array(32)
    chan = sixpath_channel(42)
    with pytest.raises(ValueError, match="span_hz 1e-06 is too narrow for 201"):
        sweep_frequencies(60e9, 1e-6, 201)  # adjacent points round to one double
    freqs, effs = _band_sweep(arr, chan, 60e9, 2e9, 21)
    assert freqs.shape == effs.shape == (21,)
    assert np.all(freqs[1:] > freqs[:-1])
    assert np.all((effs >= 0.0) & (effs <= 1.0))

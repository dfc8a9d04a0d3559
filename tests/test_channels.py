import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimolab.channels import (
    _SCREEN_MARGIN,
    _drift_gain_bounds,
    _drift_uniforms,
    _exact_drift_gains,
    _extreme_drift_gain,
    _random_drift_gains,
    drift_bound_check,
    drift_gain,
    favorable_propagation_metric,
    hardening_metric,
    pair_correlation,
)
from mimolab.rng import (
    _SEED_BLOCK,
    _UNIFORM_BLOCK,
    RandomStream,
    _pcg64_state,
    _seed_sequence_states,
    child_uniforms,
    derive_seed,
    polar_complex_normal,
    polar_power,
)


def _complex_normal(seed, n):
    """n CN(0, 1) samples of the seed's stream: n radius uniforms, then n angle uniforms."""
    return polar_complex_normal(RandomStream(seed).uniform(2 * n).reshape(2, n))


# ---------------------------------------------------------------------------
# seeded stream regression anchors (byte-for-byte reproducibility contract)
# ---------------------------------------------------------------------------

def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(42, 0) == 18325140140735790510
    assert derive_seed(42, 1) == 936818002525049801
    children = {derive_seed(42, i) for i in range(1000)}
    assert len(children) == 1000


def test_stream_values_are_pinned():
    # the six-path channel's phases are 2*pi*u
    assert (2.0 * np.pi * RandomStream(42).uniform(3)).tolist() == [
        4.862909272689599,
        2.757554564287996,
        5.3947298351621535,
    ]
    z = _complex_normal(7, 2)
    assert z[0] == complex(0.15916121965654081, -0.9776254749094845)
    assert z[1] == complex(0.23401751214277133, 1.4900805312669558)


@pytest.mark.parametrize("low, high", [(0.0, 1.0), (-0.125, 0.125), (1e9, 200e9)])
def test_uniform_into_out_continues_the_stream(low, high):
    stream, buffer = RandomStream(7), np.empty(5)
    drawn = [stream.uniform(5, low, high, out=buffer).copy() for _ in range(3)]
    u = np.random.Generator(np.random.PCG64(7)).random(15)
    assert np.array_equal(np.concatenate(drawn), low + (high - low) * u)


@pytest.mark.parametrize("n", [1, 2, 100, 10_000])
@pytest.mark.parametrize("seed", [0, 7, 42, 2**64 - 1])
def test_complex_normal_power_is_norm_of_complex_normal(seed, n):
    h = _complex_normal(seed, n)
    power = polar_power(RandomStream(seed).uniform(n))  # the first n uniforms only
    assert power == pytest.approx(np.vdot(h, h).real, rel=1e-13, abs=0)


def test_block_seeding_matches_numpy_seed_sequence_and_pcg64():
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    seeds += [derive_seed(42, i) for i in range(10_000)]
    states = _seed_sequence_states(seeds)
    assert states.dtype == np.uint64 and states.shape == (len(seeds), 4)
    for seed, words in zip(seeds, states.tolist()):
        assert words == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
        assert _pcg64_state(*words) == np.random.PCG64(seed).state


def test_child_streams_draw_like_fresh_streams():
    # n around one block, so some blocks hold a single row; counts of one row,
    # a block's rows +/- 1, and past one seed-hash block
    for n in (1, _UNIFORM_BLOCK - 1, _UNIFORM_BLOCK, _UNIFORM_BLOCK + 1):
        rows = max(1, _UNIFORM_BLOCK // n)
        for count in sorted({1, max(1, rows - 1), rows + 1, _SEED_BLOCK + 1}):
            blocks = [block.copy() for block in child_uniforms(7, count, n)]
            assert all(len(block) <= rows for block in blocks)
            drawn = np.concatenate(blocks)
            assert drawn.shape == (count, n)
            for i, row in enumerate(drawn):
                assert np.array_equal(row, RandomStream(derive_seed(7, i)).uniform(n))


def test_complex_normal_unit_variance():
    z = _complex_normal(1, 200_000)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.01)
    assert abs(np.mean(z)) < 0.01


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_same_spec_gives_identical_vectors():
    assert np.array_equal(_complex_normal(42, 64), _complex_normal(42, 64))


def test_distinct_seeds_give_distinct_vectors():
    h_1, h_2 = _complex_normal(1, 64), _complex_normal(2, 64)
    assert not np.array_equal(h_1, h_2)


def test_mean_channel_power_matches_antenna_count():
    m = 10_000
    draws = [_complex_normal(derive_seed(9, i), m) for i in range(100)]
    ratio = np.mean([np.vdot(h, h).real / m for h in draws])
    assert 0.98 <= ratio <= 1.02


# ---------------------------------------------------------------------------
# hardening
# ---------------------------------------------------------------------------

def test_hardening_single_antenna_is_exponential():
    # population std/mean of |h|^2 ~ Exp(1) is exactly 1
    assert hardening_metric(1, 10_000, 42) == pytest.approx(1.0, abs=0.05)


def test_hardening_hundred_antennas():
    assert hardening_metric(100, 10_000, 42) == pytest.approx(0.100, abs=0.01)


def test_hardening_ten_thousand_antennas():
    assert hardening_metric(10_000, 10_000, 42) == pytest.approx(0.010, abs=0.002)


def test_hardening_decreases_with_antennas():
    values = [hardening_metric(m, 10_000, 42) for m in (10, 100, 1000, 10_000)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_hardening_is_reproducible():
    assert hardening_metric(50, 500, 42) == hardening_metric(50, 500, 42)
    assert hardening_metric(50, 500, 1) != hardening_metric(50, 500, 2)


def _per_draw_hardening(m, n, seed):
    powers = np.array(
        [-np.log1p(-RandomStream(derive_seed(seed, i)).uniform(m)).sum() for i in range(n)]
    )
    return float(powers.std(ddof=1) / powers.mean())


def _per_draw_favorable(m, n, seed):
    vals = np.empty(n)
    for i in range(n):
        h_i = _complex_normal(derive_seed(seed, 2 * i), m)
        h_j = _complex_normal(derive_seed(seed, 2 * i + 1), m)
        vals[i] = pair_correlation(h_i, h_j)
    return float(vals.mean())


@pytest.mark.parametrize(
    "m, n, seed",
    [(100, 2000, 42), (1000, 50, 7), (3, _SEED_BLOCK + 5, 2**64 - 1), (_UNIFORM_BLOCK + 1, 5, 1)],
)
def test_hardening_equals_per_draw_streams(m, n, seed):
    assert hardening_metric(m, n, seed) == _per_draw_hardening(m, n, seed)


@pytest.mark.parametrize(
    "m, n, seed",
    [
        (100, 2000, 42),
        (1000, 50, 7),
        (8, _SEED_BLOCK // 2 + 5, 123),
        (3, 700, 9),  # 1,365 children a block: pairs span blocks
        (_UNIFORM_BLOCK // 2 + 1, 3, 5),  # one child a block
    ],
)
def test_favorable_equals_per_draw_streams(m, n, seed):
    assert favorable_propagation_metric(m, n, seed) == _per_draw_favorable(m, n, seed)


def test_hardening_needs_two_draws():
    with pytest.raises(ValueError):
        hardening_metric(4, 1, 42)


# ---------------------------------------------------------------------------
# favorable propagation
# ---------------------------------------------------------------------------

def test_pair_correlation_identity_and_orthogonality():
    h = _complex_normal(42, 32)
    assert pair_correlation(h, h) == pytest.approx(1.0, abs=1e-12)
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0j], dtype=complex)
    assert pair_correlation(e1, e2) == 0.0


def test_favorable_metric_scales_as_inverse_sqrt_m():
    small = favorable_propagation_metric(100, 1000, 42)
    large = favorable_propagation_metric(10_000, 1000, 42)
    assert small / large == pytest.approx(10.0, rel=0.20)


def test_favorable_metric_needs_one_pair():
    with pytest.raises(ValueError):
        favorable_propagation_metric(4, 0, 42)


@pytest.mark.parametrize(
    "call",
    [
        lambda: hardening_metric(0, 10, 42),
        lambda: favorable_propagation_metric(0, 10, 42),
    ],
    ids=["hardening_metric", "favorable_propagation_metric"],
)
def test_random_channel_functions_need_an_antenna(call):
    with pytest.raises(ValueError, match="m_antennas"):
        call()


# ---------------------------------------------------------------------------
# drift gain and its lower bound
# ---------------------------------------------------------------------------

def test_drift_gain_no_movement():
    assert drift_gain(np.zeros(16)) == pytest.approx(16.0, rel=1e-12)


def test_drift_gain_common_phase_is_invariant():
    assert drift_gain(np.full(16, 0.125)) == pytest.approx(16.0, rel=1e-12)


def test_drift_gain_alternating_worst_case_is_half():
    m = 64
    phi = np.where(np.arange(m) % 2 == 0, 0.125, -0.125)
    assert drift_gain(phi) == pytest.approx(m / 2, rel=1e-12)


@settings(max_examples=200)
@given(
    m=st.integers(1, 32),
    mu=st.floats(0.0, 0.125),
    seed=st.integers(0, 2**32 - 1),
)
def test_drift_gain_bounded_by_m_and_by_cos_bound(m, mu, seed):
    phi = RandomStream(seed).uniform(m, -mu, mu)
    gain = drift_gain(phi)
    assert gain <= m * (1 + 1e-12)
    assert gain >= m * math.cos(2 * math.pi * mu) ** 2 * (1 - 1e-12)


@pytest.mark.parametrize("m", [2, 3, 4, 8, 12])
def test_drift_bound_exhaustive_sign_patterns(m):
    mu = 0.125
    bound = m * math.cos(2 * math.pi * mu) ** 2
    for mask in range(2**m):
        phi = np.array([mu if (mask >> i) & 1 else -mu for i in range(m)])
        assert drift_gain(phi) >= bound * (1 - 1e-12)


def test_drift_bound_check_zero_mu():
    min_gain, bound = drift_bound_check(16, 0.0, 100, 42)
    assert min_gain == pytest.approx(16.0, rel=1e-12)
    assert bound == pytest.approx(16.0, rel=1e-12)


def test_drift_bound_check_eighth_wavelength():
    min_gain, bound = drift_bound_check(64, 0.125, 10_000, 42)
    assert bound == pytest.approx(32.0, rel=1e-12)
    assert min_gain >= 32.0


def test_drift_bound_check_sixteenth_wavelength():
    min_gain, bound = drift_bound_check(64, 0.0625, 10_000, 42)
    assert bound == pytest.approx(64 * math.cos(math.pi / 8) ** 2, rel=1e-12)
    assert min_gain >= bound * (1 - 1e-12)


@pytest.mark.parametrize("m, n", [(64, 0), (64, 1), (64, 2500), (7, 30_000), (100_000, 3)])
def test_chunked_drift_gains_equal_one_shot_formula(m, n):
    mu, seed = 0.125, 42
    chunks = [c.copy() for c in _drift_uniforms(m, n, seed)]  # each chunk reuses one buffer
    assert all(c.size <= max(m, 65_536) for c in chunks)
    chunked = np.concatenate([_exact_drift_gains(c, mu) for c in chunks]) if chunks else np.empty(0)
    theta = 2.0 * np.pi * RandomStream(seed).uniform(n * m, -mu, mu).reshape(n, m)
    one_shot = (np.cos(theta).sum(axis=1) ** 2 + np.sin(theta).sum(axis=1) ** 2) / m
    assert np.array_equal(chunked, one_shot)
    # the complex-exponential form rounds differently in the last digits only
    z = np.exp(1j * theta).sum(axis=1)
    np.testing.assert_allclose(chunked, np.abs(z) ** 2 / m, rtol=1e-13, atol=0)


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("mu", [0.125, 0.0625])
def test_float32_drift_screen_is_within_margin(mu, seed):
    for u in _drift_uniforms(64, 100_000, seed):
        exact = _exact_drift_gains(u, mu)
        assert np.all(_drift_gain_bounds(u, mu) <= exact * (1.0 + _SCREEN_MARGIN))


def test_drift_screen_margin_covers_tight_bounds():
    # rows of antithetic uniforms (u, 1 - u) have sum(sin) = 0, and at small mu the
    # dropped theta^4 terms are below an ulp, so bound and float64 gain meet up to rounding
    half = RandomStream(42).uniform(20_000 * 32).reshape(20_000, 32)
    u = np.concatenate([half, 1.0 - half], axis=1)
    mu = 1e-5
    bounds = _drift_gain_bounds(u, mu)
    exact = _exact_drift_gains(u, mu)
    assert np.any(bounds > exact)
    assert np.all(bounds <= exact * (1.0 + _SCREEN_MARGIN))


@pytest.mark.parametrize("mu", [0.125, 0.0625])
def test_drift_screen_rechecks_no_row_of_the_bundled_config(mu):
    # mobility_bound: 64 antennas, 100,000 draws, seed 42
    threshold = _extreme_drift_gain(64, mu) * (1.0 + _SCREEN_MARGIN)
    assert list(_random_drift_gains(64, mu, 100_000, 42, threshold)) == []


def _full_float64_min_gain(m, mu, n, seed):
    theta = 2.0 * np.pi * RandomStream(seed).uniform(n * m, -mu, mu).reshape(n, m)
    gains = (np.cos(theta).sum(axis=1) ** 2 + np.sin(theta).sum(axis=1) ** 2) / m
    alternating = np.where(np.arange(m) % 2 == 0, mu, -mu)
    extremes = (np.full(m, mu), np.full(m, -mu), alternating, -alternating)
    return min([*gains.tolist(), *(drift_gain(phi) for phi in extremes)])


@pytest.mark.parametrize(
    "m, mu, n, seed", [(64, 0.125, 20_000, 42), (64, 0.0625, 20_000, 7), (7, 0.1, 9_000, 5)]
)
def test_forced_drift_recheck_equals_full_float64_path(m, mu, n, seed, monkeypatch):
    screened_min, bound = drift_bound_check(m, mu, n, seed)
    monkeypatch.setattr("mimolab.channels._SCREEN_MARGIN", math.inf)
    assert sum(gains.size for gains in _random_drift_gains(m, mu, n, seed, math.inf)) == n
    rechecked_min, rechecked_bound = drift_bound_check(m, mu, n, seed)
    assert rechecked_min == screened_min == _full_float64_min_gain(m, mu, n, seed)
    assert rechecked_bound == bound


def test_drift_screen_passes_rows_that_undercut_the_extremes():
    # with one antenna every gain is 1 up to rounding, so random rows can sit an ulp
    # below the extremes; the screen must hand them to the float64 recheck
    m, mu, n, seed = 1, 0.125, 1000, 3
    min_gain, _ = drift_bound_check(m, mu, n, seed)
    assert min_gain == _full_float64_min_gain(m, mu, n, seed)
    assert min_gain < drift_gain(np.full(1, mu))


def test_drift_bound_check_memory_does_not_grow_with_draws():
    tracemalloc.start()
    try:
        drift_bound_check(64, 0.125, 100_000, 42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_drift_bound_check_rejects_large_mu():
    with pytest.raises(ValueError):
        drift_bound_check(64, 0.2, 10, 42)


def test_drift_bound_violation_raises(monkeypatch):
    # the bound cannot fail for mu <= 1/8, so a patched draw stands in for a broken kernel
    thresholds = []

    def below(m_antennas, mu, n_draws, seed, threshold):
        thresholds.append(threshold)
        yield np.array([m_antennas / 4])

    monkeypatch.setattr("mimolab.channels._random_drift_gains", below)
    with pytest.raises(ArithmeticError, match="fell below the bound"):
        drift_bound_check(64, 0.125, 10, 42)
    assert thresholds == [_extreme_drift_gain(64, 0.125) * (1.0 + _SCREEN_MARGIN)]


def test_drift_bound_check_evaluates_the_extremes_once(monkeypatch):
    calls = []

    def counted(m_antennas, mu):
        calls.append(mu)
        return _extreme_drift_gain(m_antennas, mu)

    monkeypatch.setattr("mimolab.channels._extreme_drift_gain", counted)
    drift_bound_check(64, 0.125, 1000, 42)
    assert calls == [0.125]

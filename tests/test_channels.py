import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimolab import channels, rng
from mimolab.channels import (
    _SEED_BLOCK,
    _UNIFORM_BLOCK,
    _SeedWords,
    child_uniforms,
    derive_seed,
    drift_gain,
    favorable_propagation_metric,
    hardening_metric,
    polar_power,
)
from mimolab.cli import _run_mobility
from mimolab.propagation import _least_drift_gain, drift_bound_check
from mimolab.rng import seed_words, uniforms

from conftest import numpy_stream, pair_correlation, polar_complex_normal, rayleigh_z

_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, 2**70 + 5]


def _complex_normal(seed, n):
    """n CN(0, 1) samples of the seed's stream: n radius uniforms, then n angle uniforms."""
    return polar_complex_normal(numpy_stream(seed).random(2 * n).reshape(2, n))


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
    assert [2.0 * np.pi * u for u in uniforms(42, 3)] == [
        4.862909272689599,
        2.757554564287996,
        5.3947298351621535,
    ]
    z = _complex_normal(7, 2)
    assert z[0] == complex(0.15916121965654081, -0.9776254749094845)
    assert z[1] == complex(0.23401751214277133, 1.4900805312669558)


@pytest.mark.parametrize("n", [1, 6, 1000])
@pytest.mark.parametrize("seed", _EDGE_SEEDS)
def test_plain_stream_matches_numpy_generator(seed, n):
    drawn = uniforms(seed, n)
    assert all(type(u) is float for u in drawn)
    assert drawn == numpy_stream(seed).random(n).tolist()


@pytest.mark.parametrize("n", [1, 2, 100, 10_000])
@pytest.mark.parametrize("seed", [0, 7, 42, 2**64 - 1])
def test_complex_normal_power_is_norm_of_complex_normal(seed, n):
    h = _complex_normal(seed, n)
    power = polar_power(numpy_stream(seed).random(n)[None])[0]  # the first n uniforms only
    assert power == pytest.approx(np.vdot(h, h).real, rel=1e-13, abs=0)


def test_block_seeding_matches_numpy_seed_sequence_and_pcg64():
    seeds = _EDGE_SEEDS + [derive_seed(42, i) for i in range(10_000)]
    # the one hash, on a uint64 block as child_uniforms runs it and on each Python int
    block = seed_words(np.array([seed & (2**64 - 1) for seed in seeds], dtype=np.uint64))
    assert all(words.dtype == np.uint64 for words in block)
    states = np.stack(block, axis=1)  # C-contiguous: PCG64 reads each row's buffer as is
    for seed, row in zip(seeds, states):  # row views, as child_uniforms passes them
        expected = np.random.SeedSequence(seed & (2**64 - 1)).generate_state(4, np.uint64)
        assert seed_words(seed) == row.tolist() == expected.tolist()
        assert np.random.PCG64(_SeedWords(row)).state == numpy_stream(seed).bit_generator.state


def test_child_streams_draw_like_fresh_streams():
    # n around one block, so some blocks hold a single multiple of rows, and n = 6, whose
    # 1,365 rows a block are cut to 1,364 for a multiple of 2; counts of one multiple, a
    # block's rows +/- one multiple, and past one seed-hash block
    for n in (1, 6, _UNIFORM_BLOCK - 1, _UNIFORM_BLOCK, _UNIFORM_BLOCK + 1):
        cases = []
        for multiple in (1, 2):
            rows = max(multiple, _UNIFORM_BLOCK // n // multiple * multiple)
            counts = {multiple, max(multiple, rows - multiple), rows + multiple, _SEED_BLOCK + 2}
            cases += [(multiple, rows, count) for count in sorted(counts)]
        fresh = [numpy_stream(derive_seed(7, i)).random(n)
                 for i in range(max(count for _, _, count in cases))]
        for multiple, rows, count in cases:
            blocks = [block.copy() for block in child_uniforms(7, count, n, multiple)]
            assert all(len(block) <= rows and len(block) % multiple == 0 for block in blocks)
            drawn = np.concatenate(blocks)
            assert drawn.shape == (count, n)
            assert all(np.array_equal(row, fresh[i]) for i, row in enumerate(drawn))


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
    value = hardening_metric(1, 10_000, 42)
    assert value == pytest.approx(1.0, abs=0.05)
    assert abs(rayleigh_z("hardening", value, 1, 10_000)) <= 5


def test_hardening_hundred_antennas():
    value = hardening_metric(100, 10_000, 42)
    assert value == pytest.approx(0.100, abs=0.01)
    assert abs(rayleigh_z("hardening", value, 100, 10_000)) <= 5


def test_hardening_ten_thousand_antennas():
    value = hardening_metric(10_000, 10_000, 42)
    assert value == pytest.approx(0.010, abs=0.002)
    assert abs(rayleigh_z("hardening", value, 10_000, 10_000)) <= 5


def test_hardening_decreases_with_antennas():
    values = [hardening_metric(m, 10_000, 42) for m in (10, 100, 1000, 10_000)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_hardening_is_reproducible():
    assert hardening_metric(50, 500, 42) == hardening_metric(50, 500, 42)
    assert hardening_metric(50, 500, 1) != hardening_metric(50, 500, 2)


def _power(u):
    """polar_power of one draw: a log per group of entries g, g + k, ..., g + 15k, and the tail."""
    x = 1.0 - u
    k = len(x) // 16
    for half in (8, 4, 2, 1):
        x[:half * k] *= x[half * k:2 * half * k]
    return -(np.log(x[:k]).sum() + np.log(x[16 * k:].prod()))  # an empty tail adds log(1) = 0


def _correlation(u_i, u_j):
    """One pair's correlation from its children's M radius and M angle uniforms."""
    m = len(u_i) // 2
    r2_i, r2_j = -np.log1p(-u_i[:m]), -np.log1p(-u_j[:m])
    rr = np.sqrt(r2_i) * np.sqrt(r2_j)
    angle = (u_i[m:] - u_j[m:]) * (2 * np.pi)
    rho = np.hypot((rr * np.cos(angle)).sum(), (rr * np.sin(angle)).sum())
    return min(rho / np.sqrt(r2_i.sum() * r2_j.sum()), 1.0)


def _complex_power(u):
    """||z||^2 summed entry by entry, the formula _power replaces."""
    return -np.log1p(-u).sum()


def _complex_correlation(u_i, u_j):
    """pair_correlation of the pair's complex normals, the formula _correlation replaces."""
    m = len(u_i) // 2
    return pair_correlation(polar_complex_normal(u_i.reshape(2, m)),
                            polar_complex_normal(u_j.reshape(2, m)))


def _per_draw_hardening(m, n, seed, power=_power):
    powers = np.array([power(numpy_stream(derive_seed(seed, i)).random(m)) for i in range(n)])
    return float(powers.std(ddof=1) / powers.mean())


def _per_draw_favorable(m, n, seed, correlation=_correlation):
    def child(i):
        return numpy_stream(derive_seed(seed, i)).random(2 * m)

    return float(np.mean([correlation(child(2 * i), child(2 * i + 1)) for i in range(n)]))


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
        (3, 700, 9),  # 1,365 children a block, cut to 1,364 to hold whole pairs
        (_UNIFORM_BLOCK // 2 + 1, 3, 5),  # one pair a block
    ],
)
def test_favorable_equals_per_draw_streams(m, n, seed):
    assert favorable_propagation_metric(m, n, seed) == _per_draw_favorable(m, n, seed)


@pytest.mark.parametrize("m", [1, 2, 15, 16, 17, 100, _UNIFORM_BLOCK // 2 + 1])
def test_block_reductions_match_complex_normal_formulas(m):
    for seed in (0, 42):
        assert hardening_metric(m, 64, seed) == pytest.approx(
            _per_draw_hardening(m, 64, seed, _complex_power), rel=1e-14, abs=0)
        assert favorable_propagation_metric(m, 16, seed) == pytest.approx(
            _per_draw_favorable(m, 16, seed, _complex_correlation), rel=1e-14, abs=0)


@pytest.mark.parametrize("m", [1, 15, 16, 17, 100])
def test_power_of_the_largest_uniforms_is_finite(m):
    # 1 - u = 2**-53 for every entry: a group of 16 multiplies to 2**-848, still a normal double
    for rows in (1, 3):  # a block of one row is reduced in place
        power = polar_power(np.full((rows, m), 1.0 - 2.0**-53))
        assert np.all(np.isfinite(power))
        assert power == pytest.approx(np.full(rows, 53 * m * math.log(2.0)), rel=1e-15)


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


def test_pair_correlation_stays_within_one():
    rng = np.random.default_rng(42)
    hs = rng.standard_normal((2000, 8)) + 1j * rng.standard_normal((2000, 8))
    # unclipped, |h^H h| / ||h||^2 rounds above 1 for about a quarter of these
    assert max(pair_correlation(h, h) for h in hs) == 1.0
    # values inside [0, 1] keep their bits
    for h_i, h_j in zip(hs[::2], hs[1::2]):
        expected = float(abs(np.vdot(h_i, h_j)) / (np.linalg.norm(h_i) * np.linalg.norm(h_j)))
        assert pair_correlation(h_i, h_j) == expected


def test_favorable_metric_scales_as_inverse_sqrt_m():
    small = favorable_propagation_metric(100, 1000, 42)
    large = favorable_propagation_metric(10_000, 1000, 42)
    assert small / large == pytest.approx(10.0, rel=0.20)
    assert abs(rayleigh_z("favorable", small, 100, 1000)) <= 5
    assert abs(rayleigh_z("favorable", large, 10_000, 1000)) <= 5


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
    m=st.integers(1, 64),
    mu=st.floats(0.0, 0.125),
    seed=st.integers(0, 2**32 - 1),
)
def test_drift_gain_bounded_by_m_and_by_cos_bound(m, mu, seed):
    phi = (-mu + (mu - -mu) * numpy_stream(seed).random(100 * m)).reshape(100, m)
    gains = drift_gain(phi)
    assert gains.max() <= m * (1 + 1e-12)
    # interior patterns never undercut the least gain, the alternating vertex's
    assert gains.min() >= _least_drift_gain(m, mu) * (1 - 1e-13)
    assert gains.min() >= m * math.cos(2 * math.pi * mu) ** 2 * (1 - 1e-12)


_DRIFT_AMPLITUDES = [0.0, 0.01, 0.0625, 0.1, 0.125]


@pytest.mark.parametrize("m", range(1, 13))
def test_drift_bound_exhaustive_sign_patterns(m):
    # the least gain over the box lies at a vertex, so the vertices' minimum is the closed form
    signs = 2 * ((np.arange(2**m)[:, None] >> np.arange(m)) & 1) - 1
    for mu in _DRIFT_AMPLITUDES:
        least = min(drift_gain(mu * row) for row in signs)
        assert least == pytest.approx(_least_drift_gain(m, mu), rel=1e-15, abs=0)
        assert least >= m * math.cos(2 * math.pi * mu) ** 2 * (1 - 1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 7, 64, 65, 1000, 1001])
@pytest.mark.parametrize("mu", _DRIFT_AMPLITUDES)
def test_drift_extremes_equal_the_least_gain(m, mu):
    alternating = np.where(np.arange(m) % 2 == 0, mu, -mu)
    least = _least_drift_gain(m, mu)
    for phi in (alternating, -alternating):
        assert drift_gain(phi) == pytest.approx(least, rel=1e-15, abs=0)
    for phi in (np.full(m, mu), np.full(m, -mu)):
        assert drift_gain(phi) == pytest.approx(m, rel=1e-15, abs=0)


def test_drift_bound_check_zero_mu():
    assert drift_bound_check(16, [0.0]) == [(16.0, 16.0)]
    assert drift_bound_check(7, [0.0, 0.0]) == [(7.0, 7.0), (7.0, 7.0)]


def test_drift_bound_check_eighth_wavelength():
    [(min_gain, bound)] = drift_bound_check(64, [0.125])
    assert bound == pytest.approx(32.0, rel=1e-12)
    assert min_gain == bound  # even M: the least gain is the bound itself


def test_drift_bound_check_sixteenth_wavelength():
    [(min_gain, bound)] = drift_bound_check(64, [0.0625])
    assert bound == pytest.approx(64 * math.cos(math.pi / 8) ** 2, rel=1e-12)
    assert min_gain == bound


@pytest.mark.parametrize("m", [1, 3, 7, 10_000_001])
def test_drift_bound_check_odd_m_sits_above_the_bound(m):
    mus = [0.125, 0.0625, 0.0]
    for mu, (min_gain, bound) in zip(mus, drift_bound_check(m, mus)):
        a = 2 * math.pi * mu  # the alternating vertex's gain, as |M*cos(a) + j*sin(a)|^2 / M
        vertex = ((m * math.cos(a)) ** 2 + math.sin(a) ** 2) / m
        assert min_gain == pytest.approx(vertex, rel=1e-15, abs=0)
        assert min_gain >= bound


def test_drift_gain_of_a_stack_is_one_gain_per_row():
    phi = (-0.1 + (0.1 - -0.1) * numpy_stream(3).random(5 * 16)).reshape(5, 16)
    gains = drift_gain(phi)
    assert gains.shape == (5,)
    np.testing.assert_allclose(gains, [drift_gain(row) for row in phi], rtol=1e-14, atol=0)
    assert type(drift_gain(phi[0])) is float


def _drift_rows(m, n, seed, mu, chunk_rows=None):
    """The old stream walk's n random patterns on [-mu, mu]^m, in chunks of rows.

    Every chunk continues one stream, so the rows are those of a single n*m draw.
    """
    stream, chunk_rows = numpy_stream(seed), chunk_rows or n or 1
    for start in range(0, n, chunk_rows):
        k = min(chunk_rows, n - start)
        yield -mu + (mu - -mu) * stream.random(k * m).reshape(k, m)


def _full_float64_min_gain(m, mu, n, seed):
    """Least gain of every random row, in one 2-D drift_gain call, and of the four extremes."""
    gains = np.concatenate([drift_gain(phi) for phi in _drift_rows(m, n, seed, mu)] or [[]])
    alternating = np.where(np.arange(m) % 2 == 0, mu, -mu)
    extremes = (np.full(m, mu), np.full(m, -mu), alternating, -alternating)
    return min([*gains.tolist(), *(drift_gain(phi) for phi in extremes)])


@pytest.mark.parametrize("m, n", [(64, 0), (64, 1), (64, 2500), (7, 30_000), (100_000, 3)])
def test_chunked_drift_gains_equal_one_shot_formula(m, n):
    mu, seed = 0.125, 42
    chunk_rows = max(1, 65_536 // m)
    chunks = list(_drift_rows(m, n, seed, mu, chunk_rows))
    assert all(c.size <= max(m, 65_536) for c in chunks)
    chunked = np.concatenate([drift_gain(c) for c in chunks] or [[]])
    phi = (-mu + (mu - -mu) * numpy_stream(seed).random(n * m)).reshape(n, m)
    assert np.array_equal(chunked, drift_gain(phi))
    # an independent cos/sin form rounds differently in the last digits only
    theta = 2.0 * np.pi * phi
    cos_sin = (np.cos(theta).sum(axis=1) ** 2 + np.sin(theta).sum(axis=1) ** 2) / m
    np.testing.assert_allclose(chunked, cos_sin, rtol=1e-13, atol=0)
    assert np.all(chunked >= _least_drift_gain(m, mu) * (1 - 1e-13))


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("mu", [0.125, 0.0625])
def test_drift_screen_is_within_margin(mu, seed):
    # the guard screens the closed form against the bound with a 1e-12 relative slack;
    # at even M the two meet, and no random pattern sits below the closed form
    [(least, bound)] = drift_bound_check(64, [mu])
    assert bound * (1 - 1e-12) <= least <= bound * (1 + 1e-12)
    for phi in _drift_rows(64, 10_000, seed, mu):
        assert drift_gain(phi).min() >= least * (1 - 1e-13)


@pytest.mark.parametrize("mu", [0.125, 0.0625])
def test_drift_screen_rechecks_no_row_of_the_bundled_config(mu):
    # mobility_bound: 64 antennas, 100,000 draws, seed 42; the old walk's rows all
    # sit above the reported least gain, so sampling them changes no value
    [(least, _)] = drift_bound_check(64, [mu])
    for phi in _drift_rows(64, 100_000, 42, mu, chunk_rows=1024):
        assert drift_gain(phi).min() > least


@pytest.mark.parametrize(
    "m, mu, n, seed", [(64, 0.125, 20_000, 42), (64, 0.0625, 20_000, 7), (7, 0.1, 9_000, 5)]
)
def test_forced_drift_recheck_equals_full_float64_path(m, mu, n, seed):
    # rechecking every random row in float64, as the walk did when forced, finds the closed form
    full = _full_float64_min_gain(m, mu, n, seed)
    assert _least_drift_gain(m, mu) == pytest.approx(full, rel=1e-15, abs=0)
    bound = m * math.cos(2 * math.pi * mu) ** 2
    assert drift_bound_check(m, [mu]) == [(_least_drift_gain(m, mu), bound)]


@pytest.mark.parametrize(
    "m, mus, n, seed",
    [
        (64, [0.125, 0.0, 0.0625, 0.125], 20_000, 42),
        (7, [0.1, 0.03, 0.0, 0.1], 9_000, 7),
        (1, [0.125, 0.0, 0.05, 0.125], 1000, 5),
        (3, [0.0, 0.07, 0.0, 0.07], 4000, 3),
    ],
)
def test_one_pass_drift_check_equals_full_float64_path_per_mu(m, mus, n, seed):
    results = drift_bound_check(m, mus)
    assert len(results) == len(mus)
    for mu, (min_gain, bound) in zip(mus, results):
        assert min_gain == pytest.approx(_full_float64_min_gain(m, mu, n, seed), rel=1e-15, abs=0)
        assert bound == m * math.cos(2.0 * math.pi * mu) ** 2
        assert [(min_gain, bound)] == drift_bound_check(m, [mu])


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_drift_bound_check_memory_does_not_grow_with_draws():
    # n_draws is echoed, never drawn: a mobility run allocates as little at 10**8 as at 1
    params = {"m_antennas": 64, "mu_list": [0.125, 0.0625]}
    peaks = [_traced_peak(lambda: _run_mobility({**params, "n_draws": n}, 42)) for n in (1, 10**8)]
    assert max(peaks) < 64 * 2**10


def test_drift_bound_check_memory_does_not_grow_with_amplitudes():
    mus = [k / 56 for k in range(7, -1, -1)]
    assert _traced_peak(lambda: drift_bound_check(10_000_001, mus)) < 16 * 2**10


def test_zero_mu_reads_no_drift_rows(monkeypatch):
    def undrawable(*args, **kwargs):
        raise AssertionError("drew uniforms for a closed-form bound")

    for module, name in ((rng, "uniforms"), (channels, "child_uniforms"), (np.random, "Generator")):
        monkeypatch.setattr(module, name, undrawable)
    assert drift_bound_check(64, [0.0]) == [(64.0, 64.0)]
    params = {"m_antennas": 7, "mu_list": [0.0], "n_draws": 100_000}
    [report] = _run_mobility(params, 3)[0]["reports"]
    assert (report["min_observed_gain"], report["bound_gain"]) == (7.0, 7.0)


def test_drift_bound_check_rejects_large_mu():
    with pytest.raises(ValueError):
        drift_bound_check(64, [0.2])


def test_drift_bound_check_rejects_no_antennas():
    with pytest.raises(ValueError, match="m_antennas"):
        drift_bound_check(0, [0.125])


def test_drift_bound_check_validates_every_mu_before_drawing(monkeypatch):
    def unevaluable(m_antennas, mu):
        raise AssertionError("evaluated a gain before every mu was checked")

    monkeypatch.setattr("mimolab.propagation._least_drift_gain", unevaluable)
    with pytest.raises(ValueError, match="got 0.2"):
        drift_bound_check(64, [0.125, 0.0625, 0.2])


def test_drift_bound_violation_raises(monkeypatch):
    # the bound cannot fail for mu <= 1/8, so a patched least gain stands in for a broken formula
    def below(m_antennas, mu):
        return m_antennas / 4 if mu == 0.0625 else _least_drift_gain(m_antennas, mu)

    monkeypatch.setattr("mimolab.propagation._least_drift_gain", below)
    bound = 64 * math.cos(2.0 * math.pi * 0.0625) ** 2
    with pytest.raises(ArithmeticError, match=f"drift gain 16.0 fell below the bound {bound}"):
        drift_bound_check(64, [0.125, 0.0625])


def test_drift_bound_check_evaluates_the_extremes_once(monkeypatch):
    calls = []

    def counted(m_antennas, mu):
        calls.append(mu)
        return _least_drift_gain(m_antennas, mu)

    monkeypatch.setattr("mimolab.propagation._least_drift_gain", counted)
    drift_bound_check(64, [0.125, 0.0625, 0.125])
    assert calls == [0.125, 0.0625, 0.125]

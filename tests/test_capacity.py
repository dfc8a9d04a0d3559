import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimolab.capacity import (
    CapacityScenario,
    CoherenceBlock,
    RatePoint,
    antenna_sweep,
    dl_se_mrt,
    dl_sinr_mrt,
    estimation_quality,
    k_range,
    optimize_users,
    sum_rate,
    user_sweep,
)
from mimolab.scenarios import centralpark_3ghz, centralpark_60ghz


# ---------------------------------------------------------------------------
# estimation quality
# ---------------------------------------------------------------------------

def test_quality_vanishes_without_pilot_energy():
    assert estimation_quality(1, 1e-9) == pytest.approx(0.0, abs=1e-8)


def test_quality_reference_value():
    gamma = estimation_quality(14_000, 100.0)
    assert gamma == pytest.approx(1_400_000 / 1_400_001, rel=1e-15)


def test_quality_balance_point():
    assert estimation_quality(4, 0.25) == pytest.approx(0.5, rel=1e-12)


@settings(max_examples=100)
@given(tau=st.integers(1, 10_000), rho=st.floats(1e-6, 1e4))
def test_quality_is_bounded_and_monotone(tau, rho):
    gamma = estimation_quality(tau, rho)
    assert 0.0 < gamma < 1.0
    assert estimation_quality(tau + 1, rho) > gamma
    assert estimation_quality(tau, rho * 2) > gamma


# ---------------------------------------------------------------------------
# coherence block
# ---------------------------------------------------------------------------

def test_block_samples_rounding():
    assert CoherenceBlock(0.1, 400e3).samples == 40_000
    assert CoherenceBlock(0.005, 400e3).samples == 2_000
    assert CoherenceBlock(1.0, 1.4).samples == 1


def test_block_validation():
    with pytest.raises(ValueError):
        CoherenceBlock(0.0, 400e3)
    with pytest.raises(ValueError):
        CoherenceBlock(1e-9, 1e3)  # rounds to zero samples


# ---------------------------------------------------------------------------
# closed-form rates: the 3 GHz anchor validates the whole formula chain
# ---------------------------------------------------------------------------

def test_anchor_spectral_efficiency():
    sc = centralpark_3ghz()
    assert sc.block.samples == 40_000
    se = dl_se_mrt(sc, 14_000)
    sinr = dl_sinr_mrt(sc, 14_000)
    assert 1.0 - 14_000 / 40_000 == pytest.approx(0.65, rel=1e-12)
    assert sinr == pytest.approx(7.142, abs=2e-3)
    assert se == pytest.approx(1.966, abs=2e-3)
    rate = se * sc.bandwidth_hz
    assert rate == pytest.approx(98.3e6, rel=1e-3)
    assert abs(rate - 99e6) / 99e6 < 0.01  # within 1% of the quoted per-user rate


def test_anchor_sum_rate_and_pilot_fraction():
    sc = centralpark_3ghz()
    point = sum_rate(sc, 14_000)
    assert point.sum_rate_bps == pytest.approx(1.376e12, rel=1e-3)
    assert abs(point.sum_rate_bps - 1.38e12) / 1.38e12 < 0.005
    assert point.pilot_fraction == pytest.approx(0.35, rel=1e-12)
    assert point.sum_rate_bps == pytest.approx(point.k_users * point.rate_per_ue_bps, rel=1e-12)


def test_se_zero_when_all_samples_are_pilots():
    sc = centralpark_3ghz()
    assert dl_se_mrt(sc, 40_000) == 0.0


def test_sinr_linear_in_antennas():
    sc = centralpark_3ghz()
    doubled = replace(sc, m_antennas=2 * sc.m_antennas)
    assert dl_sinr_mrt(doubled, 5000) == pytest.approx(2 * dl_sinr_mrt(sc, 5000), rel=1e-12)


def test_k_bounds_enforced():
    sc = centralpark_3ghz()
    with pytest.raises(ValueError):
        dl_se_mrt(sc, 40_001)
    with pytest.raises(ValueError):
        dl_se_mrt(sc, 0)


def test_single_user_sum_equals_per_user_rate():
    sc = centralpark_3ghz()
    point = sum_rate(sc, 1)
    assert point.sum_rate_bps == point.rate_per_ue_bps


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

def test_optimize_singleton_grid():
    sc = centralpark_3ghz()
    point = optimize_users(sc, [1])
    assert point.k_users == 1


def test_k_range_step_rules():
    assert k_range(40_000) == range(1, 40_001, 40)
    assert k_range(40_000, fine=True) == range(1, 40_001)
    assert k_range(999) == range(1, 1000)  # the automatic step never drops below 1
    assert k_range(40_000, k_min=10, k_max=100, k_step=7, fine=True) == range(10, 101, 7)


@pytest.mark.parametrize("k_min, k_max", [(0, 0), (50_000, 0), (10, 5), (1, 40_001)])
def test_k_range_rejects_bad_bounds(k_min, k_max):
    with pytest.raises(ValueError, match="k_min"):
        k_range(40_000, k_min=k_min, k_max=k_max)


def test_user_sweep_returns_every_point_and_the_optimum():
    sc = centralpark_60ghz()
    grid = k_range(sc.block.samples, k_step=7)
    points, best = user_sweep(sc, grid)
    assert points == [sum_rate(sc, k) for k in grid]
    assert best == optimize_users(sc, grid)
    assert best.sum_rate_bps == max(p.sum_rate_bps for p in points)


def test_user_sweep_ties_go_to_smaller_k(monkeypatch):
    def flat(scenario, k_users):
        return RatePoint(k_users, 0.5, 1.0, 1.0, 1.0)

    monkeypatch.setattr("mimolab.capacity.sum_rate", flat)
    assert user_sweep(centralpark_3ghz(), [3, 5, 8])[1].k_users == 3


def test_optimize_rejects_empty_grid():
    with pytest.raises(ValueError):
        optimize_users(centralpark_3ghz(), [])


def test_optimum_user_count_near_fourteen_thousand():
    sc = centralpark_3ghz()
    best = optimize_users(sc, k_range(sc.block.samples, fine=True))
    assert abs(best.k_users - 14_000) / 14_000 <= 0.10
    assert best.sum_rate_bps == pytest.approx(1.38e12, rel=0.05)


def test_interior_maximum():
    sc = centralpark_3ghz()
    best = optimize_users(sc, k_range(sc.block.samples))
    assert best.sum_rate_bps > sum_rate(sc, 1).sum_rate_bps
    assert best.sum_rate_bps > sum_rate(sc, sc.block.samples).sum_rate_bps
    assert 1 < best.k_users < sc.block.samples


def test_60ghz_pilot_fraction_band():
    sc = centralpark_60ghz()
    assert sc.block.samples == 2_000
    assert sc.ul_pilot_snr_linear == pytest.approx(5.0, rel=1e-12)
    best = optimize_users(sc, k_range(sc.block.samples, fine=True))
    assert 0.30 <= best.pilot_fraction <= 0.55
    assert 1 < best.k_users < sc.block.samples


def test_antenna_sweep_monotone_and_ordered():
    sc = centralpark_3ghz()
    grid = k_range(sc.block.samples)
    rows = antenna_sweep(sc, [10_000, 100, 100_000, 1000], grid)
    ms = [m for m, _ in rows]
    assert ms == [100, 1000, 10_000, 100_000]
    rates = [p.sum_rate_bps for _, p in rows]
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_antenna_sweep_singleton_matches_sum_rate():
    sc = centralpark_3ghz()
    [(m, point)] = antenna_sweep(sc, [sc.m_antennas], [500])
    assert m == sc.m_antennas
    assert point == sum_rate(sc, 500)


def test_antenna_sweep_rejects_empty_grids():
    sc = centralpark_3ghz()
    with pytest.raises(ValueError):
        antenna_sweep(sc, [], [1])
    with pytest.raises(ValueError):
        antenna_sweep(sc, [100], [])


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=100)
@given(k=st.integers(1, 40_000))
def test_se_nonnegative_and_pilot_accounting(k):
    sc = centralpark_3ghz()
    point = sum_rate(sc, k)
    assert point.se_per_ue >= 0.0
    assert point.pilot_fraction * sc.block.samples == pytest.approx(k, rel=1e-12)
    assert (point.se_per_ue == 0.0) == (k == sc.block.samples)


def test_scenario_validation():
    with pytest.raises(ValueError):
        CapacityScenario(3e9, 50e6, 0, 100.0, 100.0, CoherenceBlock(0.1, 400e3))
    with pytest.raises(ValueError):
        CapacityScenario(3e9, 50e6, 10, -1.0, 100.0, CoherenceBlock(0.1, 400e3))

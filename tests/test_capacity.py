import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimolab.capacity import (
    RATE_COLUMNS,
    CapacityScenario,
    CoherenceBlock,
    antenna_sweep,
    best_row,
    estimation_quality,
    k_range,
    rate_table,
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
    # a grid of pilot lengths gives the scalar value at each
    grid = estimation_quality(np.array([4, 14_000]), 100.0)
    assert grid.tolist() == [estimation_quality(4, 100.0), gamma]
    with pytest.raises(ValueError, match="tau_p"):
        estimation_quality(np.array([4, 0]), 100.0)


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
    with pytest.raises(ValueError, match="2\\*\\*53"):
        CoherenceBlock(1e14, 400e3)  # 4e19 samples, past exact int64 and double counting


# ---------------------------------------------------------------------------
# closed-form rates: the 3 GHz anchor validates the whole formula chain
# ---------------------------------------------------------------------------

def row_at(scenario, k):
    return best_row(rate_table(scenario, [k]))


def sinr_of(row):
    """The SINR a row's spectral efficiency implies: 2**(se/(1 - pilot)) - 1."""
    return 2.0 ** (row["se_per_ue"] / (1.0 - row["pilot_fraction"])) - 1.0


def test_anchor_spectral_efficiency():
    sc = centralpark_3ghz()
    assert sc.block.samples == 40_000
    row = row_at(sc, 14_000)
    assert row["pilot_fraction"] == pytest.approx(0.35, rel=1e-12)
    assert sinr_of(row) == pytest.approx(7.142, abs=2e-3)
    assert row["se_per_ue"] == pytest.approx(1.966, abs=2e-3)
    rate = row["se_per_ue"] * sc.bandwidth_hz
    assert rate == row["rate_per_ue_bps"]
    assert rate == pytest.approx(98.3e6, rel=1e-3)
    assert abs(rate - 99e6) / 99e6 < 0.01  # within 1% of the quoted per-user rate


def test_anchor_sum_rate_and_pilot_fraction():
    sc = centralpark_3ghz()
    row = row_at(sc, 14_000)
    assert row["sum_rate_bps"] == pytest.approx(1.376e12, rel=1e-3)
    assert abs(row["sum_rate_bps"] - 1.38e12) / 1.38e12 < 0.005
    assert row["pilot_fraction"] == pytest.approx(0.35, rel=1e-12)
    assert row["sum_rate_bps"] == pytest.approx(row["k_users"] * row["rate_per_ue_bps"], rel=1e-12)


def test_se_zero_when_all_samples_are_pilots():
    sc = centralpark_3ghz()
    assert row_at(sc, 40_000)["se_per_ue"] == 0.0


def test_sinr_linear_in_antennas():
    sc = centralpark_3ghz()
    doubled = replace(sc, m_antennas=2 * sc.m_antennas)
    assert sinr_of(row_at(doubled, 5000)) == pytest.approx(2 * sinr_of(row_at(sc, 5000)), rel=1e-12)


def test_k_bounds_enforced():
    sc = centralpark_3ghz()
    with pytest.raises(ValueError):
        rate_table(sc, [40_001])
    with pytest.raises(ValueError):
        rate_table(sc, [0])
    with pytest.raises(ValueError):
        rate_table(sc, [1, 40_001])


def test_single_user_sum_equals_per_user_rate():
    row = row_at(centralpark_3ghz(), 1)
    assert row["sum_rate_bps"] == row["rate_per_ue_bps"]


def scalar_rates(scenario, k):
    """One row of the closed form in Python float arithmetic, in RATE_COLUMNS order."""
    tau_c = scenario.block.samples
    x = k * scenario.ul_pilot_snr_linear
    gamma = x / (1.0 + x)
    rho_dl = scenario.dl_snr_linear
    sinr = scenario.m_antennas * gamma * (rho_dl / k) / (1.0 + rho_dl)
    se = (1.0 - k / tau_c) * math.log2(1.0 + sinr)
    rate = se * scenario.bandwidth_hz
    return k, k / tau_c, se, rate, k * rate


@pytest.mark.parametrize("scenario", [centralpark_3ghz, centralpark_60ghz], ids=["3ghz", "60ghz"])
def test_rate_table_matches_scalar_closed_form(scenario):
    sc = scenario()
    grid = k_range(sc.block.samples, fine=True)
    table = rate_table(sc, grid)
    assert tuple(table) == RATE_COLUMNS
    reference = np.array([scalar_rates(sc, k) for k in grid]).T
    assert table["k_users"].tolist() == list(grid)
    assert table["pilot_fraction"].tolist() == reference[1].tolist()
    # np.log2 and math.log2 may round the last bit apart
    for name, expected in zip(RATE_COLUMNS[2:], reference[2:]):
        np.testing.assert_allclose(table[name], expected, rtol=1e-15, atol=0, err_msg=name)


def test_rate_table_rows_do_not_depend_on_the_grid():
    sc = centralpark_60ghz()
    table = rate_table(sc, k_range(sc.block.samples, k_step=7))
    for i, k in enumerate(table["k_users"].tolist()):
        assert {name: column[i].item() for name, column in table.items()} == row_at(sc, k)


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

def test_optimize_singleton_grid():
    sc = centralpark_3ghz()
    assert best_row(rate_table(sc, [1]))["k_users"] == 1


def test_k_range_step_rules():
    assert k_range(40_000) == range(1, 40_001, 40)
    assert k_range(40_000, fine=True) == range(1, 40_001)
    assert k_range(999) == range(1, 1000)  # the automatic step never drops below 1
    assert k_range(40_000, k_min=10, k_max=100, k_step=7, fine=True) == range(10, 101, 7)


@pytest.mark.parametrize("k_min, k_max", [(0, 0), (50_000, 0), (10, 5), (1, 40_001)])
def test_k_range_rejects_bad_bounds(k_min, k_max):
    with pytest.raises(ValueError, match="k_min"):
        k_range(40_000, k_min=k_min, k_max=k_max)


def test_best_row_is_the_sum_rate_maximum():
    sc = centralpark_60ghz()
    table = rate_table(sc, k_range(sc.block.samples, k_step=7))
    best = best_row(table)
    assert best["sum_rate_bps"] == table["sum_rate_bps"].max()
    assert best == row_at(sc, best["k_users"])
    # Python numbers, so ints stay ints in the manifest
    assert [type(v) for v in best.values()] == [int, float, float, float, float]


def test_best_row_ties_go_to_smaller_k():
    flat = dict(zip(RATE_COLUMNS, (np.array([3, 5, 8]), *np.ones((4, 3)))))
    assert best_row(flat)["k_users"] == 3
    flat["sum_rate_bps"] = np.array([1.0, 2.0, 2.0])
    assert best_row(flat)["k_users"] == 5


def test_optimize_rejects_empty_grid():
    with pytest.raises(ValueError):
        rate_table(centralpark_3ghz(), [])


def test_optimum_user_count_near_fourteen_thousand():
    sc = centralpark_3ghz()
    best = best_row(rate_table(sc, k_range(sc.block.samples, fine=True)))
    assert abs(best["k_users"] - 14_000) / 14_000 <= 0.10
    assert best["sum_rate_bps"] == pytest.approx(1.38e12, rel=0.05)


def test_interior_maximum():
    sc = centralpark_3ghz()
    best = best_row(rate_table(sc, k_range(sc.block.samples)))
    assert best["sum_rate_bps"] > row_at(sc, 1)["sum_rate_bps"]
    assert best["sum_rate_bps"] > row_at(sc, sc.block.samples)["sum_rate_bps"]
    assert 1 < best["k_users"] < sc.block.samples


def test_60ghz_pilot_fraction_band():
    sc = centralpark_60ghz()
    assert sc.block.samples == 2_000
    assert sc.ul_pilot_snr_linear == pytest.approx(5.0, rel=1e-12)
    best = best_row(rate_table(sc, k_range(sc.block.samples, fine=True)))
    assert 0.30 <= best["pilot_fraction"] <= 0.55
    assert 1 < best["k_users"] < sc.block.samples


def test_antenna_sweep_monotone_and_ordered():
    sc = centralpark_3ghz()
    grid = k_range(sc.block.samples)
    rows = antenna_sweep(sc, [10_000, 100, 100_000, 1000], grid)
    assert [row["m_antennas"] for row in rows] == [100, 1000, 10_000, 100_000]
    assert all(tuple(row) == ("m_antennas", *RATE_COLUMNS) for row in rows)
    rates = [row["sum_rate_bps"] for row in rows]
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_antenna_sweep_singleton_matches_sum_rate():
    sc = centralpark_3ghz()
    [row] = antenna_sweep(sc, [sc.m_antennas], [500])
    assert row == {"m_antennas": sc.m_antennas, **row_at(sc, 500)}


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
    row = row_at(sc, k)
    assert row["se_per_ue"] >= 0.0
    assert row["pilot_fraction"] * sc.block.samples == pytest.approx(k, rel=1e-12)
    assert (row["se_per_ue"] == 0.0) == (k == sc.block.samples)


def test_scenario_validation():
    with pytest.raises(ValueError):
        CapacityScenario(3e9, 50e6, 0, 100.0, 100.0, CoherenceBlock(0.1, 400e3))
    with pytest.raises(ValueError):
        CapacityScenario(3e9, 50e6, 10, -1.0, 100.0, CoherenceBlock(0.1, 400e3))

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimolab.capacity import (
    PLAIN_MAX_EVALUATIONS,
    RATE_COLUMNS,
    _quality,
    antenna_sweep,
    best_row,
    coherence_samples,
    k_range,
    rate_columns,
    rate_lists,
    rate_table,
)

from conftest import bundled


# ---------------------------------------------------------------------------
# estimation quality
# ---------------------------------------------------------------------------

def test_quality_vanishes_without_pilot_energy():
    assert _quality(1, 1e-9) == pytest.approx(0.0, abs=1e-8)


def test_quality_reference_value():
    gamma = _quality(14_000, 100.0)
    assert gamma == pytest.approx(1_400_000 / 1_400_001, rel=1e-15)
    # a grid of pilot lengths gives the scalar value at each
    grid = _quality(np.array([4, 14_000]), 100.0)
    assert grid.tolist() == [_quality(4, 100.0), gamma]


def test_quality_balance_point():
    assert _quality(4, 0.25) == pytest.approx(0.5, rel=1e-12)


@settings(max_examples=100)
@given(tau=st.integers(1, 10_000), rho=st.floats(1e-6, 1e4))
def test_quality_is_bounded_and_monotone(tau, rho):
    gamma = _quality(tau, rho)
    assert 0.0 < gamma < 1.0
    assert _quality(tau + 1, rho) > gamma
    assert _quality(tau, rho * 2) > gamma


# ---------------------------------------------------------------------------
# coherence block
# ---------------------------------------------------------------------------

def test_block_samples_rounding():
    assert coherence_samples(0.1, 400e3) == 40_000
    assert coherence_samples(0.005, 400e3) == 2_000
    assert coherence_samples(1.0, 1.4) == 1
    assert type(coherence_samples(0.1, 400e3)) is int


def test_block_validation():
    for time_s, bandwidth_hz in ((0.0, 400e3), (0.1, -1.0), (math.nan, 400e3), (0.1, math.nan)):
        with pytest.raises(ValueError, match="must be positive"):
            coherence_samples(time_s, bandwidth_hz)
    with pytest.raises(ValueError, match="at least one sample"):
        coherence_samples(1e-9, 1e3)  # rounds to zero samples
    with pytest.raises(ValueError, match="2\\*\\*53"):
        coherence_samples(1e14, 400e3)  # 4e19 samples, past exact int64 and double counting
    assert coherence_samples(2.0**53, 1.0) == 2**53


# ---------------------------------------------------------------------------
# closed-form rates: the 3 GHz anchor validates the whole formula chain
# ---------------------------------------------------------------------------

def row_at(scenario, k):
    return best_row(rate_table([k], **scenario))


def sinr_of(row):
    """The SINR a row's spectral efficiency implies: 2**(se/(1 - pilot)) - 1."""
    return 2.0 ** (row["se_per_ue"] / (1.0 - row["pilot_fraction"])) - 1.0


def test_anchor_spectral_efficiency():
    sc = bundled("centralpark_3ghz")
    assert sc["tau_c"] == 40_000
    row = row_at(sc, 14_000)
    assert row["pilot_fraction"] == pytest.approx(0.35, rel=1e-12)
    assert sinr_of(row) == pytest.approx(7.142, abs=2e-3)
    assert row["se_per_ue"] == pytest.approx(1.966, abs=2e-3)
    rate = row["se_per_ue"] * sc["bandwidth_hz"]
    assert rate == row["rate_per_ue_bps"]
    assert rate == pytest.approx(98.3e6, rel=1e-3)
    assert abs(rate - 99e6) / 99e6 < 0.01  # within 1% of the quoted per-user rate


def test_anchor_sum_rate_and_pilot_fraction():
    sc = bundled("centralpark_3ghz")
    row = row_at(sc, 14_000)
    assert row["sum_rate_bps"] == pytest.approx(1.376e12, rel=1e-3)
    assert abs(row["sum_rate_bps"] - 1.38e12) / 1.38e12 < 0.005
    assert row["pilot_fraction"] == pytest.approx(0.35, rel=1e-12)
    assert row["sum_rate_bps"] == pytest.approx(row["k_users"] * row["rate_per_ue_bps"], rel=1e-12)


def test_se_zero_when_all_samples_are_pilots():
    sc = bundled("centralpark_3ghz")
    assert row_at(sc, 40_000)["se_per_ue"] == 0.0


def test_sinr_linear_in_antennas():
    sc = bundled("centralpark_3ghz")
    doubled = {**sc, "m_antennas": 2 * sc["m_antennas"]}
    assert sinr_of(row_at(doubled, 5000)) == pytest.approx(2 * sinr_of(row_at(sc, 5000)), rel=1e-12)


def test_k_bounds_enforced():
    sc = bundled("centralpark_3ghz")
    for evaluate in (rate_table, rate_lists):
        for grid in ([40_001], [0], [1, 40_001], []):
            with pytest.raises(ValueError, match="k_users"):
                evaluate(grid, **sc)


def test_single_user_sum_equals_per_user_rate():
    row = row_at(bundled("centralpark_3ghz"), 1)
    assert row["sum_rate_bps"] == row["rate_per_ue_bps"]


def scalar_rates(scenario, k):
    """One row of the closed form in Python float arithmetic, in RATE_COLUMNS order, M first."""
    tau_c = scenario["tau_c"]
    x = k * scenario["ul_pilot_snr"]
    gamma = x / (1.0 + x)
    rho_dl = scenario["dl_ul_power_ratio"] * scenario["ul_pilot_snr"]
    sinr = scenario["m_antennas"] * gamma * (rho_dl / k) / (1.0 + rho_dl)
    se = (1.0 - k / tau_c) * math.log2(1.0 + sinr)
    rate = se * scenario["bandwidth_hz"]
    return scenario["m_antennas"], k, k / tau_c, se, rate, k * rate


@pytest.mark.parametrize("name", ["centralpark_3ghz", "centralpark_60ghz"], ids=["3ghz", "60ghz"])
def test_rate_table_matches_scalar_closed_form(name):
    sc = bundled(name)
    grid = k_range(sc["tau_c"], k_step=1)
    table = rate_table(grid, **sc)
    assert tuple(table) == RATE_COLUMNS
    reference = np.array([scalar_rates(sc, k) for k in grid]).T
    assert table["m_antennas"].tolist() == [sc["m_antennas"]] * len(grid)
    assert table["k_users"].tolist() == list(grid)
    assert table["pilot_fraction"].tolist() == reference[2].tolist()
    # np.log2 and math.log2 may round the last bit apart
    for name, expected in zip(RATE_COLUMNS[3:], reference[3:]):
        np.testing.assert_allclose(table[name], expected, rtol=1e-15, atol=0, err_msg=name)


@pytest.mark.parametrize("name", ["centralpark_3ghz", "centralpark_60ghz"], ids=["3ghz", "60ghz"])
def test_plain_evaluator_matches_rate_table(name):
    sc = bundled(name)
    grid = k_range(sc["tau_c"], k_step=1)
    table, lists = rate_table(grid, **sc), rate_lists(grid, **sc)
    assert tuple(lists) == RATE_COLUMNS
    assert all(type(column) is list for column in lists.values())
    for column in RATE_COLUMNS[:3]:  # M, K and the pilot fraction: no log2
        assert lists[column] == table[column].tolist(), column
    # math.log2 and np.log2 may round the last bit apart
    for column in RATE_COLUMNS[3:]:
        np.testing.assert_allclose(lists[column], table[column], rtol=1e-15, atol=0,
                                   err_msg=column)


def test_evaluator_follows_the_count_of_rate_evaluations():
    sc = bundled("centralpark_3ghz")
    assert type(rate_columns(range(1, PLAIN_MAX_EVALUATIONS + 1), **sc)["se_per_ue"]) is list
    assert isinstance(rate_columns(range(1, PLAIN_MAX_EVALUATIONS + 2), **sc)["se_per_ue"],
                      np.ndarray)
    # antenna_sweep counts every M: 4 x 2,048 evaluations stay plain, 4 x 2,049 take numpy
    m_grid = [100, 1000, 10_000, 100_000]
    for n in (PLAIN_MAX_EVALUATIONS // 4, PLAIN_MAX_EVALUATIONS // 4 + 1):
        rows = antenna_sweep(m_grid, range(1, n + 1), **sc)
        best = [best_row(rate_table(range(1, n + 1), **{**sc, "m_antennas": m})) for m in m_grid]
        assert [row["k_users"] for row in rows] == [row["k_users"] for row in best]
        for row, expected in zip(rows, best):
            assert [type(v) for v in row.values()] == [int, int, float, float, float, float]
            assert row == pytest.approx(expected, rel=1e-15)


def test_rate_table_rows_do_not_depend_on_the_grid():
    sc = bundled("centralpark_60ghz")
    table = rate_table(k_range(sc["tau_c"], k_step=7), **sc)
    for i, k in enumerate(table["k_users"].tolist()):
        assert {name: column[i].item() for name, column in table.items()} == row_at(sc, k)


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

def test_optimize_singleton_grid():
    sc = bundled("centralpark_3ghz")
    assert best_row(rate_table([1], **sc))["k_users"] == 1


def test_k_range_step_rules():
    assert k_range(40_000) == range(1, 40_001, 40)
    assert k_range(40_000, k_step=1) == range(1, 40_001)
    assert k_range(999) == range(1, 1000)  # the automatic step never drops below 1
    assert k_range(40_000, k_min=10, k_max=100, k_step=7) == range(10, 101, 7)


@pytest.mark.parametrize("k_min, k_max", [(0, 0), (50_000, 0), (10, 5), (1, 40_001)])
def test_k_range_rejects_bad_bounds(k_min, k_max):
    with pytest.raises(ValueError, match="k_min"):
        k_range(40_000, k_min=k_min, k_max=k_max)


def test_best_row_is_the_sum_rate_maximum():
    sc = bundled("centralpark_60ghz")
    table = rate_table(k_range(sc["tau_c"], k_step=7), **sc)
    best = best_row(table)
    assert best["sum_rate_bps"] == table["sum_rate_bps"].max()
    assert best == row_at(sc, best["k_users"])
    # Python numbers, so ints stay ints in the manifest
    assert [type(v) for v in best.values()] == [int, int, float, float, float, float]


def test_best_row_ties_go_to_smaller_k():
    flat = dict(zip(RATE_COLUMNS, (np.full(3, 100), np.array([3, 5, 8]), *np.ones((4, 3)))))
    assert best_row(flat)["k_users"] == 3
    flat["sum_rate_bps"] = np.array([1.0, 2.0, 2.0])
    assert best_row(flat)["k_users"] == 5
    # list columns, as rate_lists returns them
    lists = {name: column.tolist() for name, column in flat.items()}
    assert best_row(lists) == best_row(flat)
    lists["sum_rate_bps"] = [1.0, 1.0, 1.0]
    assert best_row(lists)["k_users"] == 3


def test_optimize_rejects_empty_grid():
    with pytest.raises(ValueError):
        rate_table([], **bundled("centralpark_3ghz"))


def test_optimum_user_count_near_fourteen_thousand():
    sc = bundled("centralpark_3ghz")
    best = best_row(rate_table(k_range(sc["tau_c"], k_step=1), **sc))
    assert abs(best["k_users"] - 14_000) / 14_000 <= 0.10
    assert best["sum_rate_bps"] == pytest.approx(1.38e12, rel=0.05)


def test_readme_capacity_example_runs_as_written():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    namespace = {}
    exec(block, namespace)
    assert namespace["best"]["k_users"] == 14_624
    assert namespace["best"]["sum_rate_bps"] == pytest.approx(1.378e12, rel=1e-3)


def test_interior_maximum():
    sc = bundled("centralpark_3ghz")
    best = best_row(rate_table(k_range(sc["tau_c"]), **sc))
    assert best["sum_rate_bps"] > row_at(sc, 1)["sum_rate_bps"]
    assert best["sum_rate_bps"] > row_at(sc, sc["tau_c"])["sum_rate_bps"]
    assert 1 < best["k_users"] < sc["tau_c"]


def test_60ghz_pilot_fraction_band():
    sc = bundled("centralpark_60ghz")
    assert sc["tau_c"] == 2_000
    assert sc["ul_pilot_snr"] == pytest.approx(5.0, rel=1e-12)
    best = best_row(rate_table(k_range(sc["tau_c"], k_step=1), **sc))
    assert 0.30 <= best["pilot_fraction"] <= 0.55
    assert 1 < best["k_users"] < sc["tau_c"]


def test_antenna_sweep_monotone_and_ordered():
    sc = bundled("centralpark_3ghz")
    grid = k_range(sc["tau_c"])
    rows = antenna_sweep([10_000, 100, 100_000, 1000], grid, **sc)
    assert [row["m_antennas"] for row in rows] == [100, 1000, 10_000, 100_000]
    assert all(tuple(row) == RATE_COLUMNS for row in rows)
    rates = [row["sum_rate_bps"] for row in rows]
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_antenna_sweep_singleton_matches_sum_rate():
    sc = bundled("centralpark_3ghz")
    [row] = antenna_sweep([sc["m_antennas"]], [500], **sc)
    assert row == row_at(sc, 500)  # M included


def test_antenna_sweep_rejects_empty_grids():
    sc = bundled("centralpark_3ghz")
    with pytest.raises(ValueError):
        antenna_sweep([], [1], **sc)
    with pytest.raises(ValueError):
        antenna_sweep([100], [], **sc)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=100)
@given(k=st.integers(1, 40_000))
def test_se_nonnegative_and_pilot_accounting(k):
    sc = bundled("centralpark_3ghz")
    row = row_at(sc, k)
    assert row["se_per_ue"] >= 0.0
    assert row["pilot_fraction"] * sc["tau_c"] == pytest.approx(k, rel=1e-12)
    assert (row["se_per_ue"] == 0.0) == (k == sc["tau_c"])


def test_scenario_validation():
    # a valid K grid, so only the scenario value can be at fault
    messages = {"m_antennas": "m_antennas", "ul_pilot_snr": "SNR",
                "dl_ul_power_ratio": "power ratio", "bandwidth_hz": "bandwidth_hz"}
    for name, message in messages.items():
        for bad in (0, -1.0, math.nan):
            for evaluate in (rate_table, rate_lists):
                with pytest.raises(ValueError, match=message):
                    evaluate([1, 500], **{**bundled("centralpark_3ghz"), name: bad})

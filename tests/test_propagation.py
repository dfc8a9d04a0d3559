from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimolab.capacity import estimation_quality
from mimolab.hardware import AdcSpec, array_pa_budget
from mimolab.propagation import (
    EstimationLoadSpec,
    LinkGeometry,
    bandwidth_snr_delta,
    estimation_load,
    fresnel_radius,
    link_budget_ledger,
    wavelength_m,
)
from mimolab.scenarios import centralpark_3ghz

pos = st.floats(1.0, 1e4)


# ---------------------------------------------------------------------------
# Fresnel
# ---------------------------------------------------------------------------

def test_fresnel_endpoint_is_zero():
    assert fresnel_radius(LinkGeometry(0.0, 100.0, 38e9)) == 0.0


def test_fresnel_38ghz_midpoint():
    r = fresnel_radius(LinkGeometry(50.0, 50.0, 38e9))
    assert r == pytest.approx(0.4441, abs=5e-4)


def test_fresnel_3ghz_midpoint():
    r = fresnel_radius(LinkGeometry(50.0, 50.0, 3e9))
    assert r == pytest.approx(1.581, abs=1e-3)


@settings(max_examples=100)
@given(d1=pos, d2=pos, f=st.floats(1e8, 1e12))
def test_fresnel_symmetric_in_distances(d1, d2, f):
    assert fresnel_radius(LinkGeometry(d1, d2, f)) == pytest.approx(
        fresnel_radius(LinkGeometry(d2, d1, f)), rel=1e-12
    )


@settings(max_examples=100)
@given(d1=pos, d2=pos, f=st.floats(1e8, 1e11))
def test_fresnel_monotone_in_wavelength(d1, d2, f):
    # halving the frequency doubles the wavelength and widens the zone
    assert fresnel_radius(LinkGeometry(d1, d2, f / 2)) > fresnel_radius(LinkGeometry(d1, d2, f))


def test_link_geometry_validation():
    with pytest.raises(ValueError):
        LinkGeometry(-1.0, 10.0, 1e9)
    with pytest.raises(ValueError):
        LinkGeometry(0.0, 0.0, 1e9)
    with pytest.raises(ValueError):
        LinkGeometry(10.0, 10.0, 0.0)


# ---------------------------------------------------------------------------
# bandwidth delta
# ---------------------------------------------------------------------------

def test_bandwidth_delta_values():
    assert bandwidth_snr_delta(1.0) == 0.0
    assert bandwidth_snr_delta(10.0) == pytest.approx(-10.0, rel=1e-12)
    assert bandwidth_snr_delta(100.0) == pytest.approx(-20.0, rel=1e-12)
    assert round(bandwidth_snr_delta(20.0), 2) == -13.01


def test_bandwidth_delta_rejects_shrinking():
    with pytest.raises(ValueError):
        bandwidth_snr_delta(0.5)


# ---------------------------------------------------------------------------
# estimation load
# ---------------------------------------------------------------------------

def test_estimation_load_reference_case():
    spec = EstimationLoadSpec(200, 20, 1024, 12, 0.05)
    report = estimation_load(spec)
    assert report.n_coefficients == 344_000  # 200 * 20 * ceil(1024/12 = 86)
    assert report.estimates_per_second == pytest.approx(6.88e6, rel=1e-12)


def test_estimation_load_minimal_case():
    report = estimation_load(EstimationLoadSpec(1, 1, 1, 1, 1.0))
    assert report.n_coefficients == 1
    assert report.estimates_per_second == 1.0


def test_estimation_load_exact_block_division():
    report = estimation_load(EstimationLoadSpec(1, 1, 1024, 16, 1.0))
    assert report.n_coefficients == 64


@settings(max_examples=60)
@given(m=st.integers(1, 500), k=st.integers(1, 50))
def test_estimation_load_linear_in_m_and_k(m, k):
    base = estimation_load(EstimationLoadSpec(m, k, 1024, 12, 0.05))
    double_m = estimation_load(EstimationLoadSpec(2 * m, k, 1024, 12, 0.05))
    double_k = estimation_load(EstimationLoadSpec(m, 2 * k, 1024, 12, 0.05))
    assert double_m.n_coefficients == 2 * base.n_coefficients
    assert double_k.n_coefficients == 2 * base.n_coefficients
    assert double_m.estimates_per_second == pytest.approx(
        2 * base.estimates_per_second, rel=1e-12
    )


def test_estimation_spec_validation():
    with pytest.raises(ValueError):
        EstimationLoadSpec(0, 1, 10, 1, 1.0)
    with pytest.raises(ValueError):
        EstimationLoadSpec(1, 1, 10, 11, 1.0)  # block larger than the grid
    with pytest.raises(ValueError):
        EstimationLoadSpec(1, 1, 10, 1, 0.0)


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------

def test_ledger_sums_and_preserves_order():
    ledger = link_budget_ledger([("tx_power", 30.0), ("window_loss", -40.0), ("rain", -1.5)])
    assert [e["label"] for e in ledger["entries"]] == ["tx_power", "window_loss", "rain"]
    assert ledger["total_db"] == pytest.approx(-11.5, rel=1e-12)


def test_ledger_empty():
    assert link_budget_ledger([]) == {"entries": [], "total_db": 0.0}


# ---------------------------------------------------------------------------
# NaN rejection in the closed-form validators
# ---------------------------------------------------------------------------

NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        lambda: fresnel_radius(LinkGeometry(50.0, 50.0, NAN)),
        lambda: fresnel_radius(LinkGeometry(NAN, 50.0, 38e9)),
        lambda: wavelength_m(NAN),
        lambda: bandwidth_snr_delta(NAN),
        lambda: EstimationLoadSpec(200, 20, 1024, 12, coherence_time_s=NAN),
        lambda: AdcSpec(NAN, 5, 1e8),
        lambda: array_pa_budget(64, NAN, 0.18),
        lambda: estimation_quality(4, NAN),
        lambda: replace(centralpark_3ghz(), carrier_hz=NAN),
    ],
    ids=[
        "fresnel_frequency",
        "fresnel_distance",
        "wavelength",
        "bandwidth_ratio",
        "coherence_time",
        "adc_fom",
        "pa_radiated_power",
        "pilot_snr",
        "carrier",
    ],
)
def test_nan_is_rejected(call):
    with pytest.raises(ValueError):
        call()

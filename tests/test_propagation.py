import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimolab.capacity import rate_table
from mimolab.cli import main
from mimolab.hardware import adc_power, array_pa_budget
from mimolab.propagation import bandwidth_snr_delta, estimation_load, fresnel_radius, wavelength_m

from conftest import bundled

pos = st.floats(1.0, 1e4)


# ---------------------------------------------------------------------------
# Fresnel
# ---------------------------------------------------------------------------

def test_fresnel_endpoint_is_zero():
    assert fresnel_radius(0.0, 100.0, 38e9) == 0.0


def test_fresnel_38ghz_midpoint():
    r = fresnel_radius(50.0, 50.0, 38e9)
    assert r == pytest.approx(0.4441, abs=5e-4)


def test_fresnel_3ghz_midpoint():
    r = fresnel_radius(50.0, 50.0, 3e9)
    assert r == pytest.approx(1.581, abs=1e-3)


@settings(max_examples=100)
@given(d1=pos, d2=pos, f=st.floats(1e8, 1e12))
def test_fresnel_symmetric_in_distances(d1, d2, f):
    assert fresnel_radius(d1, d2, f) == pytest.approx(fresnel_radius(d2, d1, f), rel=1e-12)


@settings(max_examples=100)
@given(d1=pos, d2=pos, f=st.floats(1e8, 1e11))
def test_fresnel_monotone_in_wavelength(d1, d2, f):
    # halving the frequency doubles the wavelength and widens the zone
    assert fresnel_radius(d1, d2, f / 2) > fresnel_radius(d1, d2, f)


@settings(max_examples=200)
@given(d1=pos, d2=pos, f=st.floats(1e8, 1e12), s=st.integers(-511, 500))
def test_fresnel_scales_exactly_over_the_double_range(d1, d2, f, s):
    # distances times 4**s give the radius times 2**s, bit for bit, down to subnormal
    # distances and up to products d1*d2 far beyond the double range
    radius = fresnel_radius(d1, d2, f)
    assert fresnel_radius(math.ldexp(d1, 2 * s), math.ldexp(d2, 2 * s), f) == math.ldexp(radius, s)


@pytest.mark.parametrize(
    "d1, d2, scale",
    [(1e200, 1e200, -700), (1e308, 1e308, -1000), (1e-320, 1e-320, 1100), (1e-320, 1e300, None),
     (1e300, 1e-320, None)],
    ids=["product-overflows", "sum-overflows", "subnormal", "subnormal-beside-huge",
         "huge-beside-subnormal"],
)
def test_fresnel_radius_keeps_its_range(d1, d2, scale):
    lam = wavelength_m(38e9)
    if scale is None:  # d1*d2/(d1 + d2) is the smaller distance, to far within rounding
        expected = math.ldexp(math.sqrt(lam * math.ldexp(min(d1, d2), 1100)), -550)
    else:  # the plain formula on both distances times 2**scale, where it stays in range
        a, b = math.ldexp(d1, scale), math.ldexp(d2, scale)
        expected = math.ldexp(math.sqrt(lam * a * b / (a + b)), -scale // 2)
    assert 0.0 < expected < math.inf
    assert fresnel_radius(d1, d2, 38e9) == pytest.approx(expected, rel=1e-15, abs=0)


@pytest.mark.parametrize("frequency_hz", [1e-320, math.inf], ids=["overflows", "underflows"])
def test_wavelength_that_is_no_positive_finite_double_is_rejected(frequency_hz):
    with pytest.raises(ValueError, match="wavelength"):
        wavelength_m(frequency_hz)
    with pytest.raises(ValueError, match="wavelength"):
        fresnel_radius(50.0, 50.0, frequency_hz)


def test_fresnel_far_out_of_range_distances_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["fresnel", "--d1", "1e200", "--d2", "1e200", "--output", "f.json"]) == 0
    radius = json.loads((tmp_path / "f.json").read_text())["radius_m"]
    assert radius == pytest.approx(6.280635003933247e98, rel=1e-15)


def test_link_geometry_validation():
    with pytest.raises(ValueError, match="distances must be nonnegative"):
        fresnel_radius(-1.0, 10.0, 1e9)
    with pytest.raises(ValueError, match="link length"):
        fresnel_radius(0.0, 0.0, 1e9)
    with pytest.raises(ValueError, match="frequency_hz"):
        fresnel_radius(10.0, 10.0, 0.0)


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
    n_coefficients, rate = estimation_load(200, 20, 1024, 12, 0.05)
    assert n_coefficients == 344_000  # 200 * 20 * ceil(1024/12 = 86)
    assert rate == pytest.approx(6.88e6, rel=1e-12)


def test_estimation_load_minimal_case():
    assert estimation_load(1, 1, 1, 1, 1.0) == (1, 1.0)


def test_estimation_load_exact_block_division():
    n_coefficients, _ = estimation_load(1, 1, 1024, 16, 1.0)
    assert n_coefficients == 64


@settings(max_examples=60)
@given(m=st.integers(1, 500), k=st.integers(1, 50))
def test_estimation_load_linear_in_m_and_k(m, k):
    base_count, base_rate = estimation_load(m, k, 1024, 12, 0.05)
    double_m_count, double_m_rate = estimation_load(2 * m, k, 1024, 12, 0.05)
    double_k_count, _ = estimation_load(m, 2 * k, 1024, 12, 0.05)
    assert double_m_count == 2 * base_count
    assert double_k_count == 2 * base_count
    assert double_m_rate == pytest.approx(2 * base_rate, rel=1e-12)


def test_estimation_spec_validation():
    with pytest.raises(ValueError, match="m_antennas"):
        estimation_load(0, 1, 10, 1, 1.0)
    with pytest.raises(ValueError, match="cannot exceed"):
        estimation_load(1, 1, 10, 11, 1.0)  # block larger than the grid
    with pytest.raises(ValueError, match="coherence_time_s"):
        estimation_load(1, 1, 10, 1, 0.0)


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------

def test_ledger_empty(tmp_path, monkeypatch):
    # no noise-bandwidth widening and no extra entries sum to an empty ledger
    monkeypatch.chdir(tmp_path)
    assert main(["linkbudget", "--bandwidth-ratio", "1", "--output", "lb.json"]) == 0
    assert json.loads((tmp_path / "lb.json").read_text()) == {"entries": [], "total_db": 0.0}


# ---------------------------------------------------------------------------
# NaN rejection in the closed-form validators
# ---------------------------------------------------------------------------

NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        lambda: fresnel_radius(50.0, 50.0, NAN),
        lambda: fresnel_radius(NAN, 50.0, 38e9),
        lambda: wavelength_m(NAN),
        lambda: bandwidth_snr_delta(NAN),
        lambda: estimation_load(200, 20, 1024, 12, coherence_time_s=NAN),
        lambda: adc_power(NAN, 5, 1e8, 1.0),
        lambda: array_pa_budget(64, NAN, 0.18),
        lambda: rate_table([1], **{**bundled("centralpark_3ghz"), "ul_pilot_snr": NAN}),
        lambda: rate_table([1], **{**bundled("centralpark_3ghz"), "bandwidth_hz": NAN}),
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
        "bandwidth_hz",
    ],
)
def test_nan_is_rejected(call):
    with pytest.raises(ValueError):
        call()

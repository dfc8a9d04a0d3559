import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimolab.hardware import adc_power, array_pa_budget


def test_adc_power_reference_point():
    # 30 fJ/cs, 5 effective bits, 100 MS/s, no overhead -> 96 microwatts
    assert adc_power(30e-15, 5, 1e8, 1.0) == pytest.approx(96e-6, rel=1e-12)


def test_one_bit_halves_the_power():
    base = adc_power(30e-15, 8, 1e8, 1.0)
    assert adc_power(30e-15, 7, 1e8, 1.0) == pytest.approx(base / 2, rel=1e-12)


@pytest.mark.parametrize("overhead", [2.0, 3.0, 4.0])
def test_overhead_multiplies(overhead):
    base = adc_power(30e-15, 6, 1e8, 1.0)
    assert adc_power(30e-15, 6, 1e8, overhead) == pytest.approx(overhead * base, rel=1e-12)


@settings(max_examples=60)
@given(fs=st.floats(1e6, 1e10), enob=st.floats(1, 14), scale=st.floats(1.5, 20))
def test_adc_power_linear_in_sample_rate(fs, enob, scale):
    p1 = adc_power(30e-15, enob, fs, 1.0)
    p2 = adc_power(30e-15, enob, scale * fs, 1.0)
    assert p2 == pytest.approx(scale * p1, rel=1e-9)


def test_wide_low_resolution_array_beats_narrow_high_resolution():
    power_lo = adc_power(30e-15, 5, 1e8, 1.0)
    power_hi = adc_power(30e-15, 10, 1e8, 1.0)
    assert 128 * power_lo / (8 * power_hi) == 0.5
    assert 256 * power_lo / (8 * power_hi) == 1.0


def test_pa_dc_power_values():
    assert array_pa_budget(1, 0.25, 0.18) == pytest.approx(1.389, abs=1e-3)
    assert array_pa_budget(1, 0.25, 0.10) == pytest.approx(2.5, rel=1e-12)


def test_pa_ideal_efficiency_limit():
    # pae_fraction is open at 1; approach it instead
    assert array_pa_budget(1, 0.25, 1 - 1e-12) == pytest.approx(0.25, rel=1e-9)


@settings(max_examples=60)
@given(n=st.integers(1, 4096), p=st.floats(1e-3, 100.0), pae=st.floats(0.01, 0.99))
def test_pa_dc_never_below_output(n, p, pae):
    assert array_pa_budget(n, p, pae) >= p


def test_array_pa_budget_invariant_in_antenna_count():
    total = array_pa_budget(1, 1.0, 0.18)
    assert array_pa_budget(100, 1.0, 0.18) == pytest.approx(total, rel=1e-12)
    assert total == pytest.approx(5.556, abs=1e-3)
    assert array_pa_budget(4, 1.0, 0.10) == pytest.approx(10.0, rel=1e-12)


def test_per_antenna_output_drops_with_array_size():
    # each of the n PAs radiates total/n watts and draws (total/n)/pae
    assert array_pa_budget(100, 1.0, 0.18) / 100 == pytest.approx(
        array_pa_budget(1, 0.01, 0.18), rel=1e-12
    )


def test_spec_validation():
    with pytest.raises(ValueError, match="fom_j_per_cs"):
        adc_power(0.0, 5, 1e8, 1.0)
    with pytest.raises(ValueError, match="enob"):
        adc_power(30e-15, 0.5, 1e8, 1.0)
    with pytest.raises(ValueError, match="overhead_factor"):
        adc_power(30e-15, 5, 1e8, 11.0)
    with pytest.raises(ValueError):
        array_pa_budget(4, 1.0, 1.0)
    with pytest.raises(ValueError):
        array_pa_budget(0, 1.0, 0.18)

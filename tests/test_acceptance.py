"""Release acceptance suite: one test per criterion, stated tolerances pinned.

Run `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion with the measured values and runtimes.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from mimolab.beamforming import analog_weights, efficiency, hybrid_weights, mrt_weights
from mimolab.capacity import antenna_sweep, k_range
from mimolab.channels import favorable_propagation_metric, hardening_metric
from mimolab.cli import BUNDLED_CONFIGS, main

from conftest import bundled, numpy_stream, rayleigh_z

CENTER_HZ = 60e9


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _run_config(name: str, directory, extra=()) -> float:
    """Run one bundled config with cwd set to ``directory``; returns elapsed seconds."""
    directory.mkdir(parents=True, exist_ok=True)
    old = os.getcwd()
    t0 = time.monotonic()
    try:
        os.chdir(directory)
        code = main(["--config", name, "--output", f"{name}.out", *extra])
    finally:
        os.chdir(old)
    assert code == 0, f"config {name} exited with {code}"
    return time.monotonic() - t0


def _read_curve(path):
    rows = path.read_text().strip().split("\n")[1:]
    freqs = np.array([float(r.split(",")[0]) for r in rows])
    effs = np.array([float(r.split(",")[1]) for r in rows])
    return freqs, effs


def _read_json(path):
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def fig4_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("fig4")
    out = {}
    for name in ("fig4_32x32", "fig4_64x64", "fig4_128x128"):
        duration = _run_config(name, base / name)
        freqs, effs = _read_curve(base / name / f"{name}.out")
        out[name] = (freqs, effs, duration)
    return out


def test_criterion_01_squint_center_value(fig4_runs):
    freqs, effs, duration = fig4_runs["fig4_64x64"]
    center = float(effs[np.argmin(np.abs(freqs - CENTER_HZ))])
    ok = 0.85 <= center <= 0.95 and duration < 5.0
    _report(1, ok, f"64x64 center efficiency {center:.4f} in [0.85, 0.95], ran in {duration:.2f}s")


def test_criterion_02_squint_400mhz_band(fig4_runs):
    total = sum(duration for _, _, duration in fig4_runs.values())
    worst = {}
    for name, (freqs, effs, _) in fig4_runs.items():
        band = effs[np.abs(freqs - CENTER_HZ) <= 200e6 + 1.0]
        worst[name] = (float(band.min()), float(band.max()))
    ok = all(lo >= 0.78 and hi <= 0.95 for lo, hi in worst.values()) and total < 30.0
    detail = ", ".join(f"{n}: [{lo:.4f}, {hi:.4f}]" for n, (lo, hi) in worst.items())
    _report(2, ok, f"+/-200 MHz efficiency within [0.78, 0.95] ({detail}), total {total:.2f}s")


def test_criterion_03_squint_2ghz_band(fig4_runs):
    min32 = float(fig4_runs["fig4_32x32"][1].min())
    min128 = float(fig4_runs["fig4_128x128"][1].min())
    ok = min32 >= 0.75 and min128 < min32
    _report(3, ok, f"2 GHz minima: 32x32 {min32:.4f} >= 0.75, 128x128 {min128:.4f} below it")


def test_criterion_04_mobility_bound(tmp_path):
    duration = _run_config("mobility_bound", tmp_path)
    reports = _read_json(tmp_path / "mobility_bound.out")["reports"]
    by_mu = {r["mu"]: r for r in reports}
    eighth, sixteenth = by_mu[0.125], by_mu[0.0625]
    bound16 = 64 * math.cos(math.pi / 8) ** 2
    ok = (
        eighth["min_observed_gain"] >= 32.0
        and sixteenth["bound_gain"] == pytest.approx(bound16, rel=1e-12)
        # extremes sit exactly on the bound; allow last-bit rounding only
        and sixteenth["min_observed_gain"] >= sixteenth["bound_gain"] * (1 - 1e-12)
        and duration < 10.0
    )
    _report(
        4,
        ok,
        f"min gain {eighth['min_observed_gain']:.6f} >= 32.0 at mu=1/8; "
        f"mu=1/16 min {sixteenth['min_observed_gain']:.6f} vs bound "
        f"{sixteenth['bound_gain']:.6f}; ran in {duration:.2f}s",
    )


def test_criterion_05_centralpark_3ghz_anchor(tmp_path):
    duration = _run_config("centralpark_3ghz", tmp_path)
    manifest = _read_json(tmp_path / "centralpark_3ghz.out.manifest.json")
    best = manifest["results"]["optimum"]
    ok = (
        abs(best["k_users"] - 14_000) / 14_000 <= 0.10
        and abs(best["rate_per_ue_bps"] - 99e6) / 99e6 <= 0.05
        and abs(best["sum_rate_bps"] - 1.38e12) / 1.38e12 <= 0.05
        and abs(best["pilot_fraction"] - 0.35) <= 0.035
        and duration < 60.0
    )
    _report(
        5,
        ok,
        f"K*={best['k_users']} (target 14000 +/-10%), "
        f"per-UE {best['rate_per_ue_bps'] / 1e6:.2f} Mbit/s (99 +/-5%), "
        f"sum {best['sum_rate_bps'] / 1e12:.4f} Tbit/s (1.38 +/-5%), "
        f"pilot fraction {best['pilot_fraction']:.4f} (0.35 +/-0.035); {duration:.2f}s",
    )


def test_criterion_06_centralpark_60ghz_loose(tmp_path):
    _run_config("centralpark_60ghz", tmp_path)
    manifest = _read_json(tmp_path / "centralpark_60ghz.out.manifest.json")
    best = manifest["results"]["optimum"]
    tau_c = manifest["results"]["tau_c"]
    interior = 1 < best["k_users"] < tau_c
    ok = (
        interior
        and 0.30 <= best["pilot_fraction"] <= 0.55
        and 1.44e12 / 3 <= best["sum_rate_bps"] <= 1.44e12 * 3
        and manifest["results"]["snr_scaling"] == "bandwidth"
    )
    _report(
        6,
        ok,
        f"interior optimum K*={best['k_users']} of tau_c={tau_c}, "
        f"pilot fraction {best['pilot_fraction']:.4f} in [0.30, 0.55], "
        f"sum {best['sum_rate_bps'] / 1e12:.3f} Tbit/s within 3x of 1.44, "
        f"manifest records snr_scaling={manifest['results']['snr_scaling']!r}",
    )


def test_criterion_07_sum_rate_monotone_in_antennas():
    scenario = bundled("centralpark_3ghz")
    rows = antenna_sweep([100, 1000, 10_000, 100_000], k_range(scenario["tau_c"]), **scenario)
    rates = [row["sum_rate_bps"] for row in rows]
    ok = all(a < b for a, b in zip(rates, rates[1:]))
    detail = " < ".join(f"{r / 1e9:.2f}G" for r in rates)
    _report(7, ok, f"best sum rates strictly increasing over M grid: {detail}")


def test_criterion_08_fresnel_radius(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["fresnel", "--freq-ghz", "38", "--d1", "50", "--d2", "50",
                 "--output", "fres.json"])
    assert code == 0
    radius = _read_json(tmp_path / "fres.json")["radius_m"]
    ok = abs(radius - 0.4441) <= 0.0005
    _report(8, ok, f"38 GHz, 50 m / 50 m radius {radius:.6f} m = 0.4441 +/- 0.0005")


def test_criterion_09_estimation_load(tmp_path):
    _run_config("estload_paper", tmp_path)
    record = _read_json(tmp_path / "estload_paper.out")
    coeffs = record["n_coefficients"]
    rate = record["estimates_per_second"]
    # quoted figures are 2-significant-digit roundings: 3.4e5, and 6.8e6 via
    # the rounded coefficient count; exact arithmetic gives 6.88e6, within
    # one unit in the second significant digit
    ok = (
        coeffs == 344_000
        and rate == pytest.approx(6.88e6, rel=1e-12)
        and float(f"{coeffs:.1e}") == 3.4e5
        and abs(rate - 6.8e6) <= 0.1e6
    )
    _report(9, ok, f"{coeffs} coefficients (rounds to 3.4e5), {rate:.3e}/s vs quoted 6.8e6")


def test_criterion_10_adc_budget_ratio(tmp_path):
    _run_config("adc_128v8", tmp_path)
    record = _read_json(tmp_path / "adc_128v8.out")
    ratio = record["adc_power_ratio_a_over_b"]
    ok = ratio == 0.5
    _report(10, ok, f"128 @ ENOB 5 vs 8 @ ENOB 10 power ratio {ratio} == 0.5 exactly")


def test_criterion_11_property_suite():
    t0 = time.monotonic()
    checks = []

    for m in (100, 10_000):
        value = hardening_metric(m, 10_000, 42)
        target = 1.0 / math.sqrt(m)
        checks.append((f"hardening M={m}: {value:.5f} vs {target:.5f}",
                       abs(value - target) <= 0.1 * target))
        z = rayleigh_z("hardening", value, m, 10_000)
        checks.append((f"hardening M={m}: z = {z:+.2f} within 5", abs(z) <= 5))

    fav100 = favorable_propagation_metric(100, 1000, 7)
    fav10k = favorable_propagation_metric(10_000, 1000, 7)
    ratio = fav100 / fav10k
    checks.append((f"favorable ratio {ratio:.2f} vs 10 +/-20%", 8.0 <= ratio <= 12.0))
    for m, value in ((100, fav100), (10_000, fav10k)):
        z = rayleigh_z("favorable", value, m, 1000)
        checks.append((f"favorable M={m}: z = {z:+.2f} within 5", abs(z) <= 5))

    m, mu = 64, 0.125
    phi = (-mu + (mu - -mu) * numpy_stream(11).random(100_000 * m)).reshape(100_000, m)
    gains = np.abs(np.exp(2j * np.pi * phi).sum(axis=1)) ** 2 / m
    checks.append((f"drift gain max {gains.max():.4f} <= M={m}",
                   bool(gains.max() <= m * (1 + 1e-12))))

    rng = np.random.Generator(np.random.PCG64(3))
    dominance_ok = True
    bounded_ok = True
    for _ in range(1000):
        size = int(rng.integers(4, 64))
        h = rng.normal(size=size) + 1j * rng.normal(size=size)
        w_rand = rng.normal(size=size) + 1j * rng.normal(size=size)
        w_rand /= np.linalg.norm(w_rand)
        e_rand = efficiency(w_rand, h)
        e_digital = efficiency(mrt_weights(h), h)
        (hybrid,) = hybrid_weights([h], n_rf=1)
        e_hybrid = efficiency(hybrid, h)
        e_analog = efficiency(analog_weights(h), h)
        bounded_ok &= all(0.0 <= e <= 1.0 for e in (e_rand, e_digital, e_hybrid, e_analog))
        dominance_ok &= e_digital >= e_hybrid - 1e-12 >= e_analog - 2e-12
        dominance_ok &= e_digital == pytest.approx(1.0, abs=1e-12)
    checks.append(("efficiency in [0,1] on 1000 random scenarios", bounded_ok))
    checks.append(("digital >= hybrid >= analog on 1000 random scenarios", dominance_ok))

    duration = time.monotonic() - t0
    checks.append((f"runtime {duration:.1f}s < 120s", duration < 120.0))
    ok = all(passed for _, passed in checks)
    _report(11, ok, "; ".join(label for label, _ in checks))


def test_criterion_12_bundled_configs_are_deterministic(tmp_path):
    mismatched = []
    for name in BUNDLED_CONFIGS:
        outputs = []
        for attempt in ("a", "b"):
            directory = tmp_path / f"{name}_{attempt}"
            _run_config(name, directory)
            outputs.append(
                (
                    (directory / f"{name}.out").read_bytes(),
                    (directory / f"{name}.out.manifest.json").read_bytes(),
                )
            )
        if outputs[0] != outputs[1]:
            mismatched.append(name)
    ok = not mismatched
    _report(12, ok, f"all {len(BUNDLED_CONFIGS)} bundled configs re-ran byte-identically"
            + (f"; mismatches: {mismatched}" if mismatched else ""))

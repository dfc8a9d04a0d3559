"""Closed-form propagation arithmetic, the drift-gain bound, and the estimation load.

Nothing here is stochastic: Fresnel clearance, the link-budget delta from
widening the noise bandwidth, the least beamforming gain a frozen beam keeps
while the user drifts, and the count of channel coefficients a base station
must estimate per coherence interval.

The drift model rotates each of M coefficients by exp(j*2*pi*phi_m) with
|phi_m| <= mu wavelengths.  For mu <= 1/8 the gain |sum exp(j*theta_m)|^2 / M
(theta_m = 2*pi*phi_m) is least at a vertex of the box [-mu, mu]^M: with every
other phase fixed, it is c + 2*R*cos(theta_m - psi) for a psi within a = 2*pi*mu
of 0, and cos is concave where |theta_m - psi| <= 2a <= pi/2, so the least gain
over theta_m is at an endpoint.  A vertex with p phases at +a gains
(M^2*cos^2(a) + (2p - M)^2*sin^2(a)) / M, least when |2p - M| = M mod 2, the
alternating +/-mu pattern.  So the least gain is
M*cos^2(a) + (M mod 2)*sin^2(a)/M >= M*cos^2(a) >= M/2, and no sampling is needed.
"""

import math

from . import MAX_DRIFT_FRACTION, SPEED_OF_LIGHT_M_S, _blame, _fixed_text


def wavelength_m(frequency_hz: float) -> float:
    """c/f in meters, rejected unless it is a positive finite double."""
    if not frequency_hz > 0:
        raise ValueError(f"frequency_hz must be positive, got {frequency_hz}")
    wavelength = SPEED_OF_LIGHT_M_S / frequency_hz
    if not 0.0 < wavelength < math.inf:
        raise ValueError(f"the wavelength c/f is {wavelength} m at frequency_hz={frequency_hz}")
    return wavelength


def fresnel_radius(d1_m: float, d2_m: float, frequency_hz: float) -> float:
    """First Fresnel-zone radius sqrt(lambda * d1 * d2 / (d1 + d2)) in meters.

    d1 and d2 are the distances of the evaluation point from the two link ends.
    """
    if d1_m < 0 or d2_m < 0:
        raise ValueError(f"distances must be nonnegative, got {d1_m}, {d2_m}")
    if not d1_m + d2_m > 0:
        raise ValueError("link length d1 + d2 must be positive")
    # lam*d1*d2/(d1 + d2) on the frexp mantissas, its binary exponent t kept apart, so no
    # product or sum can overflow or underflow; a power of two scales exactly, so wherever
    # the unscaled form stays in range this gives the same bits
    (m_lam, e_lam), (m1, e1), (m2, e2) = map(math.frexp, (wavelength_m(frequency_hz), d1_m, d2_m))
    e = max(e1, e2)
    q = m_lam * m1 * m2 / (math.ldexp(m1, e1 - e) + math.ldexp(m2, e2 - e))
    t = e_lam + e1 + e2 - e
    return math.ldexp(math.sqrt(math.ldexp(q, t % 2)), t // 2)  # sqrt(q * 2**t)


def bandwidth_snr_delta(bandwidth_ratio: float) -> float:
    """Link-budget change in dB from widening the noise bandwidth by ``ratio``.

    Transmit power held fixed, thermal noise scales with bandwidth:
    -10*log10(ratio), so 10x bandwidth costs 10 dB.
    """
    if not bandwidth_ratio >= 1:
        raise ValueError(f"bandwidth_ratio must be >= 1, got {bandwidth_ratio}")
    return -10.0 * math.log10(bandwidth_ratio)


def _least_drift_gain(m_antennas: int, mu: float) -> float:
    """Least drift gain over [-mu, mu]^M, that of the alternating +/-mu pattern.

    Its phase sum is M*cos(a) + j*(M mod 2)*sin(a) with a = 2*pi*mu.
    """
    a = 2.0 * math.pi * mu
    return m_antennas * math.cos(a) ** 2 + (m_antennas % 2) * math.sin(a) ** 2 / m_antennas


def drift_bound_check(m_antennas: int, mus: list[float]) -> list[tuple[float, float]]:
    """One (least drift gain, bound M*cos^2(2*pi*mu)) per mu of mus, in order.

    The least gain is the closed form of the module docstring.  For even M it is
    the bound itself, so the check allows a 1e-12 relative rounding slack; a least
    gain below that raises ArithmeticError for the first mu that shows one, so
    returned pairs always satisfy the bound.
    """
    for mu in mus:
        if not 0.0 <= mu <= MAX_DRIFT_FRACTION:
            raise ValueError(f"the bound chain needs mu in [0, 1/8], got {mu}")
    if m_antennas < 1:
        raise ValueError(f"m_antennas must be at least 1, got {m_antennas}")
    results = []
    for mu in mus:
        gain = _least_drift_gain(m_antennas, mu)
        bound = m_antennas * math.cos(2.0 * math.pi * mu) ** 2
        if not gain >= bound * (1.0 - 1e-12):
            raise ArithmeticError(
                f"drift gain {gain} fell below the bound {bound}; "
                "this should be impossible for mu <= 1/8"
            )
        results.append((gain, bound))
    return results


def estimation_load(
    m_antennas: int,
    k_users: int,
    n_subcarriers: int,
    subcarriers_per_block: int,
    coherence_time_s: float,
) -> tuple[int, float]:
    """Coefficient count M*K*ceil(subcarriers/block) and its rate per second.

    ceil, not floor: every subcarrier must be covered by some estimate even
    when the block size does not divide the grid evenly.
    """
    counts = {
        "m_antennas": m_antennas,
        "k_users": k_users,
        "n_subcarriers": n_subcarriers,
        "subcarriers_per_block": subcarriers_per_block,
    }
    for name, count in counts.items():
        if not count >= 1:
            raise ValueError(f"{name} must be a positive integer")
    if subcarriers_per_block > n_subcarriers:
        raise ValueError("subcarriers_per_block cannot exceed n_subcarriers")
    if not coherence_time_s > 0:
        raise ValueError(f"coherence_time_s must be positive, got {coherence_time_s}")
    blocks = -(-n_subcarriers // subcarriers_per_block)
    n_coefficients = m_antennas * k_users * blocks
    try:
        return n_coefficients, n_coefficients / coherence_time_s
    except OverflowError:  # a count beyond the double range: the rate overflows as a float would
        return n_coefficients, math.inf


# ----------------------------------------------------------------------------
# the CLI's closed-form runners: (params, seed) -> (data, manifest results, stdout lines)
# ----------------------------------------------------------------------------

def _run_mobility(params: dict, seed: int):
    m, mus = params["m_antennas"], params["mu_list"]
    reports = [
        {
            "m_antennas": m,
            "mu": mu,
            # echoed for schema compatibility: the least gain is closed-form, so neither
            # the draw count nor the seed changes a value
            "n_random_draws": params["n_draws"],
            "seed": seed,
            "min_observed_gain": min_gain,
            "bound_gain": bound,
            "holds": True,  # drift_bound_check raises ArithmeticError otherwise
        }
        for mu, (min_gain, bound) in zip(mus, drift_bound_check(m, mus))
    ]
    lines = [
        f"mu={r['mu']}: min gain {r['min_observed_gain']:.6f} vs bound {r['bound_gain']:.6f}"
        for r in reports
    ]
    return {"reports": reports}, {"reports": reports}, lines


def _run_fresnel(params: dict, seed: int):
    frequency_hz = params["freq_ghz"] * 1e9
    _blame("freq_ghz", wavelength_m, frequency_hz)
    radius = _blame("d1", fresnel_radius, params["d1"], params["d2"], frequency_hz)
    record = {
        "d1_m": params["d1"],
        "d2_m": params["d2"],
        "frequency_hz": frequency_hz,
        "radius_m": radius,
    }
    return record, {"radius_m": radius}, [f"fresnel radius = {_fixed_text(radius, 3)} m"]


def _run_linkbudget(params: dict, seed: int):
    entries = []
    if params["bandwidth_ratio"] > 1:
        entries.append(("wider_noise_bandwidth", bandwidth_snr_delta(params["bandwidth_ratio"])))
    entries += [(k.removeprefix("entry_"), v) for k, v in params.items() if k.startswith("entry_")]
    try:
        total_db = math.fsum(db for _, db in entries)
    except OverflowError as exc:
        raise OverflowError(f"total_db: {exc}") from None
    ledger = {
        "entries": [{"label": label, "db": db} for label, db in entries],
        "total_db": total_db,
    }
    lines = [f"link budget total {_fixed_text(total_db, 2)} dB over {len(entries)} entries"]
    return ledger, {"total_db": total_db}, lines


def _run_estload(params: dict, seed: int):
    # the schema lists exactly estimation_load's parameters
    n_coefficients, rate = _blame("subcarriers_per_block", estimation_load, **params)
    lines = [f"{n_coefficients} coefficients, {rate:.3e} estimates/second"]
    record = {**params, "n_coefficients": n_coefficients, "estimates_per_second": rate}
    return record, {"n_coefficients": n_coefficients}, lines

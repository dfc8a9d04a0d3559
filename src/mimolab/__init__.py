"""Deterministic numerical laboratory for large-array beamforming studies.

Covers frequency-dependent planar-array responses and beam squint, analog/
hybrid/digital beamformer efficiency, statistical channel diagnostics and
the mobility drift bound, Fresnel/Friis link arithmetic, coherence-block
capacity with closed-form MRT rates, and ADC/PA power budgets.  Every
randomized quantity is reproducible from an explicit 64-bit seed.
"""

__version__ = "0.1.0"

from .beamforming import (
    ANALOG,
    DIGITAL,
    HYBRID,
    Beamformer,
    DegenerateEntryWarning,
    SquintCurve,
    analog_weights,
    efficiency,
    hybrid_weights,
    mrt_weights,
    squint_sweep,
)
from .capacity import (
    CapacityScenario,
    CoherenceBlock,
    RatePoint,
    antenna_sweep,
    default_k_grid,
    dl_se_mrt,
    dl_sinr_mrt,
    estimation_quality,
    optimize_users,
    sum_rate,
)
from .channels import (
    DriftBoundReport,
    DriftScenario,
    IidRayleigh,
    RandomChannelSpec,
    drift_bound_check,
    drift_gain,
    favorable_propagation_metric,
    hardening_metric,
    pair_correlation,
    sample_channel,
)
from .geometry import (
    SPEED_OF_LIGHT_M_S,
    ArrayResponse,
    Direction,
    MultipathChannel,
    Path,
    PlanarArray,
    array_response,
    channel_vector,
)
from .hardware import (
    AdcSpec,
    PaSpec,
    adc_array_budget,
    adc_power,
    array_pa_budget,
    pa_dc_power,
)
from .propagation import (
    EstimationLoadSpec,
    FixedArea,
    FixedGain,
    LinkGeometry,
    bandwidth_snr_delta,
    estimation_load,
    fresnel_radius,
    friis_rx_power,
    link_budget_ledger,
    wavelength_m,
)
from .rng import GENERATOR_ALGORITHM, RandomStream, derive_seed

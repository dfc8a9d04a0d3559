"""Deterministic numerical laboratory for large-array beamforming studies.

Covers frequency-dependent planar-array responses and beam squint, analog/
hybrid/digital beamformer efficiency, statistical channel diagnostics and
the mobility drift bound, Fresnel link arithmetic, coherence-block
capacity with closed-form MRT rates, and ADC/PA power budgets.  Every
randomized quantity is reproducible from an explicit 64-bit seed.

The constants that more than one module reads live here, so importing one
loads no other module: ``SPEED_OF_LIGHT_M_S`` (``geometry``, ``propagation``)
and ``MAX_DRIFT_FRACTION`` (``propagation`` and the mobility schema of ``cli``).
"""

__version__ = "0.1.0"

SPEED_OF_LIGHT_M_S = 299792458.0
MAX_DRIFT_FRACTION = 0.125  # the gain bound chain only applies up to 1/8 wavelength

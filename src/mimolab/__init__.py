"""Deterministic numerical laboratory for large-array beamforming studies.

Covers frequency-dependent planar-array responses and beam squint, analog/
hybrid/digital beamformer efficiency, statistical channel diagnostics and
the mobility drift bound, Fresnel link arithmetic, coherence-block
capacity with closed-form MRT rates, and ADC/PA power budgets.  Every
randomized quantity is reproducible from an explicit 64-bit seed.
"""

__version__ = "0.1.0"

"""Deterministic numerical laboratory for large-array beamforming studies.

Covers frequency-dependent planar-array responses and beam squint, analog/
hybrid/digital beamformer efficiency, statistical channel diagnostics and
the mobility drift bound, Fresnel link arithmetic, coherence-block
capacity with closed-form MRT rates, and ADC/PA power budgets.  Every
randomized quantity is reproducible from an explicit 64-bit seed.

What more than one module reads lives here, so importing one loads no other
module: the constants ``SPEED_OF_LIGHT_M_S`` (``geometry``, ``propagation``)
and ``MAX_DRIFT_FRACTION`` (``propagation`` and the mobility schema of
``cli``), and for the experiment runners, which sit beside the library code
they call, ``ValidationError`` (``cli`` re-exports it and maps it to exit 3),
``_blame`` and ``_fixed_text``.  The runners take them from here, not from
``cli``, which ``python -m mimolab.cli`` runs as ``__main__``: importing
``mimolab.cli`` there would load a second copy of it.
"""

__version__ = "0.1.0"

SPEED_OF_LIGHT_M_S = 299792458.0
MAX_DRIFT_FRACTION = 0.125  # the gain bound chain only applies up to 1/8 wavelength


class ValidationError(Exception):
    """Invalid input: the message leads with the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")


def _blame(field: str, call, *args, note: str = "", **kwargs):
    """call(*args, **kwargs); a ValueError or OverflowError it raises names field as bad input.

    For the library checks that relate several parameters, which no schema bound expresses.
    """
    try:
        return call(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        raise ValidationError(field, f"{exc}{note}") from None


def _fixed_text(value: float, decimals: int) -> str:
    """A number for stdout: fixed point below magnitude 1e9, scientific from there up."""
    return f"{value:.{decimals}{'f' if abs(value) < 1e9 else 'e'}}"

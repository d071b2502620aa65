"""Prototype filter design for the multicarrier modems.

Provides the PHYDYAS frequency-sampling filter used by the filter-bank
waveforms and the rectangular pulse used by OFDM, each as a plain float
array of real, unit-energy impulse-response coefficients.
"""

import numpy as np

# Frequency-domain sampling coefficients of the PHYDYAS filter, indexed by
# overlapping factor.  Only the positive-frequency half is listed; the design
# is symmetric.
_FREQ_COEFFS = {
    1: (1.0,),
    2: (1.0, np.sqrt(2.0) / 2.0),
    3: (1.0, 0.91143783, 0.41143783),
    4: (1.0, 0.97195983, np.sqrt(2.0) / 2.0, 0.23514695),
}
PHYDYAS_OVERLAPS = tuple(sorted(_FREQ_COEFFS))


def phydyas(subcarriers: int, overlap: int = 4) -> np.ndarray:
    """PHYDYAS frequency-sampling prototype of length ``overlap * subcarriers + 1``.

    The impulse response is built by summing the frequency samples with
    alternating signs, which centers the main lobe at the middle of the
    filter, and is then scaled to unit energy.
    """
    if subcarriers < 2 or subcarriers % 2 != 0:
        raise ValueError(f"subcarriers must be even and >= 2, got {subcarriers}")
    if overlap not in _FREQ_COEFFS:
        raise ValueError(
            f"no frequency-sampling coefficients for overlap {overlap}; "
            f"supported: {PHYDYAS_OVERLAPS}"
        )
    span = overlap * subcarriers
    n = np.arange(span + 1)
    coeffs = _FREQ_COEFFS[overlap]
    p = np.full(span + 1, coeffs[0], dtype=float)
    for l in range(1, overlap):
        p += 2.0 * (-1) ** l * coeffs[l] * np.cos(2.0 * np.pi * l * n / span)
    p /= np.linalg.norm(p)
    return p


def rectangular(subcarriers: int) -> np.ndarray:
    """Length-``subcarriers`` rectangular pulse with unit energy."""
    if subcarriers < 1:
        raise ValueError(f"subcarriers must be >= 1, got {subcarriers}")
    return np.full(subcarriers, 1.0 / np.sqrt(subcarriers))


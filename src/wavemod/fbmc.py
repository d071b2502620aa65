"""FBMC-OQAM: Linear GFDM cut to its support.

Each subcarrier/time-slot pair gets two pulses: the in-phase pulse at offset
m*K and the quadrature pulse delayed by half a symbol period.  The burst is
the superposition of all pulses weighted by the real and imaginary symbol
parts; the receiver correlates against the same pulses.  Those pulses are
exactly the columns of the Linear GFDM matrix pair over its first
``burst_length`` rows, so the FBMC modem is that pair cut to its support and
run through ``gfdm.oqam_modulate``/``oqam_demodulate``.

``synthesis_pulse`` builds one pulse directly from its definition; it is the
independent brute-force oracle that the matrix modems are tested against.
"""

from dataclasses import replace

import numpy as np

from .gfdm import OqamMatrixSet
from .linear import build_linear_matrices
from .prototypes import PrototypeFilter


def burst_length(p: PrototypeFilter, subcarriers: int, m_symbols: int) -> int:
    return p.length + (2 * m_symbols - 1) * subcarriers // 2


def synthesis_pulse(
    k: int,
    m: int,
    part: str,
    p: PrototypeFilter,
    subcarriers: int,
    length: int | None = None,
) -> np.ndarray:
    """Shifted, subcarrier-modulated, quarter-turn-rotated prototype pulse.

    ``part`` selects the in-phase ("I") or quadrature ("Q") pulse; the latter
    is the prototype delayed by an extra K/2 samples.  The modulating
    exponential runs over the absolute sample index.
    """
    if not 0 <= k < subcarriers:
        raise ValueError(f"subcarrier index {k} out of range [0, {subcarriers})")
    if part not in ("I", "Q"):
        raise ValueError(f"part must be 'I' or 'Q', got {part!r}")
    offset = m * subcarriers + (subcarriers // 2 if part == "Q" else 0)
    if length is None:
        length = offset + p.length
    pulse = np.zeros(length, dtype=complex)
    stop = min(length, offset + p.length)
    pulse[offset:stop] = p.coefficients[: stop - offset]
    n = np.arange(length)
    pulse *= np.exp(2j * np.pi * k * n / subcarriers) * np.exp(1j * np.pi * k / 2)
    return pulse


def build_fbmc_matrices(p: PrototypeFilter, subcarriers: int, m_symbols: int) -> OqamMatrixSet:
    """Synthesis bank of a burst of ``m_symbols`` OQAM symbols per subcarrier.

    The Linear GFDM pair with its structural-zero tail rows dropped, so
    ``frame_len == support_len == burst_length(p, subcarriers, m_symbols)``.
    The cut is a row-slice view: copying would briefly hold both pairs.
    """
    mats = build_linear_matrices(p, subcarriers, m_symbols)
    n = mats.support_len
    return replace(mats, a_i=mats.a_i[:n], a_q=mats.a_q[:n])

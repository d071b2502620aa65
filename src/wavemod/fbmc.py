"""FBMC-OQAM: Linear GFDM cut to its support.

Each subcarrier/time-slot pair gets two pulses: the in-phase pulse at offset
m*K and the quadrature pulse delayed by half a symbol period.  The burst is
the superposition of all pulses weighted by the real and imaginary symbol
parts; the receiver correlates against the same pulses.  Those pulses are
exactly the Linear GFDM pulses over that set's first ``support_len`` =
len(p) + (2M - 1)K/2 samples, the burst length, so the FBMC modem is the
Linear GFDM set with its frame cut to that support, run through
``gfdm.oqam_modulate``/``oqam_demodulate``.
"""

from dataclasses import replace

from .gfdm import OqamMatrixSet
from .linear import build_linear_matrices
from .prototypes import PrototypeFilter


def build_fbmc_matrices(p: PrototypeFilter, subcarriers: int, m_symbols: int) -> OqamMatrixSet:
    """Synthesis bank of a burst of ``m_symbols`` OQAM symbols per subcarrier.

    The Linear GFDM set without its structural-zero tail, so
    ``frame_len == support_len == len(p) + (2 * m_symbols - 1) * subcarriers // 2``.
    """
    mats = build_linear_matrices(p, subcarriers, m_symbols)
    return replace(mats, frame_len=mats.support_len)

"""Linear GFDM: wrap-free transmit matrices built from a zero-padded prototype.

Padding the prototype so that no column shift ever wraps turns the circular
modem into a linear filter bank: every column has contiguous support, the
frame edges ramp smoothly to zero, and the emitted signal coincides with the
FBMC-OQAM burst for the same data.  The pair is an :class:`OqamMatrixSet`
that ``gfdm.oqam_modulate``/``oqam_demodulate`` serve like the circular one;
FBMC-OQAM is this pair cut to its ``support_len`` rows
(``fbmc.build_fbmc_matrices``).
"""

import numpy as np

from .gfdm import OqamMatrixSet
from .prototypes import PrototypeFilter, linear_pad_length


def build_linear_matrices(p: PrototypeFilter, subcarriers: int, subsymbols: int) -> OqamMatrixSet:
    """Build the wrap-free matrix pair over ``len(p) + pad`` output samples.

    The frame has no cyclic prefix; rows at and past ``support_len`` (the
    FBMC burst length) are zero.

    In-phase columns place the prototype at offset m*K; quadrature columns at
    m*K + K/2.  The subcarrier exponential runs over the absolute sample
    index, matching the FBMC synthesis pulses, so the quadrature columns
    equal the shifted in-phase columns only up to a per-subcarrier sign.
    Every subcarrier also carries the OQAM quarter-turn rotation, which keeps
    neighboring-subcarrier interference purely imaginary in the real decision
    domain.
    """
    if subcarriers % 2 != 0:
        raise ValueError(f"subcarriers must be even, got {subcarriers}")
    lp = p.length
    pad = linear_pad_length(subcarriers, subsymbols)
    n_ext = lp + pad
    max_offset = (subsymbols - 1) * subcarriers + subcarriers // 2
    if max_offset + lp > n_ext:
        raise ValueError(
            f"prototype of length {lp} does not fit the {n_ext}-sample frame"
        )
    n = np.arange(n_ext)
    n_sym = subcarriers * subsymbols
    a_i = np.zeros((n_ext, n_sym), dtype=complex)
    a_q = np.zeros((n_ext, n_sym), dtype=complex)
    carriers = np.exp(2j * np.pi * np.outer(n, np.arange(subcarriers)) / subcarriers)
    carriers = carriers * np.exp(1j * np.pi * np.arange(subcarriers) / 2)[None, :]
    for m in range(subsymbols):
        sl_i = np.zeros(n_ext)
        sl_i[m * subcarriers:m * subcarriers + lp] = p.coefficients
        sl_q = np.zeros(n_ext)
        off = m * subcarriers + subcarriers // 2
        sl_q[off:off + lp] = p.coefficients
        cols = slice(m * subcarriers, (m + 1) * subcarriers)
        a_i[:, cols] = sl_i[:, None] * carriers
        a_q[:, cols] = sl_q[:, None] * carriers
    return OqamMatrixSet(subcarriers, subsymbols, a_i, a_q, support_len=max_offset + lp)

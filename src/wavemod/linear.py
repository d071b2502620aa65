"""Linear GFDM: the wrap-free OQAM filter bank of a zero-padded prototype.

Padding the prototype so that no subsymbol shift ever wraps turns the
circular modem into a linear filter bank: every pulse has contiguous
support, the frame edges ramp smoothly to zero, and the emitted signal
coincides with the FBMC-OQAM burst for the same data.  The set is an
:class:`OqamMatrixSet` whose per-residue band has room for every pulse's
tail, so ``gfdm.oqam_modulate``/``oqam_demodulate`` filter linearly;
FBMC-OQAM is this set cut to its ``support_len`` samples
(``fbmc.build_fbmc_matrices``).
"""

import numpy as np

from .gfdm import OqamMatrixSet, oqam_set, polyphase
from .prototypes import PrototypeFilter, linear_pad_length


def build_linear_matrices(p: PrototypeFilter, subcarriers: int, subsymbols: int) -> OqamMatrixSet:
    """Wrap-free OQAM set over ``len(p) + pad`` output samples.

    The frame has no cyclic prefix; samples at and past ``support_len`` (the
    FBMC burst length) are zero.

    In-phase pulses place the prototype at offset m*K; quadrature pulses at
    m*K + K/2, so the Q rows are those of the prototype delayed by K/2.  The
    subcarrier exponential runs over the absolute sample index, matching the
    FBMC synthesis pulses.  Every subcarrier also carries the OQAM
    quarter-turn rotation, which keeps neighboring-subcarrier interference
    purely imaginary in the real decision domain.
    """
    if subcarriers % 2 != 0:
        raise ValueError(f"subcarriers must be even, got {subcarriers}")
    lp = p.length
    half = subcarriers // 2
    n_ext = lp + linear_pad_length(subcarriers, subsymbols)
    taps = -(-(lp + half) // subcarriers)
    rows = np.stack([
        polyphase(p.coefficients, subcarriers, taps),
        polyphase(np.concatenate([np.zeros(half), p.coefficients]), subcarriers, taps),
    ])
    support_len = (subsymbols - 1) * subcarriers + half + lp
    return oqam_set(rows, subsymbols, -(-n_ext // subcarriers), False, support_len, n_ext)

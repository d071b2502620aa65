"""Gray-mapped square QAM constellations."""

import numpy as np

_SUPPORTED_ORDERS = (4, 16, 64)


def _bits_per_axis(order: int) -> int:
    if order not in _SUPPORTED_ORDERS:
        raise ValueError(f"unsupported QAM order {order}; supported: {_SUPPORTED_ORDERS}")
    return int(np.log2(order)) // 2


def _axis_levels(order: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-axis amplitude levels, their Gray labels and the energy scale.

    Level index i carries Gray label i ^ (i >> 1) and amplitude
    (L - 1 - 2*i) * scale, so the all-zero label sits at the largest
    positive amplitude and neighboring levels differ in exactly one bit.
    """
    nb = _bits_per_axis(order)
    nlev = 1 << nb
    idx = np.arange(nlev)
    labels = idx ^ (idx >> 1)
    scale = np.sqrt(3.0 / (2.0 * (nlev ** 2 - 1)))
    amps = (nlev - 1 - 2 * idx) * scale
    return amps, labels, scale


def qam_map(bits, order: int) -> np.ndarray:
    """Map a bit sequence to Gray-labeled unit-average-energy QAM symbols.

    Each symbol consumes log2(order) bits: the first half selects the
    in-phase level, the second half the quadrature level, MSB first.
    """
    bits = np.asarray(bits, dtype=np.int64).ravel()
    nb = _bits_per_axis(order)
    bps = 2 * nb
    if len(bits) % bps != 0:
        raise ValueError(f"bit count {len(bits)} not divisible by {bps}")
    amps, labels, _ = _axis_levels(order)
    amp_by_label = np.empty_like(amps)
    amp_by_label[labels] = amps
    b = bits.reshape(-1, bps)
    weights = 1 << np.arange(nb - 1, -1, -1)
    i_label = b[:, :nb] @ weights
    q_label = b[:, nb:] @ weights
    return amp_by_label[i_label] + 1j * amp_by_label[q_label]


def _demap_axis(values: np.ndarray, order: int) -> np.ndarray:
    """Nearest level per sample; ties go to the smaller Gray label.

    On the uniform grid the nearest level is one of the two levels that
    bracket the amplitude, whose index follows in closed form.  The nearer
    one wins; within 1e-12*(1+|v|) of their midpoint the smaller label does.
    """
    amps, labels, scale = _axis_levels(order)
    lo = np.floor((amps[0] - values) / (2.0 * scale))
    lo = np.clip(lo, 0, len(amps) - 2).astype(np.int64)
    d_lo = np.abs(values - amps[lo])
    d_hi = np.abs(values - amps[lo + 1])
    tol = 1e-12 * (1.0 + np.abs(values))
    lo_near = d_lo <= d_hi + tol
    hi_near = d_hi <= d_lo + tol
    take_lo = lo_near & (~hi_near | (labels[lo] < labels[lo + 1]))
    return np.where(take_lo, labels[lo], labels[lo + 1])


def qam_demap(symbols, order: int) -> np.ndarray:
    """Hard-decision demapping; exact inverse of :func:`qam_map` on grid points."""
    symbols = np.asarray(symbols, dtype=complex).ravel()
    nb = _bits_per_axis(order)
    i_label = _demap_axis(symbols.real, order)
    q_label = _demap_axis(symbols.imag, order)
    shifts = np.arange(nb - 1, -1, -1)
    i_bits = (i_label[:, None] >> shifts) & 1
    q_bits = (q_label[:, None] >> shifts) & 1
    return np.concatenate([i_bits, q_bits], axis=1).ravel()


def constellation(order: int) -> np.ndarray:
    """All constellation points, indexed by their bit label as an integer."""
    nb = _bits_per_axis(order)
    n = 1 << (2 * nb)
    all_bits = ((np.arange(n)[:, None] >> np.arange(2 * nb - 1, -1, -1)) & 1).ravel()
    return qam_map(all_bits, order)

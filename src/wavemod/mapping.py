"""Gray-mapped square QAM constellations, mapped and demapped through small tables.

Each axis has L = 2**nb levels.  Level index i carries Gray label i ^ (i >> 1)
and amplitude (L - 1 - 2*i) * scale, and a symbol's label is its in-phase
label followed by its quadrature label, MSB first.  A simulation draws its
bits as packed bytes and never unpacks them: each byte (or, for 64-QAM,
each twelve bits) indexes a table row that holds the symbols it carries,
and a twin table holds their labels, so mapping and the sent labels of a
bit count are one table lookup per byte.
"""

import functools

import numpy as np

from ._work import BLOCK

QAM_ORDERS = (4, 16, 64)


def _bits_per_axis(order: int) -> int:
    if order not in QAM_ORDERS:
        raise ValueError(f"unsupported QAM order {order}; supported: {QAM_ORDERS}")
    return int(np.log2(order)) // 2


def _axis_levels(order: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-axis amplitude levels, their Gray labels and the energy scale (see the module).

    The all-zero label sits at the largest positive amplitude, and
    neighboring levels differ in exactly one bit.
    """
    nb = _bits_per_axis(order)
    nlev = 1 << nb
    idx = np.arange(nlev)
    labels = idx ^ (idx >> 1)
    scale = np.sqrt(3.0 / (2.0 * (nlev ** 2 - 1)))
    amps = (nlev - 1 - 2 * idx) * scale
    return amps, labels, scale


class _Tables:
    """Read-only tables of one order; :func:`_tables` builds each order once."""

    def __init__(self, order: int):
        nb = _bits_per_axis(order)
        amps, labels, scale = _axis_levels(order)
        amp_by_label = np.empty_like(amps)
        amp_by_label[labels] = amps
        label = np.arange(order)
        q_mask = (1 << nb) - 1
        self.nb = nb  # bits per axis
        # (order,) complex points, by label
        points = amp_by_label[label >> nb] + 1j * amp_by_label[label & q_mask]
        # (2**width, width // bps) labels, then symbols, of every MSB-first group of packed bits
        bps, width = 2 * nb, 12 if order == 64 else 8
        groups = (np.arange(1 << width)[:, None] >> np.arange(width - bps, -1, -bps)) & (order - 1)
        self.packed_labels = groups.astype(np.uint8)
        self.packed = points[groups]
        self.scale = float(scale)
        # A tie lies within 1e-12*(1+|v|) in distance of a midpoint, where
        # |v| <= amps[0]; a distance difference is 4*scale per level unit.
        # Demapping re-decides samples within twice that band.
        self.tie_band = 2.0 * 1e-12 * (1.0 + amps[0]) / (4.0 * scale)
        for table in (self.packed, self.packed_labels):
            table.setflags(write=False)


_tables = functools.cache(_Tables)


def _entries(packed: np.ndarray, order: int) -> np.ndarray:
    """Packed-table indices of whole groups of MSB-first packed bytes.

    A byte is one index, except for 64-QAM, where bytes (b0, b1, b2) hold
    the two 12-bit indices b0 b1[7:4] and b1[3:0] b2.
    """
    if order != 64:
        return packed
    b = packed.reshape(-1, 3)
    idx = np.empty((len(b), 2), dtype=np.uint16)
    np.left_shift(b[:, 0], 4, out=idx[:, 0], dtype=np.uint16)
    idx[:, 0] |= b[:, 1] >> 4
    np.bitwise_and(b[:, 1], 0xF, out=idx[:, 1], dtype=np.uint16)
    idx[:, 1] <<= 8
    idx[:, 1] |= b[:, 2]
    return idx.ravel()


def map_packed(packed, order: int, n_symbols: int, out=None) -> np.ndarray:
    """The first ``n_symbols`` Gray-mapped symbols carried by MSB-first packed bits.

    ``packed`` is a uint8 array of at least ceil(n_symbols * log2(order) /
    8) bytes; bits past the last symbol's are ignored.  Each group of bytes
    indexes the packed table, whose entry holds its symbols; a last group
    cut short is zero-filled.  The symbols go to ``out``, of shape
    (n_symbols,), if given.
    """
    table = _tables(order).packed
    if out is None:
        out = np.empty(n_symbols, dtype=complex)
    return _unpack(table, packed, order, n_symbols, out)


def packed_labels(packed, order: int, n_symbols: int, out=None) -> np.ndarray:
    """The uint8 labels of the symbols :func:`map_packed` maps from the same bytes.

    The labels go to ``out``, of shape (n_symbols,), if given.
    """
    table = _tables(order).packed_labels
    if out is None:
        out = np.empty(n_symbols, dtype=np.uint8)
    return _unpack(table, packed, order, n_symbols, out)


def _unpack(table, packed, order: int, n_symbols: int, out) -> np.ndarray:
    """``out`` filled from ``table``, indexed by the groups of the MSB-first ``packed`` bits."""
    bps = int(np.log2(order))
    per_entry = table.shape[1]
    group = 3 if order == 64 else 1  # bytes per group of whole entries
    per_group = 8 * group // bps  # symbols per group
    packed = np.asarray(packed, dtype=np.uint8)
    if 8 * len(packed) < n_symbols * bps:
        raise ValueError(f"{len(packed)} bytes do not hold {n_symbols} symbols of order {order}")
    whole, rest = divmod(n_symbols, per_group)
    rows = out[: whole * per_group].reshape(-1, per_entry)
    step = BLOCK - BLOCK % group
    for lo in range(0, whole * group, step):
        entries = _entries(packed[lo:min(lo + step, whole * group)], order)
        first = lo * per_group // group // per_entry
        # Every index is in range: "clip" mode writes ``out`` directly, "raise" buffers.
        np.take(table, entries, axis=0, out=rows[first:first + len(entries)], mode="clip")
    if rest:
        last = np.zeros(group, dtype=np.uint8)
        tail = packed[whole * group:(whole + 1) * group]
        last[: len(tail)] = tail
        out[whole * per_group:] = table[_entries(last, order)].ravel()[:rest]
    return out


def _demap_axis(values: np.ndarray, order: int) -> np.ndarray:
    """Gray label of the nearest level per sample, as uint8; ties go to the smaller label.

    In level units t = (L - 1 - v/scale) / 2, level i sits at t = i, so the
    nearest level is rint(t) clipped to [0, L - 1], and its Gray label is
    i ^ (i >> 1).  Within 1e-12*(1+|v|) in distance of a midpoint, that is
    tol / (4*scale) in t, the smaller Gray label wins.  ``rint`` rounds
    halves to even, so samples within twice that band of a half-integer t
    are decided again by the distance rule: the two levels that bracket the
    amplitude, their distances and the tolerance.  A sample that is not
    finite fails the same band test and raises a bare ValueError.
    """
    tables = _tables(order)
    top = (1 << tables.nb) - 1
    t = values * (-0.5 / tables.scale)
    t += 0.5 * top
    level = np.rint(t)
    t -= level
    np.abs(t, out=t)
    # NaN fails every comparison, so a sample that is not finite is taken out too.
    decided = 0.5 - tables.tie_band
    again = None if t.max() < decided else np.flatnonzero(~(t < decided))
    if again is not None and not np.isfinite(values[again]).all():
        raise ValueError  # demap_labels names the symbol
    np.clip(level, 0, top, out=level)
    labels = level.astype(np.uint8)
    labels ^= labels >> 1
    if again is not None:
        labels[again] = _nearest_label(values[again], order)
    return labels


def _nearest_label(values: np.ndarray, order: int) -> np.ndarray:
    """The distance rule between the two levels that bracket each amplitude."""
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


def demap_labels(symbols, order: int, out=None) -> np.ndarray:
    """Hard-decision uint8 labels of ``symbols``, (in-phase label << nb) | quadrature label.

    Each axis takes the Gray label of its nearest level, and a tie between
    two levels goes to the smaller label (:func:`_demap_axis`).  Both axes
    are decided in one pass over the symbols' interleaved (re, im) float
    view, :data:`BLOCK` values at a time.  The labels go to ``out``, of
    shape (n_symbols,), if given.  Raises ValueError on a symbol that is not
    finite.
    """
    tables = _tables(order)
    symbols = np.ascontiguousarray(symbols, dtype=complex).ravel()
    values = symbols.view(float)
    if out is None:
        out = np.empty(len(symbols), dtype=np.uint8)
    with np.errstate(invalid="ignore"):  # inf - inf, for an infinite sample
        for lo in range(0, values.size, BLOCK):
            try:
                axes = _demap_axis(values[lo:lo + BLOCK], order)
            except ValueError:
                block = symbols[lo // 2:(lo + BLOCK) // 2]
                i = int(np.flatnonzero(~np.isfinite(block))[0])
                raise ValueError(
                    f"symbols must be finite, got {block[i].item()!r} at index {lo // 2 + i}"
                ) from None
            labels = out[lo // 2:(lo + BLOCK) // 2]
            np.left_shift(axes[0::2], tables.nb, out=labels)
            labels |= axes[1::2]
    return out

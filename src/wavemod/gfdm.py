"""Circular GFDM matrix modem, the OQAM modem core and cyclic-prefix handling.

The modem is kept at matrix level on purpose: the transmit matrix columns are
circularly shifted, subcarrier-modulated copies of the prototype filter, and
the receiver matrices (zero-forcing, matched filter, MMSE) are derived
directly from the transmit matrix.

``oqam_modulate``/``oqam_demodulate`` are the one OQAM modem of the library:
they serve any :class:`OqamMatrixSet`, whether circular (built here), linear
(``linear.build_linear_matrices``) or linear cut to its support (FBMC,
``fbmc.build_fbmc_matrices``).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .prototypes import PrototypeFilter


@dataclass(frozen=True)
class GfdmMatrixSet:
    """Transmit matrix ``a`` of a circular GFDM frame (K subcarriers, M subsymbols)."""

    subcarriers: int
    subsymbols: int
    a: np.ndarray

    @property
    def frame_len(self) -> int:
        return self.subcarriers * self.subsymbols


@dataclass(frozen=True)
class OqamMatrixSet:
    """OQAM transmit matrix pair: real symbol parts ride on ``a_i``, imaginary on ``a_q``.

    The matrices have ``frame_len`` rows and K*M columns, symbol (k, m) in
    column m*K + k.  ``support_len`` is the index one past the last row that
    can carry signal; later rows are structural zeros.
    """

    subcarriers: int
    subsymbols: int
    a_i: np.ndarray
    a_q: np.ndarray
    support_len: int

    @property
    def frame_len(self) -> int:
        return self.a_i.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.subcarriers * self.subsymbols

    @cached_property
    def gains(self) -> tuple[np.ndarray, np.ndarray]:
        """Column energies ``|a_i|^2``, ``|a_q|^2``: the matched filter's per-symbol gains."""
        return np.sum(np.abs(self.a_i) ** 2, axis=0), np.sum(np.abs(self.a_q) ** 2, axis=0)


@dataclass(frozen=True)
class ReceiverMatrix:
    b: np.ndarray
    kind: str
    bias: np.ndarray | None = None  # per-symbol gain, MMSE only


def _wrap_prototype(p: PrototypeFilter, n: int) -> np.ndarray:
    """Fold the prototype into length ``n`` by additive wrapping modulo n."""
    g = np.zeros(n)
    coeffs = p.coefficients
    for start in range(0, len(coeffs), n):
        chunk = coeffs[start:start + n]
        g[: len(chunk)] += chunk
    return g


def _column_block(g: np.ndarray, subcarriers: int, phase: bool) -> np.ndarray:
    """Columns for one subsymbol shift: g modulated to every subcarrier.

    ``phase`` adds the OQAM quarter-turn rotation per subcarrier, which makes
    neighboring-subcarrier interference purely imaginary in the real decision
    domain; without it the offset mapping loses its orthogonality.
    """
    n = np.arange(len(g))
    k = np.arange(subcarriers)
    cols = g[:, None] * np.exp(2j * np.pi * np.outer(n, k) / subcarriers)
    if phase:
        cols = cols * np.exp(1j * np.pi * k / 2)[None, :]
    return cols


def build_gfdm_matrix(p: PrototypeFilter, subcarriers: int, subsymbols: int) -> GfdmMatrixSet:
    """Dense N x N transmit matrix, N = K*M, column order k fastest then m."""
    n = subcarriers * subsymbols
    if n == 0:
        raise ValueError("subcarriers * subsymbols must be positive")
    g = _wrap_prototype(p, n)
    a = np.empty((n, n), dtype=complex)
    for m in range(subsymbols):
        a[:, m * subcarriers:(m + 1) * subcarriers] = _column_block(
            np.roll(g, m * subcarriers), subcarriers, phase=False
        )
    return GfdmMatrixSet(subcarriers=subcarriers, subsymbols=subsymbols, a=a)


def build_oqam_matrices(p: PrototypeFilter, subcarriers: int, subsymbols: int) -> OqamMatrixSet:
    """Circular OQAM matrix pair; the quadrature columns are rolled by K/2 samples."""
    if subcarriers % 2 != 0:
        raise ValueError(f"subcarriers must be even for OQAM, got {subcarriers}")
    n = subcarriers * subsymbols
    g = _wrap_prototype(p, n)
    a_i = np.empty((n, n), dtype=complex)
    for m in range(subsymbols):
        a_i[:, m * subcarriers:(m + 1) * subcarriers] = _column_block(
            np.roll(g, m * subcarriers), subcarriers, phase=True
        )
    a_q = np.roll(a_i, subcarriers // 2, axis=0)
    return OqamMatrixSet(subcarriers, subsymbols, a_i, a_q, support_len=n)


def gfdm_modulate(mats: GfdmMatrixSet, d) -> np.ndarray:
    d = np.asarray(d, dtype=complex)
    if d.shape[0] != mats.frame_len:
        raise ValueError(f"expected {mats.frame_len} symbols, got {d.shape[0]}")
    return mats.a @ d


def build_receiver(mats: GfdmMatrixSet, kind: str, noise_var: float = 0.0) -> ReceiverMatrix:
    """ZF, MF or MMSE receiver matrix for the plain GFDM modem.

    All three act on a ZF-equalized frame.  The MMSE matrix weighs the
    transmit matrix against ``noise_var``; its multiplicative bias is removed
    at demodulation using the stored per-symbol gain.
    """
    a = mats.a
    kind = kind.upper()
    if kind == "ZF":
        return ReceiverMatrix(b=np.linalg.inv(a), kind="ZF")
    if kind == "MF":
        return ReceiverMatrix(b=a.conj().T, kind="MF")
    if kind == "MMSE":
        if noise_var is None or noise_var < 0:
            raise ValueError("MMSE requires noise_var >= 0")
        n = mats.frame_len
        b = np.linalg.solve(noise_var * np.eye(n, dtype=complex) + a.conj().T @ a, a.conj().T)
        bias = np.diag(b @ a).copy()
        return ReceiverMatrix(b=b, kind="MMSE", bias=bias)
    raise ValueError(f"unknown receiver kind {kind!r}")


def gfdm_demodulate(rx: ReceiverMatrix, y) -> np.ndarray:
    y = np.asarray(y, dtype=complex)
    if y.shape[0] != rx.b.shape[1]:
        raise ValueError(f"expected {rx.b.shape[1]} samples, got {y.shape[0]}")
    d_hat = rx.b @ y
    if rx.kind == "MMSE":
        d_hat = d_hat / rx.bias
    return d_hat


def oqam_modulate(mats: OqamMatrixSet, d) -> np.ndarray:
    """Frame of ``frame_len`` samples per column of ``d`` (K*M symbols)."""
    d = np.asarray(d, dtype=complex)
    if d.shape[0] != mats.n_symbols:
        raise ValueError(f"expected {mats.n_symbols} symbols, got {d.shape[0]}")
    return mats.a_i @ d.real + 1j * (mats.a_q @ d.imag)


def oqam_demodulate(mats: OqamMatrixSet, y_eq) -> np.ndarray:
    """Matched-filter OQAM demodulation of an equalized frame, gain-normalized per symbol.

    ``A^H y = conj(A^T conj(y))``: the transposed views of the matrices carry
    the matched filter, so no conjugate copy of them is made.
    """
    y_eq = np.asarray(y_eq, dtype=complex)
    if y_eq.shape[0] != mats.frame_len:
        raise ValueError(f"expected {mats.frame_len} samples, got {y_eq.shape[0]}")
    gain_i, gain_q = mats.gains
    if y_eq.ndim > 1:
        gain_i = gain_i[:, None]
        gain_q = gain_q[:, None]
    y_conj = y_eq.conj()
    re = (mats.a_i.T @ y_conj).real / gain_i
    im = -(mats.a_q.T @ y_conj).imag / gain_q
    return re + 1j * im


def add_cp(x, n_cp: int) -> np.ndarray:
    x = np.asarray(x)
    if not 0 <= n_cp <= len(x):
        raise ValueError(f"n_cp must be in [0, {len(x)}], got {n_cp}")
    if n_cp == 0:
        return x.copy()
    return np.concatenate([x[-n_cp:], x])


def remove_cp(x_cp, n_cp: int) -> np.ndarray:
    x_cp = np.asarray(x_cp)
    if not 0 <= n_cp <= len(x_cp):
        raise ValueError(f"n_cp must be in [0, {len(x_cp)}], got {n_cp}")
    return x_cp[n_cp:].copy()

"""The modem core: one FFT filter bank for all five waveforms.

Write a frame sample as n = r + qK (residue r, block q) and let
D_m = K * IFFT_K(d_{., m}) bring subsymbol m's subcarriers (for OQAM rotated
by j^k) to the time domain.  Every transmitter of the family is then, for
each residue r, a convolution over the subsymbol index with the
prototype's polyphase rows P[s, r] = g[r + sK]:

    x[r + qK] = sum_m P[q - m, r] * D_m[r].

For Linear GFDM and FBMC-OQAM it is linear over the prototype's overlap + 1
taps: the PPN/IFFT filter bank of Siohan, Siclet and Lacaille (IEEE TSP
2002).  For circular GFDM and GFDM-OQAM it is circular over the M blocks of
the K*M-sample frame: the Zak-domain view of Matthe, Mendes and Fettweis
("GFDM in a Gabor transform setting", IEEE Comm. Letters 2014), in which
plain GFDM multiplies by Z = FFT_M(P) and its receivers are per-bin
weights.  CP-OFDM is plain GFDM with M = 1 and the rectangular pulse
(Michailow et al., IEEE Trans. Commun. 2014).  Zero-padding the prototype
(:func:`linear_pad_length`) removes the wrap, so the three OQAM waveforms
are one filter bank: Linear GFDM emits the FBMC-OQAM burst for the same
data, and FBMC is its set cut to ``support_len``.

The OQAM modems apply the convolution as one real matrix per residue and
its transpose as the matched filter.  Both real branches share one complex
transform per subsymbol, by the two-for-one trick for real data (Sorensen,
Jones, Heideman and Burrus, IEEE TASSP 1987): with phi_k = j^k, Z_m =
IFFT_K(phi * d_m) gives u[n] = Z_m[n] and its mirror v[n] = conj Z_m[(K/2 -
n) mod K], and the branches' spreads are D^I = (u + v)/2 and D^Q = (u -
v)/2.  So the GEMM runs on (u, v) against the fused band (B_I + B_Q)/2,
(B_I - B_Q)/2.  The circular sets' Q rotation carries an extra (-1)^k,
which conjugating their odd-k symbols first absorbs.  The receiver is the
exact real adjoint: c = B^T y per residue, w[n] = c_u[n] + conj c_v[(K/2 -
n) mod K], one FFT, conj(phi)/gain per bin, and for circular sets the odd
bins conjugated.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import _work
from .channel import MIN_ZF_BIN

# OQAM quarter-turn rotation j^k of subcarrier k, exact for every k.
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])
_FRAME_BLOCK = 64  # frames per transform pass
RECEIVERS = ("zf", "mf", "mmse")  # the plain GFDM receiver kinds of build_receiver


@dataclass(frozen=True)
class GfdmMatrixSet:
    """Plain circular GFDM of K subcarriers and M subsymbols, symbol (k, m) at d[m*K + k].

    ``zak`` is the (M, K) Zak transform of the prototype wrapped to K*M
    samples: for each residue, the eigenvalues of the circular filter over
    the subsymbols.
    """

    subcarriers: int
    subsymbols: int
    zak: np.ndarray

    @property
    def frame_len(self) -> int:
        return self.subcarriers * self.subsymbols


@dataclass(frozen=True)
class OqamMatrixSet:
    """OQAM transmit pair: real symbol parts ride on the I branch, imaginary on Q.

    ``band`` is the (K, blocks, 2M) fused band the modem multiplies by:
    residue r's columns m and M + m hold (B_I + B_Q)/2 and (B_I - B_Q)/2 of
    subsymbol m, where B_I and B_Q carry each branch's polyphase taps from
    block m on (see :func:`synthesis_band` and the module docstring).
    ``gain`` is the energy of every I and Q pulse, which the matched filter
    divides out.  ``circular`` marks the sets whose Q pulses are the I
    pulses rolled by K/2 in a wrapped frame: their Q rotation carries the
    extra (-1)^k.  ``support_len`` is the index one past the last sample
    that can carry signal; later samples of the ``frame_len``-sample frame
    are structural zeros.
    """

    subcarriers: int
    subsymbols: int
    band: np.ndarray
    gain: float
    circular: bool
    support_len: int
    frame_len: int

    @property
    def n_symbols(self) -> int:
        return self.subcarriers * self.subsymbols


def polyphase(coeffs: np.ndarray, subcarriers: int, taps: int) -> np.ndarray:
    """Rows P[s, r] = g[r + s*K] of ``coeffs`` folded into ``taps * K`` samples.

    Shorter coefficients are zero-filled; longer ones wrap additively, as a
    circular frame of that length sees them.
    """
    g = np.zeros(taps * subcarriers)
    for start in range(0, len(coeffs), len(g)):
        chunk = coeffs[start:start + len(g)]
        g[: len(chunk)] += chunk
    return g.reshape(taps, subcarriers)


def synthesis_band(rows: np.ndarray, subsymbols: int, blocks: int) -> np.ndarray:
    """(K, blocks, B*M) per-residue synthesis matrices of B branches' polyphase rows.

    Column (b, m) of residue r holds ``rows[b, :, r]`` from block m on,
    wrapping modulo ``blocks``: a circular frame has exactly M blocks, and a
    linear one has room for the taps' tail, so nothing wraps.
    """
    branches, taps, k = rows.shape
    band = np.zeros((k, blocks, branches, subsymbols))
    for s in range(taps):
        for m in range(subsymbols):
            band[:, (m + s) % blocks, :, m] = rows[:, s].T
    return band.reshape(k, blocks, branches * subsymbols)


def build_gfdm_matrix(p: np.ndarray, subcarriers: int, subsymbols: int) -> GfdmMatrixSet:
    """Plain circular GFDM of N = K*M samples, column order k fastest then m."""
    for name, value in (("subcarriers", subcarriers), ("subsymbols", subsymbols)):
        if value < 1:
            raise ValueError(f"{name}: must be >= 1, got {value}")
    zak = np.fft.fft(polyphase(p, subcarriers, subsymbols), axis=0)
    return GfdmMatrixSet(subcarriers, subsymbols, zak)


def linear_pad_length(subcarriers: int, subsymbols: int) -> int:
    """Zeros appended to the prototype to give the Linear GFDM frame, in which no pulse wraps.

    The pad covers the extra half-subcarrier shift of the quadrature pulses.
    """
    if subcarriers < 2 or subcarriers % 2:
        raise ValueError(f"subcarriers: must be even and >= 2 for OQAM, got {subcarriers}")
    if subsymbols < 1:
        raise ValueError(f"subsymbols: must be >= 1, got {subsymbols}")
    return subcarriers * subsymbols - subcarriers // 2 + 1


def _oqam_set(p: np.ndarray, subcarriers: int, subsymbols: int, circular: bool) -> OqamMatrixSet:
    """The circular or linear OQAM set of ``p`` on K subcarriers and M subsymbols.

    The I rows are the prototype's, the Q rows the prototype's delayed by
    K/2.  A circular set folds both into M taps over the M blocks of its
    K*M-sample frame (the delayed prototype wrapped additively is the
    wrapped one rolled by K/2); a linear set gives them ceil((len(p) + K/2)
    / K) taps over the blocks of its ``len(p) + linear_pad_length(K, M)``
    samples.  Every pulse has the energy of the first I pulse; the branch
    bands fuse into (B_I + B_Q)/2 and (B_I - B_Q)/2, written into the two
    halves of one array and halved in place.
    """
    pad = linear_pad_length(subcarriers, subsymbols)  # also checks K and M
    k, m, half = subcarriers, subsymbols, subcarriers // 2
    if circular:
        taps = blocks = m
        support_len = frame_len = k * m
    else:
        taps = -(-(len(p) + half) // k)
        frame_len = len(p) + pad
        blocks = -(-frame_len // k)
        support_len = (m - 1) * k + half + len(p)
    delayed = np.concatenate([np.zeros(half), p])
    rows = np.stack([polyphase(p, k, taps), polyphase(delayed, k, taps)])
    branches = synthesis_band(rows, m, blocks)
    b_i, b_q = np.split(branches, 2, axis=-1)
    gain = float(np.sum(b_i[:, :, 0] ** 2))
    band = np.empty_like(branches)
    np.add(b_i, b_q, out=band[..., :m])
    np.subtract(b_i, b_q, out=band[..., m:])
    band /= 2
    return OqamMatrixSet(k, m, band, gain, circular, support_len, frame_len)


def build_oqam_matrices(p: np.ndarray, subcarriers: int, subsymbols: int) -> OqamMatrixSet:
    """Circular OQAM set of K*M samples; the quadrature pulses are the in-phase ones rolled by K/2.

    The rolled pulse keeps the carrier phase of the unrolled one, so the Q
    rotation carries an extra (-1)^k (``circular``).
    """
    return _oqam_set(p, subcarriers, subsymbols, circular=True)


def build_linear_matrices(p: np.ndarray, subcarriers: int, subsymbols: int) -> OqamMatrixSet:
    """Linear GFDM: the wrap-free OQAM set over ``len(p) + linear_pad_length(K, M)`` samples.

    In-phase pulses place the prototype at offset m*K, quadrature pulses at
    m*K + K/2, and the subcarrier exponential runs over the absolute sample
    index, as in the FBMC synthesis pulses.  The frame has no cyclic
    prefix; samples at and past ``support_len`` (the FBMC burst length) are
    zero.
    """
    return _oqam_set(p, subcarriers, subsymbols, circular=False)


def build_fbmc_matrices(p: np.ndarray, subcarriers: int, m_symbols: int) -> OqamMatrixSet:
    """FBMC-OQAM burst of ``m_symbols`` OQAM symbols per subcarrier: Linear GFDM cut to its support.

    ``frame_len == support_len == len(p) + (2 * m_symbols - 1) * subcarriers // 2``.
    """
    mats = build_linear_matrices(p, subcarriers, m_symbols)
    return replace(mats, frame_len=mats.support_len)


def _framewise(a: np.ndarray, n_out: int, apply, out=None) -> np.ndarray:
    """Run ``apply`` over the (n,) or (frames, n) ``a`` in blocks of frames.

    ``apply(block, dest)`` writes the (frames, n_out) output of a (frames, n)
    block into ``dest``.  Blocks of ``_FRAME_BLOCK`` frames keep every
    temporary and work array near a megabyte whatever the chunk size.  The
    result, shaped (n_out,) or (frames, n_out) as ``a`` is, goes to ``out``
    if given and to a fresh array otherwise.
    """
    rows = a.reshape(-1, a.shape[-1])
    if out is None:
        out = np.empty(a.shape[:-1] + (n_out,), dtype=complex)
    dest = np.reshape(out, (-1, n_out), copy=False)
    for start in range(0, len(rows), _FRAME_BLOCK):
        apply(rows[start:start + _FRAME_BLOCK], dest[start:start + _FRAME_BLOCK])
    return out


def _circular(weights: np.ndarray, blocks: np.ndarray, out: np.ndarray) -> None:
    """Circular filter over the subsymbol axis (-2), given per-bin weights, into ``out``.

    ``out`` may be ``blocks``.  Over a single subsymbol the filter is a plain
    scaling.
    """
    if blocks.shape[-2] == 1:
        np.multiply(blocks, weights, out=out)
        return
    np.fft.fft(blocks, axis=-2, out=out)
    out *= weights
    np.fft.ifft(out, axis=-2, out=out)


def gfdm_modulate(mats: GfdmMatrixSet, d, out=None) -> np.ndarray:
    """Frame of K*M samples per row of ``d`` (K*M symbols), written into ``out`` if given."""
    d = np.asarray(d, dtype=complex)
    if d.shape[-1] != mats.frame_len:
        raise ValueError(f"expected {mats.frame_len} symbols, got {d.shape[-1]}")
    k, m = mats.subcarriers, mats.subsymbols

    def synthesize(sym, dest):
        spread = np.reshape(dest, (len(sym), m, k), copy=False)
        np.fft.ifft(sym.reshape(len(sym), m, k), axis=-1, norm="forward", out=spread)
        _circular(mats.zak, spread, spread)

    return _framewise(d, mats.frame_len, synthesize, out)


def build_receiver(mats: GfdmMatrixSet, kind: str, noise_var: float = 0.0) -> np.ndarray:
    """ZF, MF or MMSE receiver for the plain GFDM modem, as (M, K) Zak-domain weights.

    All three act on a ZF-equalized frame.  For the transmit matrix A with
    Zak transform Z, ZF is A^-1 (weights 1/(K Z)), MF is A^H (conj Z) and
    MMSE is (noise_var I + A^H A)^-1 A^H (conj Z / (noise_var + K |Z|^2)).
    The MMSE estimate's multiplicative bias is the same for every symbol,
    mean(K |Z|^2 / (noise_var + K |Z|^2)), and is divided out here.  ZF
    raises ``np.linalg.LinAlgError`` when a Zak bin falls below
    ``MIN_ZF_BIN`` relative to the largest: the matrix is then singular.
    ``kind`` is one of :data:`RECEIVERS`, spelled as there.
    """
    z, k = mats.zak, mats.subcarriers
    if kind == "zf":
        mags = np.abs(z)
        worst = np.unravel_index(int(np.argmin(mags)), mags.shape)
        if mags[worst] < MIN_ZF_BIN * mags.max():
            raise np.linalg.LinAlgError(
                f"singular GFDM matrix: Zak bin (subsymbol bin {worst[0]}, residue "
                f"{worst[1]}) is {mags[worst] / mags.max():.1e} of the largest"
            )
        return 1.0 / (k * z)
    if kind == "mf":
        return z.conj()
    if kind == "mmse":
        if noise_var is None or noise_var < 0:
            raise ValueError("MMSE requires noise_var >= 0")
        power = k * np.abs(z) ** 2
        bias = np.mean(power / (noise_var + power))
        return z.conj() / ((noise_var + power) * bias)
    raise ValueError(f"unknown receiver kind {kind!r}; one of {RECEIVERS}")


def gfdm_demodulate(weights: np.ndarray, y, out=None) -> np.ndarray:
    """Symbols of each row of ``y`` (K*M samples) under :func:`build_receiver` weights."""
    y = np.asarray(y, dtype=complex)
    m, k = weights.shape
    if y.shape[-1] != m * k:
        raise ValueError(f"expected {m * k} samples, got {y.shape[-1]}")

    def analyze(rows, dest):
        blocks = np.reshape(dest, (len(rows), m, k), copy=False)
        _circular(weights, rows.reshape(len(rows), m, k), blocks)
        np.fft.fft(blocks, axis=-1, out=blocks)

    return _framewise(y, m * k, analyze, out)


def _mirror(subcarriers: int) -> tuple[tuple[slice, slice], ...]:
    """(dst, src) slices of a K-point axis, pairing entry n with (K/2 - n) mod K."""
    half = subcarriers // 2
    return (slice(0, half + 1), slice(half, None, -1)), (slice(half + 1, None), slice(None, half, -1))


def _gemm(band: np.ndarray, cols: np.ndarray, prod: np.ndarray) -> None:
    """Real (K, out, c) per-residue matrices times complex (K, c, frames) columns, into ``prod``.

    The columns enter as interleaved (re, im) pairs, so the product runs as
    one batched real GEMM.  Either operand may be a strided view of a
    block-major array; BLAS is given the strides, and the bits stay those
    of contiguous operands of the same shapes.
    """
    np.matmul(band, cols.view(np.float64), out=prod.view(np.float64))


def oqam_products(mats: OqamMatrixSet, d: np.ndarray):
    """Yield (first frame, product) per ``_FRAME_BLOCK`` rows of the (frames, K*M) symbols ``d``.

    The product is a block-major (blocks, K, frames) array in the work area,
    blocks being ``mats.band.shape[1]``: frame j's sample r + qK lands at
    ``prod[q, r, j]``, and entries past ``frame_len`` are zero.  The next
    block overwrites it.  Z is written subsymbol-major into the product's
    buffer, copied into the (K, 2M, frames) GEMM input one transposed tile
    per subsymbol, and the GEMM writes the product through a strided view
    (see :func:`_gemm`).  The GEMM's bits depend on how many frames it runs
    at once, so every caller runs the same blocks.
    """
    k, m = mats.subcarriers, mats.subsymbols
    spread = _QUARTER_TURNS[np.arange(k) % 4]
    if mats.circular:
        spread[1::2] = spread[1::2].conj()
    work = _work.area()
    for lo in range(0, len(d), _FRAME_BLOCK):
        sym = d[lo:lo + _FRAME_BLOCK]
        n = len(sym)
        prod = work.get("gfdm.gemm_out", (mats.band.shape[1], k, n))
        z = np.reshape(prod, -1, copy=False)[: m * n * k].reshape(m, n, k)
        np.multiply(sym.reshape(n, m, k).transpose(1, 0, 2), spread, out=z)
        if mats.circular:
            np.negative(z.imag[..., 1::2], out=z.imag[..., 1::2])
        np.fft.ifft(z, axis=-1, norm="forward", out=z)
        cols = work.get("gfdm.gemm_in", (k, 2 * m, n))
        for s in range(m):
            np.copyto(cols[:, s], z[s].T)
        for dst, src in _mirror(k):
            np.conjugate(cols[src, :m], out=cols[dst, m:])
        _gemm(mats.band, cols, prod.transpose(1, 0, 2))
        yield lo, prod


def oqam_modulate(mats: OqamMatrixSet, d, out=None) -> np.ndarray:
    """Frame of ``frame_len`` samples per row of ``d`` (K*M symbols), into ``out`` if given.

    Block q of every frame of a :func:`oqam_products` block is one
    transposed (K, frames) tile of the product, the last cut to the frame.
    """
    d = np.asarray(d, dtype=complex)
    if d.shape[-1] != mats.n_symbols:
        raise ValueError(f"expected {mats.n_symbols} symbols, got {d.shape[-1]}")
    k, n_out = mats.subcarriers, mats.frame_len
    if out is None:
        out = np.empty(d.shape[:-1] + (n_out,), dtype=complex)
    dest = np.reshape(out, (-1, n_out), copy=False)
    for lo, prod in oqam_products(mats, d.reshape(-1, mats.n_symbols)):
        rows = dest[lo:lo + prod.shape[2]]
        for q, c in enumerate(range(0, n_out, k)):
            np.copyto(rows[:, c:c + k], prod[q, : min(k, n_out - c)].T)
    return out


def oqam_demodulate(mats: OqamMatrixSet, y_eq, out=None) -> np.ndarray:
    """Matched-filter OQAM demodulation of an equalized frame, gain-normalized per symbol.

    The adjoint of :func:`oqam_modulate`: the transposed fused band
    correlates the frame with every pulse, the mirrored half folds into the
    direct one, and one FFT per subsymbol returns to the subcarriers, each
    symbol's real part from the I pulses and imaginary part from the Q
    pulses.  The symbols go to ``out`` if given.
    """
    y_eq = np.asarray(y_eq, dtype=complex)
    if y_eq.shape[-1] != mats.frame_len:
        raise ValueError(f"expected {mats.frame_len} samples, got {y_eq.shape[-1]}")
    k, m = mats.subcarriers, mats.subsymbols
    band = mats.band.transpose(0, 2, 1)
    blocks = band.shape[2]
    despread = _QUARTER_TURNS[np.arange(k) % 4].conj() / mats.gain
    work = _work.area()

    def analyze(rows, dest):
        n = len(rows)
        # Block-major input: block q of every frame is one (K, frames) tile,
        # sample r + qK at entry r of tile q, zero past the frame.
        cols = work.get("gfdm.gemm_in", (blocks, k, n))
        for q in range(blocks):
            lo = min(q * k, rows.shape[1])
            hi = min(lo + k, rows.shape[1])
            np.copyto(cols[q, : hi - lo], rows[:, lo:hi].T)
            cols[q, hi - lo:] = 0
        corr = work.get("gfdm.gemm_out", (2 * m, k, n))
        _gemm(band, cols.transpose(1, 0, 2), corr.transpose(1, 0, 2))
        # The mirror folds subsymbol-major, in the spent GEMM input.
        fold = work.get("gfdm.gemm_in", (m, k, n))
        for dst, src in _mirror(k):
            np.conjugate(corr[m:, src], out=fold[:, dst])
        fold += corr[:m]
        w = np.reshape(dest, (n, m, k), copy=False)
        for s in range(m):
            np.copyto(w[:, s], fold[s].T)
        np.fft.fft(w, axis=-1, out=w)
        w *= despread
        if mats.circular:
            np.negative(w.imag[..., 1::2], out=w.imag[..., 1::2])

    return _framewise(y_eq, mats.n_symbols, analyze, out)

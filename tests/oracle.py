"""Dense-matrix oracles for the FFT modem core, and the arithmetic QAM mapper.

Each builder constructs, column by column from its definition, the transmit
or receive matrix that a ``wavemod`` matrix set describes; the tests compare
the core's outputs against products with these matrices.  They are slow and
large (N x N and bigger) on purpose: nothing here shares code with the core.
``qam_map``, ``demap_axis`` and ``qam_demap`` compute Gray labels with integer
arithmetic, bracketing and distance comparisons instead of the package's tables.
``welch_psd`` estimates a whole stream in one call, and ``psd_oneshot`` holds
a PSD run's whole stream at once, frame by frame, before estimating it.
``circular_oqam_set``, ``linear_oqam_set`` and ``fbmc_oqam_set`` are the three
separate constructions the OQAM sets had before one builder made them all:
the wrapped prototype rolled by K/2, the prototype placed at 0 and K/2 in
zeroed blocks, and the linear set with its frame cut to ``support_len``.
``oqam_modulate`` and ``oqam_demodulate`` are the FFT modem's OQAM pair as
it ran before its GEMM operands went block-major: frame-major transforms and
one 3-D transpose on each side of the band GEMM, on fresh arrays; the
modem's outputs must equal theirs bit for bit.
``add_cp`` and ``remove_cp`` build and strip a cyclic prefix by concatenation.
``draw_chunk`` writes out a chunk's draws under RNG scheme chunk-v4, with the
bits unpacked and the noise drawn one sample at a time.
``convolve_rows`` is the reference channel, a time-domain linear convolution,
which the simulator never runs: its zero forcing inverts the channel exactly,
so it adds zero-forced noise to the sent frames instead.
"""

from dataclasses import replace

import numpy as np

from wavemod import TIFS_TAPS, TVFS_GAINS, TVFS_GAINS_CORRECTED, MetricCurve, OqamMatrixSet, sim
from wavemod.gfdm import _FRAME_BLOCK
from wavemod.metrics import WelchAccumulator


def _wrap_prototype(p, n: int) -> np.ndarray:
    """Fold the prototype into length ``n`` by additive wrapping modulo n."""
    g = np.zeros(n)
    for start in range(0, len(p), n):
        chunk = p[start:start + n]
        g[: len(chunk)] += chunk
    return g


def _column_block(g: np.ndarray, subcarriers: int, phase: bool) -> np.ndarray:
    """Columns for one subsymbol shift: g modulated to every subcarrier.

    ``phase`` adds the OQAM quarter-turn rotation per subcarrier.
    """
    n = np.arange(len(g))
    k = np.arange(subcarriers)
    cols = g[:, None] * np.exp(2j * np.pi * np.outer(n, k) / subcarriers)
    if phase:
        cols = cols * np.exp(1j * np.pi * k / 2)[None, :]
    return cols


def build_gfdm_matrix(p, subcarriers: int, subsymbols: int) -> np.ndarray:
    """Dense N x N plain GFDM transmit matrix, N = K*M, column order k fastest then m."""
    n = subcarriers * subsymbols
    g = _wrap_prototype(p, n)
    a = np.empty((n, n), dtype=complex)
    for m in range(subsymbols):
        a[:, m * subcarriers:(m + 1) * subcarriers] = _column_block(
            np.roll(g, m * subcarriers), subcarriers, phase=False
        )
    return a


def build_oqam_matrices(p, subcarriers: int, subsymbols: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense circular OQAM pair (A_i, A_q); the quadrature rows are rolled by K/2."""
    n = subcarriers * subsymbols
    g = _wrap_prototype(p, n)
    a_i = np.empty((n, n), dtype=complex)
    for m in range(subsymbols):
        a_i[:, m * subcarriers:(m + 1) * subcarriers] = _column_block(
            np.roll(g, m * subcarriers), subcarriers, phase=True
        )
    return a_i, np.roll(a_i, subcarriers // 2, axis=0)


def build_linear_matrices(p, subcarriers: int, subsymbols: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense wrap-free OQAM pair over ``len(p) + pad`` rows.

    In-phase columns place the prototype at offset m*K, quadrature columns
    at m*K + K/2, both modulated over the absolute sample index.  The FBMC
    pair is the first ``burst_length`` rows.
    """
    lp = len(p)
    n_ext = lp + subcarriers * subsymbols - subcarriers // 2 + 1
    n = np.arange(n_ext)
    n_sym = subcarriers * subsymbols
    a_i = np.zeros((n_ext, n_sym), dtype=complex)
    a_q = np.zeros((n_ext, n_sym), dtype=complex)
    carriers = np.exp(2j * np.pi * np.outer(n, np.arange(subcarriers)) / subcarriers)
    carriers = carriers * np.exp(1j * np.pi * np.arange(subcarriers) / 2)[None, :]
    for m in range(subsymbols):
        for a, off in ((a_i, m * subcarriers), (a_q, m * subcarriers + subcarriers // 2)):
            pulse = np.zeros(n_ext)
            pulse[off:off + lp] = p
            a[:, m * subcarriers:(m + 1) * subcarriers] = pulse[:, None] * carriers
    return a_i, a_q


def _fused_set(rows, subsymbols: int, blocks: int, circular: bool, support_len: int,
               frame_len: int) -> OqamMatrixSet:
    """The OQAM set of (2, taps, K) I and Q polyphase ``rows`` over ``blocks`` blocks.

    Column (branch, m) of residue r's band holds the branch's taps from block
    m on, modulo ``blocks``; the gain is the first I pulse's energy, and the
    branch bands fuse into (B_I + B_Q)/2 and (B_I - B_Q)/2.
    """
    k = rows.shape[-1]
    branches = np.zeros((k, blocks, 2, subsymbols))
    for s in range(rows.shape[1]):
        for m in range(subsymbols):
            branches[:, (m + s) % blocks, :, m] = rows[:, s].T
    branches = branches.reshape(k, blocks, 2 * subsymbols)
    b_i, b_q = np.split(branches, 2, axis=-1)
    gain = float(np.sum(b_i[:, :, 0] ** 2))
    band = np.empty_like(branches)
    np.add(b_i, b_q, out=band[..., :subsymbols])
    np.subtract(b_i, b_q, out=band[..., subsymbols:])
    band /= 2
    return OqamMatrixSet(k, subsymbols, band, gain, circular, support_len, frame_len)


def circular_oqam_set(p, subcarriers: int, subsymbols: int) -> OqamMatrixSet:
    """Circular set: the I rows wrap the prototype into K*M samples, the Q rows are those rolled by K/2."""
    n = subcarriers * subsymbols
    g = _wrap_prototype(p, n)
    rows = np.stack([g, np.roll(g, subcarriers // 2)]).reshape(2, subsymbols, subcarriers)
    return _fused_set(rows, subsymbols, subsymbols, True, n, n)


def linear_oqam_set(p, subcarriers: int, subsymbols: int) -> OqamMatrixSet:
    """Linear set: the prototype at offsets 0 (I) and K/2 (Q) in zeroed blocks, no wrap.

    The frame holds ``len(p) + K*M - K/2 + 1`` samples, and the band as many
    blocks as cover it.
    """
    half = subcarriers // 2
    taps = -(-(len(p) + half) // subcarriers)
    rows = np.zeros((2, taps * subcarriers))
    rows[0, : len(p)] = p
    rows[1, half:half + len(p)] = p
    n_ext = len(p) + subcarriers * subsymbols - half + 1
    support_len = (subsymbols - 1) * subcarriers + half + len(p)
    return _fused_set(rows.reshape(2, taps, subcarriers), subsymbols,
                      -(-n_ext // subcarriers), False, support_len, n_ext)


def fbmc_oqam_set(p, subcarriers: int, subsymbols: int) -> OqamMatrixSet:
    """The linear set with its frame cut to ``support_len``, the FBMC burst."""
    mats = linear_oqam_set(p, subcarriers, subsymbols)
    return replace(mats, frame_len=mats.support_len)


def _turns(k: int) -> np.ndarray:
    """OQAM rotation j^k of each subcarrier, exact."""
    return np.array([1, 1j, -1, -1j])[np.arange(k) % 4]


def oqam_modulate(mats: OqamMatrixSet, d) -> np.ndarray:
    """(frames, frame_len) frames of (frames, K*M) symbols, through residue-major GEMM operands.

    Per block of ``_FRAME_BLOCK`` frames, as the GEMM's bits depend on its
    width: Z = IFFT_K(phi * d) as (frames, M, K), one 3-D transpose to the
    (K, 2M, frames) input with the mirrored conjugate half, the band GEMM
    into (K, blocks, frames), and one 3-D transpose back to the frames.
    """
    d = np.atleast_2d(np.asarray(d, dtype=complex))
    k, m = mats.subcarriers, mats.subsymbols
    spread = _turns(k)
    if mats.circular:
        spread[1::2] = spread[1::2].conj()
    mirror = (k // 2 - np.arange(k)) % k
    out = np.empty((len(d), mats.frame_len), dtype=complex)
    for lo in range(0, len(d), _FRAME_BLOCK):
        sym = d[lo:lo + _FRAME_BLOCK]
        n = len(sym)
        z = sym.reshape(n, m, k) * spread
        if mats.circular:
            z.imag[..., 1::2] = -z.imag[..., 1::2]
        z = np.fft.ifft(z, axis=-1, norm="forward")
        cols = np.empty((k, 2 * m, n), dtype=complex)
        cols[:, :m] = z.transpose(2, 1, 0)
        cols[:, m:] = cols[mirror, :m].conj()
        prod = np.empty((k, mats.band.shape[1], n), dtype=complex)
        np.matmul(mats.band, cols.view(np.float64), out=prod.view(np.float64))
        out[lo:lo + n] = prod.transpose(2, 1, 0).reshape(n, -1)[:, : mats.frame_len]
    return out


def oqam_demodulate(mats: OqamMatrixSet, y) -> np.ndarray:
    """(frames, K*M) symbols of (frames, frame_len) frames, through residue-major GEMM operands.

    Per block of ``_FRAME_BLOCK`` frames: the zero-padded frames transposed
    to (K, blocks, frames), the transposed band's GEMM into (K, 2M, frames),
    the mirrored conjugate half folded into the direct one, and one FFT per
    subsymbol after a 3-D transpose back to (frames, M, K).
    """
    y = np.atleast_2d(np.asarray(y, dtype=complex))
    k, m = mats.subcarriers, mats.subsymbols
    band = mats.band.transpose(0, 2, 1)
    blocks = band.shape[2]
    despread = _turns(k).conj() / mats.gain
    mirror = (k // 2 - np.arange(k)) % k
    out = np.empty((len(y), k * m), dtype=complex)
    for lo in range(0, len(y), _FRAME_BLOCK):
        rows = y[lo:lo + _FRAME_BLOCK]
        n = len(rows)
        padded = np.zeros((n, blocks * k), dtype=complex)
        padded[:, : rows.shape[1]] = rows
        cols = np.ascontiguousarray(padded.reshape(n, blocks, k).transpose(2, 1, 0))
        corr = np.empty((k, 2 * m, n), dtype=complex)
        np.matmul(band, cols.view(np.float64), out=corr.view(np.float64))
        fold = corr[mirror, m:].conj() + corr[:, :m]
        w = np.fft.fft(fold.transpose(2, 1, 0), axis=-1) * despread
        if mats.circular:
            w.imag[..., 1::2] = -w.imag[..., 1::2]
        out[lo:lo + n] = w.reshape(n, -1)
    return out


def build_receiver(a: np.ndarray, kind: str, noise_var: float = 0.0) -> np.ndarray:
    """Dense ZF, MF or MMSE receiver matrix for the transmit matrix ``a``.

    The MMSE rows are divided by their multiplicative bias diag(B A), so
    every receiver maps a noiseless frame to an unbiased estimate.
    """
    kind = kind.upper()
    if kind == "ZF":
        return np.linalg.inv(a)
    if kind == "MF":
        return a.conj().T
    if kind == "MMSE":
        n = a.shape[1]
        b = np.linalg.solve(noise_var * np.eye(n, dtype=complex) + a.conj().T @ a, a.conj().T)
        return b / np.diag(b @ a)[:, None]
    raise ValueError(f"unknown receiver kind {kind!r}")


def draw_chunk(config, adapter, scenario_id: int, start: int, count: int):
    """(bits, taps, noise) of frames [start, start + count) under RNG scheme chunk-v4.

    One SFC64 generator keyed by (seed, ``scenario_id``, ``start``) draws
    ceil(n_bits / 8) bytes, whose bits MSB first are the (count,
    bits_per_frame) bits; then on TVFS a (2, count, 4) standard normal draw,
    real parts first, scaled to unit complex variance and by the tap gains;
    then the noise, one sample at a time and within a sample one frame at a
    time, as a standard normal real part and then an imaginary part.  The
    noise covers the samples zero forcing reads, a circular frame's K*M core
    or a prefix-free frame's whole received frame (``frame_len + n_taps -
    1`` samples), and is returned frames-first, (count, samples).
    """
    seq = np.random.SeedSequence(entropy=[config.seed & 0xFFFF_FFFF_FFFF_FFFF, scenario_id, start])
    rng = np.random.Generator(np.random.SFC64(seq))
    n_bits = count * adapter.n_data * int(np.log2(config.waveform_params.qam_order))
    packed = np.frombuffer(rng.bytes(-(-n_bits // 8)), np.uint8)
    bits = np.unpackbits(packed)[:n_bits].reshape(count, -1)
    if config.channel == "tvfs":
        gains = TVFS_GAINS_CORRECTED if config.tvfs_corrected else TVFS_GAINS
        parts = rng.standard_normal((2, count, len(gains))) * np.sqrt(0.5)
        taps = gains * (parts[0] + 1j * parts[1])
    else:
        taps = TIFS_TAPS.astype(complex) if config.channel == "tifs" else np.array([1.0 + 0j])
    k, m = sim._grid(config)
    samples = k * m if adapter.circular else adapter.frame_len + taps.shape[-1] - 1
    noise = np.empty((count, samples), dtype=complex)
    for s in range(samples):
        for f in range(count):
            noise[f, s] = complex(*rng.standard_normal(2))
    return bits, taps, noise


def convolve_rows(x, taps) -> np.ndarray:
    """Row-wise full linear convolution of (rows, n) ``x``, (rows, n + n_taps - 1) out.

    ``taps`` is one (n_taps,) vector for every row or (rows, n_taps) per-row taps.
    """
    x = np.asarray(x, dtype=complex)
    taps = np.broadcast_to(np.asarray(taps, dtype=complex), (len(x), np.shape(taps)[-1]))
    return np.array([np.convolve(row, h) for row, h in zip(x, taps)])


def circulant_matrix(taps, n: int) -> np.ndarray:
    """N x N circulant matrix whose first column is the zero-padded taps."""
    taps = np.asarray(taps, dtype=complex)
    if len(taps) > n:
        raise ValueError(f"{len(taps)} taps do not fit a {n}x{n} circulant")
    first = np.zeros(n, dtype=complex)
    first[: len(taps)] = taps
    h = np.empty((n, n), dtype=complex)
    for j in range(n):
        h[:, j] = np.roll(first, j)
    return h


def synthesis_pulse(k: int, m: int, part: str, p, subcarriers: int, length: int | None = None):
    """Shifted, subcarrier-modulated, quarter-turn-rotated FBMC prototype pulse.

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
        length = offset + len(p)
    pulse = np.zeros(length, dtype=complex)
    stop = min(length, offset + len(p))
    pulse[offset:stop] = p[: stop - offset]
    n = np.arange(length)
    pulse *= np.exp(2j * np.pi * k * n / subcarriers) * np.exp(1j * np.pi * k / 2)
    return pulse


def burst_length(p, subcarriers: int, m_symbols: int) -> int:
    return len(p) + (2 * m_symbols - 1) * subcarriers // 2


def pulse_bank(p, k: int, ms: int) -> tuple[np.ndarray, np.ndarray]:
    """FBMC synthesis bank (G_i, G_q): one ``synthesis_pulse`` per column."""
    length = burst_length(p, k, ms)
    gi = np.empty((length, k * ms), dtype=complex)
    gq = np.empty((length, k * ms), dtype=complex)
    for m in range(ms):
        for kk in range(k):
            gi[:, m * k + kk] = synthesis_pulse(kk, m, "I", p, k, length)
            gq[:, m * k + kk] = synthesis_pulse(kk, m, "Q", p, k, length)
    return gi, gq


def fbmc_burst(p, k: int, ms: int, d) -> np.ndarray:
    """FBMC-OQAM burst from its definition: the double sum of synthesis pulses."""
    nb = burst_length(p, k, ms)
    x = np.zeros(nb, dtype=complex)
    for m in range(ms):
        for kk in range(k):
            s = d[m * k + kk]
            x += s.real * synthesis_pulse(kk, m, "I", p, k, nb)
            x += 1j * s.imag * synthesis_pulse(kk, m, "Q", p, k, nb)
    return x


def ofdm_modulate(d, n_fft: int, n_cp: int, active=None) -> np.ndarray:
    """CP-OFDM frames from the definition: symbol i on bin ``active[i]``, unitary IDFT, CP.

    ``d`` holds one frame per column (or one frame); ``active`` defaults to every bin.
    """
    d = np.asarray(d, dtype=complex)
    bins = np.arange(n_fft) if active is None else np.asarray(active)
    spec = np.zeros((n_fft,) + d.shape[1:], dtype=complex)
    spec[bins] = d
    x = np.fft.ifft(spec, axis=0, norm="ortho")
    return np.concatenate([x[n_fft - n_cp:], x])


def welch_loop(x, seg_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided Welch density estimate, one segment at a time, from the definitions.

    Periodic Hann window w[n] = sin^2(pi n / N); segments start every N - N//2
    samples and only whole segments count; each periodogram is |DFT(w x)|^2 /
    sum(w^2), and the estimate is their mean.  Returns (frequencies, PSD), both
    in DFT bin order (not shifted).
    """
    x = np.asarray(x)
    n = np.arange(seg_len)
    w = np.sin(np.pi * n / seg_len) ** 2
    starts = range(0, len(x) - seg_len + 1, seg_len - seg_len // 2)
    total = np.zeros(seg_len)
    for s in starts:
        total += np.abs(np.fft.fft(w * x[s:s + seg_len])) ** 2 / np.sum(w ** 2)
    return (n - seg_len * (n >= (seg_len + 1) // 2)) / seg_len, total / len(starts)


def welch_psd(stream, seg_len: int = 2048, meta: dict | None = None) -> MetricCurve:
    """Welch's estimate: the mean periodogram of half-overlapped periodic-Hann segments.

    No detrending, density scaling 1/(n_seg * sum(w^2)), samples past the last whole
    segment dropped; two-sided and plateau-normalized to 0 dB.  The whole stream
    goes through one :class:`WelchAccumulator`.
    """
    stream = np.ascontiguousarray(stream, dtype=complex)
    if len(stream) < seg_len:
        raise ValueError(f"need at least {seg_len} samples, got {len(stream)}")
    welch = WelchAccumulator(seg_len, len(stream))
    welch.add(stream)
    return welch.curve(meta)


def psd_oneshot(config):
    """``run_psd``'s estimate from its whole stream, materialized before any estimating.

    The frames of every chunk are drawn and transmitted as ``run_psd`` draws
    them, added one frame at a time into one zeroed stream, and the stream
    goes to ``welch_psd`` in a single call.
    """
    wp = config.waveform_params
    if wp.active is None:
        active = sim.psd_default_active(sim._grid(config)[0])
        config = replace(config, waveform_params=replace(wp, active=active))
    adapter = sim.build_adapter(config)
    sid = sim._scenario_id(config)
    stride, frame_len = adapter.stride, adapter.frame_len
    stream = np.zeros((config.frames - 1) * stride + frame_len, dtype=complex)
    chunk = sim._chunk(config)
    for start in range(0, config.frames, chunk):
        count = min(chunk, config.frames - start)
        x = adapter.transmit(sim._draw_chunk(config, adapter, sid, start, count)[0])
        for j in range(count):
            off = (start + j) * stride
            stream[off:off + frame_len] += x[j]
    return welch_psd(stream, seg_len=sim._WELCH_SEGMENT)


def _qam_axis_levels(order: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-axis amplitudes (L - 1 - 2*i) * scale and Gray labels i ^ (i >> 1) of level i."""
    nlev = 1 << (int(np.log2(order)) // 2)
    idx = np.arange(nlev)
    scale = np.sqrt(3.0 / (2.0 * (nlev ** 2 - 1)))
    return (nlev - 1 - 2 * idx) * scale, idx ^ (idx >> 1), scale


def qam_map(bits, order: int) -> np.ndarray:
    """Gray QAM by label arithmetic: the first half of each symbol's bits is the
    in-phase label, the second half the quadrature label, MSB first."""
    bits = np.asarray(bits, dtype=np.int64).ravel()
    nb = int(np.log2(order)) // 2
    amps, labels, _ = _qam_axis_levels(order)
    amp_by_label = np.empty_like(amps)
    amp_by_label[labels] = amps
    b = bits.reshape(-1, 2 * nb)
    weights = 1 << np.arange(nb - 1, -1, -1)
    return amp_by_label[b[:, :nb] @ weights] + 1j * amp_by_label[b[:, nb:] @ weights]


def demap_axis(values: np.ndarray, order: int) -> np.ndarray:
    """Nearest level's Gray label per sample; ties go to the smaller label.

    The two levels that bracket the amplitude follow in closed form; the nearer
    one wins, and within 1e-12*(1+|v|) of their midpoint the smaller label does.
    """
    amps, labels, scale = _qam_axis_levels(order)
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
    """Hard decisions per axis by :func:`demap_axis`, label bits shifted out MSB first."""
    symbols = np.asarray(symbols, dtype=complex).ravel()
    nb = int(np.log2(order)) // 2
    shifts = np.arange(nb - 1, -1, -1)
    i_bits = (demap_axis(symbols.real, order)[:, None] >> shifts) & 1
    q_bits = (demap_axis(symbols.imag, order)[:, None] >> shifts) & 1
    return np.concatenate([i_bits, q_bits], axis=1).ravel()


def add_cp(x, n_cp: int) -> np.ndarray:
    """``x`` behind a copy of its last ``n_cp`` samples."""
    x = np.asarray(x)
    if not 0 <= n_cp <= len(x):
        raise ValueError(f"n_cp must be in [0, {len(x)}], got {n_cp}")
    if n_cp == 0:
        return x.copy()
    return np.concatenate([x[-n_cp:], x])


def remove_cp(x_cp, n_cp: int) -> np.ndarray:
    """``x_cp`` without its first ``n_cp`` samples."""
    x_cp = np.asarray(x_cp)
    if not 0 <= n_cp <= len(x_cp):
        raise ValueError(f"n_cp must be in [0, {len(x_cp)}], got {n_cp}")
    return x_cp[n_cp:].copy()

"""Scenario runner: BER, PSD and PAPR experiments over the five waveforms.

Each run composes the modem (``gfdm``), the channel profiles (``channel``),
the QAM mapping and the instruments (``metrics``), and returns its curve;
it writes no file (the CLI does).  Frames run in chunks sized by the grid
alone, whatever the thread count (``_chunk``: 64 frames up to K*M = 512,
fewer above, so a chunk holds at most 32,768 data symbols unless one frame
holds more; PAPR runs 4 chunks at once), and each chunk draws its bits,
TVFS fades and noise from one SFC64 generator keyed by (seed, metric,
channel, first frame), so results are bit-identical across runs and worker
counts (RNG scheme ``chunk-v4``).
Neither the waveform nor the Eb/N0 point is in the key: waveforms with
equal data sizes see common random numbers, Linear GFDM and FBMC emit the
same samples and meet the same noise, and every point of a BER grid sees
the same draws.  One helper draws and maps a chunk for every instrument
(``_draw_chunk``): the bits stay the packed bytes they are drawn as, map
straight to symbols and give the BER count its sent labels.  The
dataclasses below hold the only defaults (the CLI passes only the settings
it is given), and ``validate`` takes the QAM orders from ``mapping``, the
receiver kinds from ``gfdm`` and the integer fields from the annotations.
A sub-band allocation is held as runs of consecutive active bins, so its
scatter and gather are slice copies.  Zero forcing inverts the channel exactly on every
configuration ``ScenarioConfig.validate`` accepts (see ``channel``), and it
is linear, so a BER chunk zero-forces its noise once for the whole grid
and each point adds that noise, scaled, to the sent frames without
convolving them (``ber_errors``); each point then demodulates, demaps and
counts with its own receiver.  TVFS taps travel as one (frames, n_taps)
array, and a PSD run streams its samples into Welch's estimate chunk by
chunk (``run_psd``).  The PAPR and PSD runs take prefix-free frames (Linear
GFDM, FBMC) in the modem's block-major product, one frame per column, and
never copy them out to frame rows: PAPR reduces the columns, and the PSD
overlap-adds in the product, block by block of the modem's own
(``gfdm.oqam_products``).  All five waveforms share one adapter over the
FFT modem core of ``gfdm``: CP-OFDM is plain GFDM with K = ``n_fft``, M = 1
and the rectangular pulse.  The waveform table picks each one's matrix-set
builder and frame kind (circular with a cyclic prefix, or prefix-free).

Each chunk job borrows a work area (``_work``) and every stage writes its
rows there, from the noise draw to the decided labels, the transmitted
frames too unless the caller gives ``out``; a PSD run borrows one for all
its chunks, and its stream window and Welch batch are its own.  The plain
GFDM receiver's weights cost microseconds, and each demodulation builds
its own.

Set-up loads only what it runs.  ``concurrent.futures`` is imported only
when more than one thread runs (``_parallel_rounds``), and ``import
wavemod`` loads neither it nor numpy's RNG (``numpy.random``); the first
run's first draw loads the RNG, once per process.
"""

import operator
import os
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import _work
from . import channel as chan
from . import gfdm as gfdm_mod
from .mapping import QAM_ORDERS, demap_labels, map_packed, packed_labels
from .metrics import (
    MetricCurve,
    WelchAccumulator,
    default_papr_thresholds,
    papr_batch,
    papr_ccdf,
    theoretical_ber,
)
from .prototypes import PHYDYAS_OVERLAPS, phydyas, rectangular

# waveform -> (matrix builder, circular frame with CP, default prototype)
_MATRIX_MODEMS = {
    "ofdm": (gfdm_mod.build_gfdm_matrix, True, "rect"),
    "gfdm": (gfdm_mod.build_gfdm_matrix, True, "rect"),
    "gfdm_oqam_circular": (gfdm_mod.build_oqam_matrices, True, "phydyas"),
    "linear_gfdm": (gfdm_mod.build_linear_matrices, False, "phydyas"),
    "fbmc": (gfdm_mod.build_fbmc_matrices, False, "phydyas"),
}
WAVEFORMS = tuple(_MATRIX_MODEMS)
CHANNELS = tuple(chan.PROFILE_MEMORY)
METRICS = ("ber", "psd", "papr")

_CHUNK = 64  # most frames per chunk
_CHUNK_SYMBOLS = 32_768  # most data symbols per chunk, unless one frame holds more
RNG_SCHEME = "chunk-v4"  # tags outputs; bump when the draw order, keying or chunking changes
_WELCH_SEGMENT = 2048  # samples per Welch segment; the PSD stream needs one at least


class ConfigError(ValueError):
    """Invalid scenario configuration; the message names the offending field."""


@dataclass(frozen=True)
class WaveformParams:
    qam_order: int = 16
    subcarriers: int = 128
    subsymbols: int = 4
    overlap: int = 4
    prototype: str | None = None  # None = per-waveform default
    cp_len: int = 32
    n_fft: int = 512  # OFDM only
    active: tuple | None = None  # active subcarrier indices; None = all
    receiver: str = "zf"  # plain GFDM receiver kind


@dataclass(frozen=True)
class ScenarioConfig:
    waveform: str
    channel: str = "awgn"
    metric: str = "ber"
    ebn0_grid_db: tuple = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0)
    frames: int = 1000
    seed: int = 0
    waveform_params: WaveformParams = field(default_factory=WaveformParams)
    error_target: int | None = 500
    min_bits: int = 100_000
    tvfs_corrected: bool = False

    def validate(self):
        wp = self.waveform_params
        ints = [(f.name, getattr(obj, f.name)) for obj in (self, wp) for f in fields(obj)
                if f.type in (int, int | None) and getattr(obj, f.name) is not None]
        for key, value in ints + [("active", i) for i in wp.active or ()]:
            try:
                operator.index(value)
            except TypeError:
                raise ConfigError(f"{key}: must be an integer, got {value!r}") from None
        if self.waveform not in WAVEFORMS:
            raise ConfigError(f"waveform: {self.waveform!r} not in {WAVEFORMS}")
        if self.channel not in CHANNELS:
            raise ConfigError(f"channel: {self.channel!r} not in {CHANNELS}")
        if self.metric not in METRICS:
            raise ConfigError(f"metric: {self.metric!r} not in {METRICS}")
        if self.frames < 1:
            raise ConfigError(f"frames: must be >= 1, got {self.frames}")
        for key, value in (("error_target", self.error_target or 0), ("min_bits", self.min_bits)):
            if value < 0:
                raise ConfigError(f"{key}: must be >= 0, got {value}")
        if self.metric == "ber" and len(self.ebn0_grid_db) == 0:
            raise ConfigError("ebn0_grid_db: must be nonempty for BER runs")
        if not np.all(np.isfinite(self.ebn0_grid_db)):
            raise ConfigError(f"ebn0_grid_db: must be finite, got {self.ebn0_grid_db}")
        if self.metric == "ber" and np.any(np.diff(self.ebn0_grid_db) <= 0):
            raise ConfigError(f"ebn0_grid_db: must be strictly increasing, got {self.ebn0_grid_db}")
        if wp.qam_order not in QAM_ORDERS:
            raise ConfigError(f"qam_order: {wp.qam_order} not in {QAM_ORDERS}")
        low = [e for e in self.ebn0_grid_db if not np.isfinite(noise_variance(e, wp.qam_order))]
        if low:
            raise ConfigError(f"ebn0_grid_db: {low} dB gives an infinite noise variance")
        if wp.subsymbols < 1:
            raise ConfigError(f"subsymbols: must be >= 1, got {wp.subsymbols}")
        if wp.receiver not in gfdm_mod.RECEIVERS:
            raise ConfigError(f"receiver: {wp.receiver!r} not in {gfdm_mod.RECEIVERS}")
        if self.waveform == "gfdm" and wp.receiver == "mmse" and self.channel != "awgn":
            raise ConfigError(
                f"receiver: mmse weighs white noise of the AWGN variance, but after zero "
                f"forcing on {self.channel} the noise is colored; use zf or mf"
            )
        if wp.prototype not in (None, "phydyas", "rect"):
            raise ConfigError(f"prototype: {wp.prototype!r} not in (None, 'phydyas', 'rect')")
        if wp.overlap not in PHYDYAS_OVERLAPS:
            raise ConfigError(f"overlap: {wp.overlap} not in {PHYDYAS_OVERLAPS}")
        build, circular, default_proto = _MATRIX_MODEMS[self.waveform]
        proto = wp.prototype or default_proto
        k, m = _grid(self)
        size_key = "n_fft" if self.waveform == "ofdm" else "subcarriers"
        if k < 2:
            raise ConfigError(f"{size_key}: must be >= 2, got {k}")
        if self.waveform == "ofdm" and proto != "rect":
            raise ConfigError(f"prototype: ofdm is plain GFDM with the rect pulse, got {proto!r}")
        if k % 2 and (build is not gfdm_mod.build_gfdm_matrix or proto == "phydyas"):
            raise ConfigError(
                f"{size_key}: must be even for {self.waveform} with the {proto} "
                f"prototype, got {k}"
            )
        cp_min = chan.PROFILE_MEMORY[self.channel]
        if circular and not cp_min <= wp.cp_len <= k * m - 1:
            raise ConfigError(
                f"cp_len: must be in [{cp_min}, {k * m - 1}] (the {self.channel} channel has "
                f"{cp_min} samples of memory, the frame {k * m} samples), got {wp.cp_len}"
            )
        if wp.active is not None and not (
            len(wp.active) and 0 <= min(wp.active) and max(wp.active) < k
        ):
            raise ConfigError(f"active: need indices in [0, {k}), got {wp.active}")
        if wp.active is not None and len(set(wp.active)) < len(wp.active):
            raise ConfigError(f"active: duplicate indices in {wp.active}")


def noise_variance(ebn0_db: float, order: int) -> float:
    """Complex noise variance per sample at ``ebn0_db`` dB Eb/N0 for unit-energy ``order``-QAM.

    An Eb/N0 so low that its linear value underflows gives an infinite
    variance, which ``ScenarioConfig.validate`` rejects.
    """
    with np.errstate(over="ignore", divide="ignore"):
        return 1.0 / (np.log2(order) * 10.0 ** (np.float64(ebn0_db) / 10.0))


def _grid(config: ScenarioConfig) -> tuple[int, int]:
    """(K, M) of the waveform's frame: (n_fft, 1) for OFDM, else (subcarriers, subsymbols)."""
    wp = config.waveform_params
    return (wp.n_fft, 1) if config.waveform == "ofdm" else (wp.subcarriers, wp.subsymbols)


def _chunk(config: ScenarioConfig) -> int:
    """Frames per chunk: clamp(``_CHUNK_SYMBOLS`` // (K*M), 1, ``_CHUNK``).

    The grid alone sets it, because the RNG key holds each chunk's first
    frame: the chunk fixes the draws.  The work areas grow with a chunk's
    symbols, so they stay bounded by ``_CHUNK_SYMBOLS`` on every grid whose
    frame holds fewer, not by the largest grid a process ran.
    """
    k, m = _grid(config)
    return max(1, min(_CHUNK, _CHUNK_SYMBOLS // (k * m)))


def n_threads() -> int:
    """Worker threads from ``WAVEMOD_THREADS``, clamped to [1, os.cpu_count()]."""
    try:
        requested = int(os.environ.get("WAVEMOD_THREADS", "1"))
    except ValueError:
        return 1
    return max(1, min(requested, os.cpu_count() or 1))


def _scenario_id(config: ScenarioConfig) -> int:
    """RNG key of a run, the same for every waveform and Eb/N0 point (common random numbers)."""
    return zlib.crc32(f"{config.metric}|{config.channel}".encode())


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


# ---------------------------------------------------------------------------
# The modem adapter: one transmit/equalize/demodulate surface over the five
# waveforms.  Everything travels frames-first, one row per frame: data as
# (count, n_data) arrays and frames as (count, samples) arrays.  ``equalize``
# takes the channel taps as one (n_taps,) vector for the whole batch or as
# (count, n_taps) per-frame taps.
# ``stride`` is the sample distance between the starts of consecutive frames
# of a continuous stream: block frames follow each other back to back,
# prefix-free frames overlap at the symbol rate.


class _MatrixAdapter:
    """One waveform over one matrix set, plain GFDM (OFDM at M = 1) or OQAM.

    A circular frame (``circular=True``) carries a ``cp_len`` cyclic prefix
    and is ZF-equalized over its K*M core; a prefix-free frame over the whole
    received frame, zero-padded to a power of two, then cut back to
    ``frame_len``.  Either way zero forcing gives the sent frame's window
    plus the zero-forced noise (see ``channel``), so :meth:`equalize` runs on
    the noise alone.
    """

    def __init__(self, wp: WaveformParams, mats, circular: bool):
        k, m = mats.subcarriers, mats.subsymbols
        self.mats = mats
        self._oqam = isinstance(mats, gfdm_mod.OqamMatrixSet)
        self.circular = circular
        self.receiver_kind = wp.receiver
        self.cp_len = wp.cp_len if circular else 0
        self.frame_len = mats.frame_len + self.cp_len
        self.support_len = self.frame_len if circular else mats.support_len
        self.stride = self.frame_len if circular else k * m
        # None under the full allocation: data fill every bin, no scatter or gather.
        self._runs = None if wp.active is None else _active_runs(wp.active)
        self.n_data = k * m if self._runs is None else m * self._runs[-1][1].stop

    def transmit(self, d, out=None):
        """(count, frame_len) frames of (count, n_data) symbols, into ``out`` or the work area's frames.

        A circular frame's cyclic prefix is copied from the end of its core.
        """
        if out is None:
            out = _work.area().get("sim.frames", (len(d), self.frame_len))
        full = d if self._runs is None else _scatter(d, self._runs, self.mats.subcarriers)
        modulate = gfdm_mod.oqam_modulate if self._oqam else gfdm_mod.gfdm_modulate
        modulate(self.mats, full, out=out[:, self.cp_len:])
        if self.cp_len:
            out[:, : self.cp_len] = out[:, -self.cp_len:]
        return out

    def products(self, d):
        """Yield :func:`gfdm.oqam_products`' (first frame, product) pairs of (count, n_data) symbols.

        Frame j's sample r + qK sits at ``[q, r, j]`` of its block's product.
        """
        full = d if self._runs is None else _scatter(d, self._runs, self.mats.subcarriers)
        yield from gfdm_mod.oqam_products(self.mats, full)

    def zf_cols(self, samples: int) -> slice:
        """The columns of a ``samples``-long received frame that zero forcing transforms.

        A circular frame's core ``[cp_len:cp_len + K*M]``, a prefix-free
        frame's every sample.
        """
        if self.circular:
            return slice(self.cp_len, self.cp_len + self.mats.frame_len)
        return slice(0, samples)

    def equalize(self, y, taps) -> np.ndarray:
        """(count, frame_len) ZF-equalized windows of their (count, width) :meth:`zf_cols` columns.

        The transform runs in a work-area array, into which ``y`` is copied
        (it may be a strided view); the AWGN profile's unit tap leaves the
        copy as it is.  ``frame_len`` is the matrix set's, K*M on a circular
        frame.  The result is a view of that array.
        """
        count, width = y.shape
        fft_len = width if self.circular else _next_pow2(width)
        equalized = _work.area().get("sim.equalized", (count, fft_len))
        hf = None  # one tap: fd_zf_equalize takes its response itself
        if taps.shape[-1] > 1:
            response = _work.area().get("sim.response", taps.shape[:-1] + (fft_len,))
            hf = chan.freq_response(taps, fft_len, out=response)
        return chan.fd_zf_equalize(y, taps, fft_len, hf=hf, out=equalized)[:, :self.mats.frame_len]

    def demodulate(self, y_eq, noise_var, out=None) -> np.ndarray:
        """(count, n_data) symbols of (count, K*M) equalized windows, into ``out`` if given."""
        if out is None:
            out = np.empty((len(y_eq), self.n_data), dtype=complex)
        full = out
        if self._runs is not None:
            # The K*M grid, which a prefix-free frame's window is longer than.
            grid = self.mats.subcarriers * self.mats.subsymbols
            full = _work.area().get("sim.demodulated", (len(y_eq), grid))
        if self._oqam:
            gfdm_mod.oqam_demodulate(self.mats, y_eq, out=full)
        else:
            try:
                weights = gfdm_mod.build_receiver(self.mats, self.receiver_kind, noise_var=noise_var)
            except np.linalg.LinAlgError as exc:
                raise ConfigError(
                    f"subsymbols/prototype: {exc}; zero forcing cannot invert it, so choose "
                    f"other subsymbols or prototype, or the mf or mmse receiver"
                ) from None
            gfdm_mod.gfdm_demodulate(weights, y_eq, out=full)
        if self._runs is not None:
            _gather(full, self._runs, self.mats.subcarriers, out)
        return out


def _active_runs(active) -> tuple[tuple[slice, slice], ...]:
    """The active bins as (bins, data) slice pairs, one per run of consecutive bins.

    Every subsymbol carries its data on the same bins in increasing order,
    so each run takes the data slice that follows the previous run's.
    """
    runs = []
    for at, b in enumerate(sorted({int(b) for b in active})):
        if runs and runs[-1][0].stop == b:
            bins, data = runs[-1]
            runs[-1] = (slice(bins.start, b + 1), slice(data.start, at + 1))
        else:
            runs.append((slice(b, b + 1), slice(at, at + 1)))
    return tuple(runs)


def _scatter(d, runs, k: int) -> np.ndarray:
    """(count, n_data) symbols on the active bins of (count, K*M) rows, zero elsewhere.

    The rows are viewed as (count, M, K) and filled one run, or one gap
    between runs, at a time.
    """
    count = len(d)
    data = d.reshape(count, -1, runs[-1][1].stop)
    full = _work.area().get("sim.scattered", (count, data.shape[1], k))
    end = 0
    for bins, part in runs:
        full[..., end:bins.start] = 0
        full[..., bins] = data[..., part]
        end = bins.stop
    full[..., end:] = 0
    return full.reshape(count, -1)


def _gather(full, runs, k: int, out) -> None:
    """The active bins of (count, K*M) rows into the (count, n_data) ``out``, run by run."""
    count = len(full)
    rows = np.reshape(full, (count, -1, k), copy=False)
    data = np.reshape(out, (count, rows.shape[1], -1), copy=False)
    for bins, part in runs:
        data[..., part] = rows[..., bins]


def build_adapter(config: ScenarioConfig):
    wp = config.waveform_params
    build, circular, default_proto = _MATRIX_MODEMS[config.waveform]
    k, m = _grid(config)
    p = phydyas(k, wp.overlap) if (wp.prototype or default_proto) == "phydyas" else rectangular(k)
    return _MatrixAdapter(wp, build(p, k, m), circular)


# ---------------------------------------------------------------------------
# Frame pipeline


def _draw_chunk(config: ScenarioConfig, adapter, scenario_id, start, count, with_noise=False):
    """Draw and map frames [start, start+count): symbols, packed bits, taps, noise.

    One SFC64 generator, keyed by (seed, ``scenario_id``, ``start``), draws
    the bits as ceil(n_bits / 8) random bytes, then the TVFS fades, then the
    noise.  The bytes stay packed, and nothing unpacks them: frame f's bits
    are bits [f * bits_per_frame, (f + 1) * bits_per_frame) of the byte
    stream, MSB first, and bits past the last frame's are drawn but unused.
    They map straight to the (count, n_data) symbols, written into the work
    area; mapping draws nothing.  ``channel.draw_taps`` gives the taps: one
    (n_taps,) vector on AWGN and TIFS, (count, n_taps) per-frame fades on
    TVFS.  The noise covers the :meth:`~_MatrixAdapter.zf_cols` columns of
    the received frame, ``frame_len + n_taps - 1`` samples long, and is
    drawn sample-major into the work area: a (width, count) complex array
    whose real and imaginary parts are standard normals, interleaved.  Frame
    f's sample s is then the same draw for any frame length, so frames that
    differ only in trailing samples meet the same noise.  Without
    ``with_noise`` it is None.
    """
    rng = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(entropy=[config.seed & 0xFFFF_FFFF_FFFF_FFFF, scenario_id, start])
    ))
    n_bits = count * adapter.n_data * int(np.log2(config.waveform_params.qam_order))
    packed = np.frombuffer(rng.bytes(-(-n_bits // 8)), np.uint8)
    taps = chan.draw_taps(config.channel, rng, count, corrected=config.tvfs_corrected)
    symbols = _work.area().get("sim.symbols", (count, adapter.n_data))
    map_packed(packed, config.waveform_params.qam_order, symbols.size, out=symbols.reshape(-1))
    if not with_noise:
        return symbols, packed, taps, None
    cols = adapter.zf_cols(adapter.frame_len + taps.shape[-1] - 1)
    noise = _work.area().get("sim.noise", (cols.stop - cols.start, count))
    rng.standard_normal(out=noise.view(float))
    return symbols, packed, taps, noise


def ber_errors(adapter, order: int, packed, x, taps, noise, noise_vars) -> tuple[list[int], int]:
    """Bit errors at each of ``noise_vars``, and the bits, of frames sent through the channel.

    ``x`` holds the (count, frame_len) frames carrying the ``packed`` bits;
    ``packed``, ``taps`` and the standard-normal ``noise`` are as
    :func:`_draw_chunk` draws them.  Zero forcing is linear and inverts the
    channel (see ``channel``), so at noise variance v the equalized frames
    are x + sqrt(v / 2) ZF(noise): the noise is zero-forced and the sent
    labels read once for every variance.  Each variance then writes its
    frames' windows into the spent noise buffer, demodulates them with its
    own receiver and counts (:func:`_bit_errors`).
    """
    count = len(x)
    work = _work.area()
    tx = _sent_labels(packed, order, count * adapter.n_data)
    zf_noise = adapter.equalize(noise.T, taps)
    sent = x[:, adapter.cp_len:adapter.cp_len + zf_noise.shape[1]]
    errors = []
    for noise_var in noise_vars:
        y_eq = work.get("sim.noise", zf_noise.shape)
        np.multiply(zf_noise, np.sqrt(noise_var / 2.0), out=y_eq)
        y_eq += sent
        # The estimates overwrite the sent symbols, which the frames have replaced.
        estimates = work.get("sim.symbols", (count, adapter.n_data))
        errors.append(_bit_errors(tx, adapter.demodulate(y_eq, noise_var, out=estimates), order))
    return errors, tx.size * int(np.log2(order))


def _sent_labels(packed, order: int, n: int) -> np.ndarray:
    """The Gray labels of ``n`` symbols sent as the MSB-first ``packed`` bits."""
    n_bits = n * int(np.log2(order))
    if len(packed) != -(-n_bits // 8):
        raise ValueError(f"{len(packed)} bytes drawn for {n_bits} received bits")
    return packed_labels(packed, order, n, out=_work.area().get("sim.tx_labels", n, np.uint8))


def _bit_errors(tx, d_hat, order: int) -> int:
    """Bit errors of the estimates ``d_hat`` of symbols sent with the labels ``tx``.

    A symbol's bit errors are the set bits of its sent label XOR its
    decided label.
    """
    rx = demap_labels(d_hat, order, out=_work.area().get("sim.rx_labels", tx.size, np.uint8))
    rx ^= tx
    return int(np.bitwise_count(rx, out=rx).sum())


def _parallel_rounds(process, total, chunk):
    """Yield the results of chunk jobs in chunk order, optionally threaded.

    ``process(start, count)`` runs on ``chunk`` frames (fewer in the last
    job) in a work area borrowed for it.  Rounds of one job per thread run
    at once, and a round starts only when the caller asks for the result
    after the previous round's last: every job starts after the caller has
    taken the results of all earlier rounds.  A caller that stops asking
    ends the run, and the jobs of the round in flight finish unread.
    """
    threads = n_threads()
    starts = range(0, total, chunk)

    def job(start):
        with _work.borrowed():
            return process(start, min(chunk, total - start))

    # One thread runs the jobs itself: a one-worker pool, started afresh for
    # each run, gave BER runs about 15% fewer frames per second.  The pool's
    # module (and ``logging`` with it) is imported only when more than one
    # thread runs, so neither ``import wavemod`` nor a one-thread run loads it.
    # ``import wavemod`` does not load numpy's RNG either: the first job's
    # draw (``_draw_chunk``) does, on a pool thread when the run is threaded.
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        for first in range(0, len(starts), threads):
            batch = starts[first:first + threads]
            yield from pool.map(job, batch) if pool else map(job, batch)


def run_ber(config: ScenarioConfig) -> MetricCurve:
    """Monte Carlo BER over the Eb/N0 grid, with the closed-form reference.

    One chunk loop serves every point.  A point stops after the chunk, in
    chunk order, at which it reaches the error target and ``min_bits``; no
    later chunk runs it.  A chunk job runs the points still running when it
    starts, and the results of a point past its stop are dropped, so the
    counts do not depend on the thread count.
    """
    config.validate()
    if config.metric != "ber":
        raise ConfigError(f"metric: expected 'ber', got {config.metric!r}")
    adapter = build_adapter(config)
    order = config.waveform_params.qam_order
    grid = np.asarray(config.ebn0_grid_db, dtype=float)
    noise_vars = [noise_variance(ebn0_db, order) for ebn0_db in grid]
    sid = _scenario_id(config)
    # Jobs read this while the loop below clears entries, with no lock: an
    # entry clears once its point's stop chunk is taken, and every job
    # running then works on a later chunk, whose count for the point is
    # dropped whichever value the job read.
    live = [True] * len(grid)

    def running():
        return [p for p, on in enumerate(live) if on]

    def process(start, count):
        points = running()
        d, packed, taps, noise = _draw_chunk(config, adapter, sid, start, count, True)
        x = adapter.transmit(d)
        point_vars = [noise_vars[p] for p in points]
        errors, n_bits = ber_errors(adapter, order, packed, x, taps, noise, point_vars)
        return dict(zip(points, errors)), n_bits

    errors = np.zeros(len(grid), dtype=np.int64)
    bits = np.zeros(len(grid), dtype=np.int64)
    for counted, n_bits in _parallel_rounds(process, config.frames, _chunk(config)):
        for p in running():
            errors[p] += counted[p]
            bits[p] += n_bits
            live[p] = not (
                config.error_target is not None
                and errors[p] >= config.error_target
                and bits[p] >= config.min_bits
            )
        if not any(live):
            break
    theory = _theory_reference(config, grid)
    return MetricCurve(
        grid,
        errors / bits,
        kind="BER",
        meta=_meta(config),
        extra={"theory": theory, "errors": errors, "bits": bits},
    )


def _theory_reference(config: ScenarioConfig, grid: np.ndarray) -> np.ndarray:
    order = config.waveform_params.qam_order
    if config.channel == "tvfs":
        mean_power = float(np.sum(chan.tvfs_gains(config.tvfs_corrected) ** 2))
        shift = 10.0 * np.log10(mean_power)
        return theoretical_ber(grid + shift, order, channel="rayleigh")
    return theoretical_ber(grid, order, channel="awgn")


def psd_default_active(subcarriers: int) -> tuple:
    """Centered allocation leaving guard bands for out-of-band measurements."""
    half = max(1, round(subcarriers * 7 / 32))  # at K = 2, 7K/32 rounds to no bins
    return tuple(np.arange(-half, half) % subcarriers)


def psd_band_edge(config: ScenarioConfig) -> float:
    """Upper band edge (cycles/sample) of the run's allocation.

    That is ``active`` when the config gives it, else the default centered
    allocation (:func:`psd_default_active`).
    """
    wp = config.waveform_params
    k = _grid(config)[0]
    active = wp.active if wp.active is not None else psd_default_active(k)
    freqs = (np.asarray(active) % k) / k
    freqs = np.where(freqs >= 0.5, freqs - 1.0, freqs)
    return float(freqs.max())


def run_psd(config: ScenarioConfig) -> MetricCurve:
    """Welch PSD of a continuous multicarrier stream.

    Prefix-free waveforms are overlap-added at the data-symbol stride;
    block waveforms are concatenated back to back.  When no explicit
    allocation is given, a centered sub-band is used so that out-of-band
    behavior is observable.  The stream is never held whole: each chunk
    writes its samples into a window of at most a segment plus a chunk of
    frames, and the window's samples that no later frame can reach go to
    :meth:`WelchAccumulator.add`, which adds their whole segments to the
    running periodogram sum and says where the next segment starts, so
    memory does not grow with the frames.
    Block frames are transmitted straight into the window's rows;
    prefix-free frames are overlap-added in the modem's block-major product
    (:func:`_overlap_add_product`), and only their finished stride-long heads
    and the last frame's tail reach the window.
    """
    config.validate()
    if config.metric != "psd":
        raise ConfigError(f"metric: expected 'psd', got {config.metric!r}")
    wp = config.waveform_params
    if wp.active is None:
        active = psd_default_active(_grid(config)[0])
        config = replace(config, waveform_params=replace(wp, active=active))
    adapter = build_adapter(config)
    sid = _scenario_id(config)
    stride, frame_len = adapter.stride, adapter.frame_len
    n_samples = (config.frames - 1) * stride + frame_len
    if n_samples < _WELCH_SEGMENT:
        raise ConfigError(
            f"frames: {config.frames} frames give {n_samples} samples, "
            f"the PSD needs at least {_WELCH_SEGMENT}"
        )
    welch = WelchAccumulator(_WELCH_SEGMENT, n_samples)
    # window[i] is stream sample base + i, base being the start of the first
    # segment not yet fed, and its first ``held`` samples are written: those
    # before the next frame's start are final, the rest the partial sums of
    # the frames sent so far.  A chunk's first frame starts within a segment
    # of base: the window holds a segment and a chunk of frames.
    chunk = _chunk(config)
    window = np.empty(_WELCH_SEGMENT + (chunk - 1) * stride + frame_len, dtype=complex)
    base = held = 0
    with _work.borrowed():  # one work area serves every chunk of the run
        for start in range(0, config.frames, chunk):
            count = min(chunk, config.frames - start)
            d = _draw_chunk(config, adapter, sid, start, count)[0]
            first = start * stride - base
            if adapter.circular:
                adapter.transmit(d, out=window[first:first + count * stride].reshape(count, stride))
                held = first + count * stride
            else:
                for lo, prod in adapter.products(d):
                    held = _overlap_add_product(window, first + lo * stride, held, prod, stride, frame_len)
            # Samples before the next frame's start are final; after the last frame, all are.
            final = held if start + count == config.frames else first + count * stride
            fed = welch.add(window[:final])
            window[:held - fed] = window[fed:held]
            base += fed
            held -= fed
    return welch.curve(meta=_meta(config))


def _overlap_add_product(window, at: int, held: int, prod, stride: int, frame_len: int) -> int:
    """Overlap-add a block of prefix-free frames, starting at ``window[at]``, from their product.

    ``prod`` is the block's (blocks, K, frames) product (see
    :meth:`_MatrixAdapter.products`), and the frames, ``frame_len`` samples
    long, start ``stride`` = M*K samples (M blocks) apart.
    ``window[at:held]`` holds the carry: the partial sums that earlier
    frames left on the first frame's samples.  The carry is added into the
    first frame's column, then, from the last block down, each frame's block
    q into block q - M of the frame after it.  Every frame's first M blocks
    then hold finished stream samples and go to the window as (frames,
    stride) rows, and the last frame's later samples, the next carry, follow
    them.  Each sample gains its terms in frame order, as a loop adding the
    frames one by one into a zeroed stream would add them, so the stream is
    the same bits.  Returns the new ``held``.
    """
    blocks, k, n = prod.shape
    heads = stride // k
    # Column j of the product, read block after block, is frame j.
    np.reshape(prod[:, :, 0], -1, copy=False)[: held - at] += window[at:held]
    for q in range(blocks - 1, heads - 1, -1):
        prod[q - heads, :, 1:] += prod[q, :, :-1]
    end = at + n * stride
    np.copyto(window[at:end].reshape(n, stride), prod[:heads].reshape(stride, n).T)
    carry = frame_len - stride
    window[end:end + carry] = np.reshape(prod[heads:, :, -1], -1, copy=False)[:carry]
    return end + carry


def run_papr(config: ScenarioConfig) -> MetricCurve:
    """Per-frame PAPR CCDF on the standard threshold grid.

    PAPR is measured over each frame's signal-bearing support at baseband
    rate, with no oversampling; the channel plays no role here.  Prefix-free
    frames are measured in the modem's block-major product, one frame per
    column (:meth:`_MatrixAdapter.products`).
    """
    config.validate()
    if config.metric != "papr":
        raise ConfigError(f"metric: expected 'papr', got {config.metric!r}")
    adapter = build_adapter(config)
    sid = _scenario_id(config)

    def process(start, count):
        d = _draw_chunk(config, adapter, sid, start, count)[0]
        if adapter.circular:
            return papr_batch(adapter.transmit(d)[:, : adapter.support_len])
        paprs = np.empty(count)
        for lo, prod in adapter.products(d):
            support = prod.reshape(-1, prod.shape[-1])[: adapter.support_len]
            paprs[lo:lo + support.shape[1]] = papr_batch(support, axis=0)
        return paprs

    paprs = np.concatenate(list(_parallel_rounds(process, config.frames, 4 * _chunk(config))))
    return papr_ccdf(paprs, default_papr_thresholds(), meta=_meta(config))


def _meta(config: ScenarioConfig) -> dict:
    k, m = _grid(config)
    return {
        "waveform": config.waveform,
        "channel": config.channel,
        "metric": config.metric,
        "seed": config.seed,
        "frames": config.frames,
        "qam_order": config.waveform_params.qam_order,
        "subcarriers": k,
        "subsymbols": m,
        "rng": RNG_SCHEME,
    }


def run_scenario(config: ScenarioConfig) -> MetricCurve:
    return {"ber": run_ber, "psd": run_psd, "papr": run_papr}[config.metric](config)

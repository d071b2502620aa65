"""Evaluation instruments: Welch's averaged-periodogram PSD estimate, PAPR and its
CCDF, and the closed-form QAM bit error probability curves."""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._work import BLOCK

# Segments per in-place FFT batch: a 4 MB buffer at 2,048 samples.  Once glibc
# has freed one that large it keeps twice that much freed memory for reuse, so
# a PSD run's chunk temporaries need no fresh pages from the next run on.
_WELCH_BATCH = 128


@dataclass
class MetricCurve:
    """Ordered (abscissa, value) pairs with a kind tag and free-form metadata."""

    abscissa: np.ndarray
    values: np.ndarray
    kind: str  # "BER" | "PSD_dB" | "CCDF"
    meta: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)  # named companion columns

    def __post_init__(self):
        self.abscissa = np.asarray(self.abscissa, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.abscissa) <= 0):
            raise ValueError("abscissas must be strictly increasing")

    def columns(self) -> dict:
        """The curve's columns by name, in file order: abscissa, value, then ``extra``."""
        extra = {name: np.asarray(col) for name, col in self.extra.items()}
        return {"abscissa": self.abscissa, "value": self.values, **extra}

    def write_csv(self, path) -> None:
        """Header naming kind and meta, then the :meth:`columns` names and full-precision rows."""
        meta = " ".join(f"{k}={v}" for k, v in self.meta.items())
        cols = self.columns()
        with open(path, "w") as f:
            f.write(f"# kind={self.kind} {meta}".rstrip() + "\n")
            f.write("# " + ",".join(cols) + "\n")
            for row in zip(*cols.values()):
                f.write(",".join(repr(float(v)) for v in row) + "\n")

    def interpolate(self, x: float) -> float:
        return float(np.interp(x, self.abscissa, self.values))


class WelchAccumulator:
    """Welch's estimate built up segment by segment: one running sum of periodograms.

    :meth:`add` takes the stream in pieces and cuts its segments, which
    start every ``step`` samples.  They are windowed, as interleaved (re, im)
    floats, into a reused batch, transformed in place whenever it fills, and
    their power added to the sum; :meth:`curve` normalizes once.  The batch
    holds ``_WELCH_BATCH`` rows, or fewer when the ``n_samples``-sample
    stream has fewer segments, so a short stream takes no more memory than
    its segments.
    """

    def __init__(self, seg_len: int, n_samples: int):
        self.seg_len = seg_len
        self.step = seg_len - seg_len // 2
        self.window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(seg_len) / seg_len)
        self._pair_window = np.repeat(self.window, 2)  # per interleaved (re, im) float
        self.n_segments = 0
        self._pxx = np.zeros(seg_len)
        rows = min(_WELCH_BATCH, max(1, (n_samples - seg_len) // self.step + 1))
        self._batch = np.empty((rows, seg_len), dtype=complex)
        self._filled = 0

    def add(self, stream) -> int:
        """Add every whole segment of ``stream``; return the samples it is done with.

        ``stream`` is a C-contiguous 1-D complex array whose first sample
        starts a segment: the part of the stream not yet done with.  The
        return value, a multiple of ``step``, is where the next segment
        starts; a stream shorter than a segment adds nothing and returns 0.
        A real or non-contiguous stream raises ValueError: the segments are
        views cut at fixed byte offsets, which would misread it.
        """
        if stream.ndim != 1 or stream.dtype != np.complex128 or not stream.flags.c_contiguous:
            raise ValueError(f"need a C-contiguous 1-D complex stream, got {stream.dtype}")
        n_seg = max(0, (len(stream) - self.seg_len) // self.step + 1)
        item = stream.itemsize
        segments = as_strided(stream, (n_seg, self.seg_len), (self.step * item, item))
        done = 0
        while done < len(segments):
            take = min(len(segments) - done, len(self._batch) - self._filled)
            rows = self._batch[self._filled:self._filled + take]
            # The complex product's bits, without casting the window to complex.
            part = segments[done:done + take].view(np.float64)
            np.multiply(part, self._pair_window, out=rows.view(np.float64))
            self._filled += take
            done += take
            if self._filled == len(self._batch):
                self._flush()
        self.n_segments += n_seg
        return n_seg * self.step

    def _flush(self) -> None:
        batch = self._batch[:self._filled]
        np.fft.fft(batch, axis=-1, out=batch)
        power = batch.view(np.float64)
        np.square(power, out=power)
        sums = power.sum(axis=0)  # (re^2, im^2) pairs per bin
        self._pxx += sums[0::2] + sums[1::2]
        self._filled = 0

    def curve(self, meta: dict | None = None) -> MetricCurve:
        """Two-sided density 1/(n_seg * sum(w^2)) times the sum, plateau-normalized to 0 dB."""
        if self.n_segments == 0:
            raise ValueError("no Welch segments")
        self._flush()
        pxx = np.fft.fftshift(self._pxx / (self.n_segments * np.sum(self.window ** 2)))
        freqs = np.fft.fftshift(np.fft.fftfreq(self.seg_len))
        plateau = np.median(pxx[pxx >= pxx.max() / 2.0])
        vals_db = 10.0 * np.log10(np.maximum(pxx / plateau, 1e-300))
        return MetricCurve(freqs, vals_db, kind="PSD_dB", meta=dict(meta or {}))


def papr_batch(frames: np.ndarray, axis: int = -1) -> np.ndarray:
    """Per-frame PAPR in dB of a 2-D array whose frames run along ``axis``.

    The default takes one frame per row, (n_frames, n_samples); ``axis=0``
    one per column, (n_samples, n_frames), as a block-major product holds
    them.  Either way the array goes through a few rows at a time, whole
    frames or one sample of every frame per row, and each frame's power sum
    and peak build up from those passes.
    """
    frames = np.asarray(frames)
    by_column = axis % frames.ndim == 0
    n_frames = frames.shape[1] if by_column else len(frames)
    total, peak = np.zeros(n_frames), np.zeros(n_frames)
    step = max(1, BLOCK // frames.shape[1])
    for lo in range(0, len(frames), step):
        power = np.abs(frames[lo:lo + step])
        np.square(power, out=power)
        if by_column:
            total += power.sum(axis=0)
            np.maximum(peak, power.max(axis=0), out=peak)
        else:
            power.sum(axis=1, out=total[lo:lo + step])
            power.max(axis=1, out=peak[lo:lo + step])
    mean = total / frames.shape[axis]
    if np.any(mean == 0.0):
        raise ValueError("PAPR undefined for an all-zero frame")
    return 10.0 * np.log10(peak / mean)


def papr_ccdf(paprs, thresholds, meta: dict | None = None) -> MetricCurve:
    """Empirical exceedance probability at each threshold."""
    paprs = np.sort(np.asarray(paprs, dtype=float))
    if paprs.size == 0:
        raise ValueError("no PAPR samples")
    thresholds = np.asarray(thresholds, dtype=float)
    exceed = paprs.size - np.searchsorted(paprs, thresholds, side="right")
    return MetricCurve(thresholds, exceed / paprs.size, kind="CCDF", meta=dict(meta or {}))


def default_papr_thresholds() -> np.ndarray:
    return np.arange(6.0, 15.0 + 0.25, 0.5)


def _qfunc(x):
    erfc = np.vectorize(math.erfc, otypes=[float])
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def _gray_qam_q_terms(order: int) -> list[tuple[float, int]]:
    """(weight, odd multiple) pairs of the exact Gray-QAM bit error expansion.

    The per-axis expansion follows the closed form for square constellations
    with reflected-Gray labeling; summing the weighted Q-function terms over
    both axes and all bit positions gives the exact average bit error rate.
    """
    sqrt_m = int(round(np.sqrt(order)))
    if sqrt_m * sqrt_m != order or order < 4:
        raise ValueError(f"order must be an even power of two >= 4, got {order}")
    nb = int(np.log2(sqrt_m))
    terms: dict[int, float] = {}
    for k in range(1, nb + 1):
        upper = int((1 - 2.0 ** (-k)) * sqrt_m) - 1
        for i in range(0, upper + 1):
            shift = i * 2 ** (k - 1)
            sign = (-1) ** (shift // sqrt_m)
            weight = 2 ** (k - 1) - (2 * shift + sqrt_m) // (2 * sqrt_m)
            coeff = sign * weight * 2.0 / sqrt_m
            terms[2 * i + 1] = terms.get(2 * i + 1, 0.0) + coeff
    return [(c / nb, mult) for mult, c in sorted(terms.items())]


def theoretical_ber(ebn0_db, order: int = 16, channel: str = "awgn"):
    """Closed-form Gray-QAM bit error probability per bit-energy SNR in dB.

    ``channel`` selects pure AWGN (``"awgn"``) or a flat Rayleigh fade
    applied per frame (``"rayleigh"``), in which case each Q-function term is
    averaged over the exponential SNR distribution in closed form: with
    h = c/2, (1 - sqrt(h / (1 + h))) / 2, computed as 1 / (2 (1 + h)(1 + s)),
    s = 1 / sqrt(1 + 1/h), which neither cancels at high SNR nor turns into
    inf/inf when Eb/N0 overflows.
    """
    with np.errstate(over="ignore"):
        ebn0 = 10.0 ** (np.asarray(ebn0_db, dtype=float) / 10.0)
    gamma_s = np.log2(order) * ebn0
    base = 3.0 * gamma_s / (order - 1.0)
    pb = np.zeros_like(ebn0)
    for weight, mult in _gray_qam_q_terms(order):
        c = mult ** 2 * base  # Q(sqrt(c)) argument squared
        if channel == "awgn":
            pb = pb + weight * _qfunc(np.sqrt(c))
        elif channel == "rayleigh":
            half = c / 2.0
            with np.errstate(divide="ignore"):
                s = 1.0 / np.sqrt(1.0 + 1.0 / half)
            pb = pb + weight * 0.5 / ((1.0 + half) * (1.0 + s))
        else:
            raise ValueError(f"unknown channel {channel!r}")
    return pb

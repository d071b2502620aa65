"""Channel profiles, noise injection and frequency-domain ZF equalization.

Three profiles are provided: ideal AWGN (single unit tap), a fixed 8-tap
time-invariant frequency-selective response, and a per-frame-drawn 4-tap
block-fading response.  This module is the one that knows them:
``PROFILE_MEMORY`` gives each profile's memory and :func:`draw_taps` its
taps.  The channel is a linear convolution; a cyclic prefix
covering its n_taps - 1 samples of memory makes it act circularly on the
frame core, which is what the circulant matrix model of the CP waveforms
assumes.  The CP waveforms are zero-forced over that core, the prefix-free
ones over the whole received frame zero-padded to a power of two, a
transform long enough to hold the linear convolution.  Under either
precondition, which ``sim.ScenarioConfig.validate`` enforces, ZF undoes the
channel exactly, ZF(h * x + n) = x + ZF(n), so the simulator zero-forces
only the noise; the convolution itself lives in the tests
(``tests/oracle.py``) as the reference channel.  Every channel takes the
transform, a flat one-tap channel too, except the exact unit tap of the AWGN
profile, which is the identity.  Zero forcing multiplies by the inverse
response conj(H)/|H|^2, from the same squared magnitudes that the
``MIN_ZF_BIN`` check reads.
"""

import functools

import numpy as np

from ._work import BLOCK

TIFS_TAPS = np.array([1.0, 0.0, 0.0, 0.0, 0.4, 0.0, 0.0, 0.2])
MIN_ZF_BIN = 1e-12  # smallest response magnitude zero forcing divides by

# Per-tap gains of the block-fading profile, taken verbatim from the source
# configuration: the middle taps are vanishingly small, leaving an almost
# flat Rayleigh channel.  The corrected variant replaces them with gains that
# actually produce frequency selectivity.
TVFS_GAINS = np.array([1.0, 0.0, 0.01 ** 2, 0.02 ** 2]) / np.sqrt(2.0)
TVFS_GAINS_CORRECTED = np.array([1.0, 0.4, 0.01, 0.02]) / np.sqrt(2.0)
# Profile -> samples of memory (n_taps - 1), which a cyclic prefix must cover.
PROFILE_MEMORY = {"awgn": 0, "tifs": len(TIFS_TAPS) - 1, "tvfs": len(TVFS_GAINS) - 1}


class EqualizationError(RuntimeError):
    """Raised when a channel frequency bin is too small to invert."""

    def __init__(self, bin_index: int, magnitude: float):
        self.bin_index = bin_index
        self.magnitude = magnitude
        super().__init__(
            f"ill-conditioned equalization: bin {bin_index} has magnitude {magnitude:.3e}"
        )


def tvfs_gains(corrected: bool) -> np.ndarray:
    """Per-tap gains of the block-fading profile, verbatim or corrected."""
    return TVFS_GAINS_CORRECTED if corrected else TVFS_GAINS


# The ``rng`` annotations are quoted: evaluating ``np.random`` at definition
# would import numpy's RNG stack with this module, before anything draws.
def draw_tvfs(rng: "np.random.Generator", frames: int, corrected: bool = False) -> np.ndarray:
    """Draw ``frames`` block-fading realizations as (frames, 4) taps.

    Tap n of each frame is gain_n times a standard complex Gaussian.
    """
    gains = tvfs_gains(corrected)
    return gains * complex_awgn(rng, (frames, len(gains)), 1.0)


def draw_taps(profile: str, rng, frames: int, corrected: bool = False) -> np.ndarray:
    """The taps of ``frames`` frames on ``profile``.

    One (n_taps,) vector for every frame on AWGN (the unit tap) and TIFS;
    (frames, n_taps) fades drawn from ``rng`` by :func:`draw_tvfs` on TVFS,
    the only profile that draws.
    """
    if profile == "tvfs":
        return draw_tvfs(rng, frames, corrected=corrected)
    return TIFS_TAPS.astype(complex) if profile == "tifs" else np.array([1.0 + 0j])


def complex_awgn(rng: "np.random.Generator", shape, noise_var: float) -> np.ndarray:
    """I.i.d. circular complex Gaussian noise with total per-sample variance.

    One draw fills the real parts, then the imaginary parts, in the order
    two draws of ``shape`` would; each part has variance ``noise_var`` / 2.
    """
    noise = np.empty(shape, dtype=complex)
    parts = rng.standard_normal((2, *noise.shape))
    parts *= np.sqrt(noise_var / 2.0)
    noise.real, noise.imag = parts
    return noise


@functools.cache
def _dft_rows(n_taps: int, fft_len: int) -> np.ndarray:
    """Read-only (2 n_taps, 2 N) real form of the first n_taps rows of the N-point DFT.

    With N = ``fft_len``, row n is exp(-2 pi i ((n k) mod N) / N), the index
    product reduced before scaling.  Interleaved (re, im) taps times this matrix give the
    interleaved (re, im) response: one real product, built once per pair.
    """
    nk = np.outer(np.arange(n_taps), np.arange(fft_len)) % fft_len
    rows = np.exp((-2j * np.pi / fft_len) * nk)
    real = np.empty((n_taps, 2, fft_len, 2))  # (tap, tap part, bin, response part)
    real[:, 0, :, 0] = real[:, 1, :, 1] = rows.real
    real[:, 0, :, 1] = rows.imag
    real[:, 1, :, 0] = -rows.imag
    real = real.reshape(2 * n_taps, 2 * fft_len)
    real.flags.writeable = False
    return real


def freq_response(taps, fft_len: int, out=None) -> np.ndarray:
    """``fft_len``-point response of the zero-padded taps, written into ``out`` if given.

    Taps of shape (n_taps,) give one response of shape (fft_len,); per-frame
    taps of shape (frames, n_taps) give a (frames, fft_len) response.  The
    response is the taps times the first n_taps rows of the DFT, the
    zero-padded FFT without transforming the zeros.  ``out`` must be
    C-contiguous.
    """
    taps = np.ascontiguousarray(taps, dtype=complex)
    if taps.shape[-1] > fft_len:
        raise ValueError(f"{taps.shape[-1]} taps do not fit a {fft_len}-point response")
    if out is None:
        out = np.empty(taps.shape[:-1] + (fft_len,), dtype=complex)
    np.matmul(taps.view(float), _dft_rows(taps.shape[-1], fft_len), out=out.view(float))
    return out


def fd_zf_equalize(y, taps, fft_len: int, hf=None, out=None) -> np.ndarray:
    """Bin-wise zero forcing over an ``fft_len``-point transform.

    The input is zero-padded to ``fft_len``, multiplied by the inverse
    channel response conj(H)/|H|^2 and transformed back; the first
    ``len(y)`` samples are returned.  Taps of shape (n_taps,) equalize every
    row of ``y`` alike; per-frame taps of shape (frames, n_taps) equalize row
    j of a (frames, n) ``y`` by row j.  ``hf``, if given, is the taps'
    ``fft_len``-point :func:`freq_response`, C-contiguous, and is overwritten
    with its inverse.  ``out``, if given, is a C-contiguous array of ``y``'s
    shape but ``fft_len`` wide: the transform runs in it, in place, and the
    result is its leading columns ``out[..., :n]``.  ``y`` may be those very
    columns.  Without ``hf``, an exact unit tap leaves ``y`` as it is, and
    any other taps, a flat one too, take their response.  A bin of magnitude
    below ``MIN_ZF_BIN`` raises :class:`EqualizationError`, which names the
    bin and its magnitude.
    """
    y = np.asarray(y, dtype=complex)
    n = y.shape[-1]
    if fft_len < n:
        raise ValueError(f"fft_len {fft_len} shorter than frame {n}")
    taps = np.asarray(taps, dtype=complex)
    if taps.ndim > 1 and (y.ndim != 2 or len(taps) != len(y)):
        raise ValueError(f"{len(taps)} per-frame tap sets for frames of shape {y.shape}")
    if out is None:
        out = np.empty(y.shape[:-1] + (fft_len,), dtype=complex)
    head = out[..., :n]
    head[...] = y
    if hf is None:
        if taps.shape[-1] == 1 and np.all(taps == 1):  # the unit tap: nothing to undo
            return head
        hf = freq_response(taps, fft_len)
    # One pass of squared magnitudes, a few frames at a time, checks the bins
    # and inverts hf in place; the first block holding a weak bin names its weakest.
    rows = np.reshape(hf, (-1, hf.shape[-1]), copy=False)
    step = max(1, BLOCK // rows.shape[1])
    for lo in range(0, len(rows), step):
        block = rows[lo:lo + step]
        power = np.square(block.real)
        power += np.square(block.imag)
        worst = np.unravel_index(int(np.argmin(power)), power.shape)
        if power[worst] < MIN_ZF_BIN ** 2:
            raise EqualizationError(int(worst[-1]), float(np.abs(block[worst])))
        inverse = np.reciprocal(power, out=power)
        block.real *= inverse
        np.negative(inverse, out=inverse)
        block.imag *= inverse
    out[..., n:] = 0
    np.fft.fft(out, axis=-1, out=out)
    out *= hf
    np.fft.ifft(out, axis=-1, out=out)
    return head

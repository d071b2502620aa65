"""CP-OFDM reference modem and closed-form QAM bit error probability curves."""

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .channel import check_zf_bins
from .gfdm import add_cp


def _qfunc(x):
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


@dataclass(frozen=True)
class OfdmParams:
    n_fft: int = 512
    n_cp: int = 32
    active: np.ndarray | None = None  # subcarrier indices; None = all

    def __post_init__(self):
        if self.n_cp >= self.n_fft:
            raise ValueError("n_cp must be smaller than n_fft")

    @property
    def active_indices(self) -> np.ndarray:
        if self.active is None:
            return np.arange(self.n_fft)
        return np.asarray(self.active, dtype=int)


def ofdm_modulate(d, params: OfdmParams) -> np.ndarray:
    """Unitary inverse-DFT frame with cyclic prefix."""
    d = np.asarray(d, dtype=complex)
    idx = params.active_indices
    if d.shape[0] != len(idx):
        raise ValueError(f"expected {len(idx)} symbols, got {d.shape[0]}")
    spec = np.zeros((params.n_fft,) + d.shape[1:], dtype=complex)
    spec[idx] = d
    x = np.fft.ifft(spec, axis=0, norm="ortho")
    return add_cp(x, params.n_cp)


def ofdm_demodulate(y, params: OfdmParams, channel_freq_response=None) -> np.ndarray:
    """Remove CP, transform, and zero-force per bin with the known channel.

    The response is one (n_fft,) vector for every frame, or an
    (n_fft, frames) array with one column per column of ``y``.
    """
    y = np.asarray(y, dtype=complex)
    if y.shape[0] < params.n_cp + params.n_fft:
        raise ValueError(
            f"frame too short: need {params.n_cp + params.n_fft} samples, got {y.shape[0]}"
        )
    core = y[params.n_cp:params.n_cp + params.n_fft]
    spec = np.fft.fft(core, axis=0, norm="ortho")
    idx = params.active_indices
    if channel_freq_response is None:
        return spec[idx]
    hf = np.asarray(channel_freq_response, dtype=complex)
    if hf.shape[0] != params.n_fft:
        raise ValueError("channel response must have one entry per FFT bin")
    hf = hf[idx]
    check_zf_bins(hf.T, bins=idx)
    if spec.ndim > hf.ndim:
        hf = hf[:, None]
    return spec[idx] / hf


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

    ``channel`` selects pure AWGN or a flat Rayleigh fade applied per frame,
    in which case each Q-function term is averaged over the exponential SNR
    distribution in closed form.
    """
    ebn0 = 10.0 ** (np.asarray(ebn0_db, dtype=float) / 10.0)
    gamma_s = np.log2(order) * ebn0
    base = 3.0 * gamma_s / (order - 1.0)
    channel = channel.lower()
    pb = np.zeros_like(ebn0)
    for weight, mult in _gray_qam_q_terms(order):
        c = mult ** 2 * base  # Q(sqrt(c)) argument squared
        if channel == "awgn":
            pb = pb + weight * _qfunc(np.sqrt(c))
        elif channel == "rayleigh":
            half = c / 2.0
            pb = pb + weight * 0.5 * (1.0 - np.sqrt(half / (1.0 + half)))
        else:
            raise ValueError(f"unknown channel {channel!r}")
    return pb

"""Multicarrier waveform modem library.

Circular and linear-filtered GFDM (plain and OQAM), FBMC-OQAM and CP-OFDM
modems, together with channel models, evaluation metrics (BER, Welch PSD,
PAPR CCDF, closed-form QAM BER) and a deterministic Monte Carlo scenario
runner.  All five waveforms run through one FFT filter bank (``gfdm``),
described by small matrix sets instead of dense matrices: CP-OFDM is plain
GFDM with one subsymbol and the rectangular pulse, and every OQAM waveform
runs through the one ``oqam_modulate``/``oqam_demodulate`` pair.
"""

from .channel import (
    TIFS_TAPS,
    TVFS_GAINS,
    TVFS_GAINS_CORRECTED,
    EqualizationError,
    complex_awgn,
    draw_tvfs,
    fd_zf_equalize,
    freq_response,
)
from .gfdm import (
    GfdmMatrixSet,
    OqamMatrixSet,
    build_fbmc_matrices,
    build_gfdm_matrix,
    build_linear_matrices,
    build_oqam_matrices,
    build_receiver,
    gfdm_demodulate,
    gfdm_modulate,
    linear_pad_length,
    oqam_demodulate,
    oqam_modulate,
)
from .metrics import (
    MetricCurve,
    default_papr_thresholds,
    papr_batch,
    papr_ccdf,
    theoretical_ber,
)
from .prototypes import phydyas, rectangular
from .sim import (
    CHANNELS,
    METRICS,
    WAVEFORMS,
    ConfigError,
    ScenarioConfig,
    WaveformParams,
    run_ber,
    run_papr,
    run_psd,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "CHANNELS",
    "METRICS",
    "TIFS_TAPS",
    "TVFS_GAINS",
    "TVFS_GAINS_CORRECTED",
    "WAVEFORMS",
    "ConfigError",
    "EqualizationError",
    "GfdmMatrixSet",
    "MetricCurve",
    "OqamMatrixSet",
    "ScenarioConfig",
    "WaveformParams",
    "build_fbmc_matrices",
    "build_gfdm_matrix",
    "build_linear_matrices",
    "build_oqam_matrices",
    "build_receiver",
    "complex_awgn",
    "default_papr_thresholds",
    "draw_tvfs",
    "fd_zf_equalize",
    "freq_response",
    "gfdm_demodulate",
    "gfdm_modulate",
    "linear_pad_length",
    "oqam_demodulate",
    "oqam_modulate",
    "papr_batch",
    "papr_ccdf",
    "phydyas",
    "rectangular",
    "run_ber",
    "run_papr",
    "run_psd",
    "run_scenario",
    "theoretical_ber",
]

import numpy as np
import pytest

from wavemod import (
    EqualizationError,
    OfdmParams,
    TIFS_TAPS,
    build_gfdm_matrix,
    freq_response,
    gfdm_modulate,
    ofdm_demodulate,
    ofdm_modulate,
    qam_demap,
    qam_map,
    rectangular,
    theoretical_ber,
)
from wavemod.sim import _convolve_rows


class TestOfdmModulate:
    def test_dc_impulse_gives_constant(self):
        params = OfdmParams(n_fft=16, n_cp=4)
        d = np.zeros(16, dtype=complex)
        d[0] = 1.0
        x = ofdm_modulate(d, params)
        assert len(x) == 20
        np.testing.assert_allclose(x, x[0], atol=1e-14)

    def test_equals_gfdm_special_case(self):
        n = 64
        params = OfdmParams(n_fft=n, n_cp=0)
        mats = build_gfdm_matrix(rectangular(n), n, 1)
        rng = np.random.default_rng(0)
        d = qam_map(rng.integers(0, 2, 4 * n), 16)
        np.testing.assert_allclose(
            ofdm_modulate(d, params), gfdm_modulate(mats, d), atol=1e-12
        )

    def test_parseval(self):
        params = OfdmParams(n_fft=64, n_cp=8)
        rng = np.random.default_rng(1)
        d = qam_map(rng.integers(0, 2, 256), 16)
        x = ofdm_modulate(d, params)
        core = x[8:]
        assert abs(np.sum(np.abs(core) ** 2) - np.sum(np.abs(d) ** 2)) <= 1e-10


class TestOfdmDemodulate:
    def test_flat_noiseless_roundtrip(self):
        params = OfdmParams(n_fft=64, n_cp=8)
        rng = np.random.default_rng(2)
        d = qam_map(rng.integers(0, 2, 256), 16)
        y = ofdm_modulate(d, params)
        d_hat = ofdm_demodulate(y, params, np.ones(64, dtype=complex))
        np.testing.assert_allclose(d_hat, d, atol=1e-10)

    def test_tifs_noiseless_roundtrip(self):
        params = OfdmParams(n_fft=64, n_cp=16)
        taps = TIFS_TAPS.astype(complex)
        rng = np.random.default_rng(3)
        d = qam_map(rng.integers(0, 2, 256), 16)
        y = _convolve_rows(ofdm_modulate(d, params)[None, :], taps)[0]
        hf = freq_response(taps, 64)
        d_hat = ofdm_demodulate(y[: 16 + 64], params, hf)
        np.testing.assert_allclose(d_hat, d, atol=1e-8)

    def test_ber_matches_theory_at_8db(self):
        params = OfdmParams(n_fft=512, n_cp=32)
        ebn0 = 8.0
        noise_var = 1.0 / (4.0 * 10.0 ** (ebn0 / 10.0))
        rng = np.random.default_rng(4)
        errors = total = 0
        for _ in range(200):
            bits = rng.integers(0, 2, 2048)
            d = qam_map(bits, 16)
            x = ofdm_modulate(d, params)
            w = np.sqrt(noise_var / 2) * (
                rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x))
            )
            d_hat = ofdm_demodulate(x + w, params, np.ones(512, dtype=complex))
            errors += np.count_nonzero(qam_demap(d_hat, 16) != bits)
            total += len(bits)
        p = theoretical_ber(ebn0, 16)
        sigma = np.sqrt(p * (1 - p) / total)
        assert abs(errors / total - p) <= 3 * sigma

    def test_zero_channel_bin_raises(self):
        params = OfdmParams(n_fft=16, n_cp=2)
        hf = np.ones(16, dtype=complex)
        hf[5] = 0.0
        with pytest.raises(EqualizationError) as ei:
            ofdm_demodulate(np.zeros(18, dtype=complex), params, hf)
        assert ei.value.bin_index == 5

    def test_per_frame_response_matches_per_frame_calls(self):
        params = OfdmParams(n_fft=16, n_cp=2, active=np.arange(2, 14))
        rng = np.random.default_rng(6)
        y = rng.standard_normal((18, 3)) + 1j * rng.standard_normal((18, 3))
        hf = 2.0 + rng.standard_normal((16, 3)) * 0.1 + 0j
        batched = ofdm_demodulate(y, params, hf)
        for j in range(3):
            np.testing.assert_allclose(
                batched[:, j], ofdm_demodulate(y[:, j], params, hf[:, j]), rtol=0, atol=1e-12
            )

    def test_null_in_one_frame_names_its_bin(self):
        params = OfdmParams(n_fft=16, n_cp=2, active=np.arange(2, 14))
        hf = np.ones((16, 3), dtype=complex)
        hf[0, 1] = 0.0  # inactive bin: ignored
        hf[7, 2] = 0.0
        with pytest.raises(EqualizationError) as ei:
            ofdm_demodulate(np.zeros((18, 3), dtype=complex), params, hf)
        assert ei.value.bin_index == 7


class TestTheoreticalBer:
    def test_limits(self):
        assert theoretical_ber(80.0, 16) < 1e-12
        assert abs(theoretical_ber(-80.0, 16) - 0.5) < 1e-3

    def test_monotone_decreasing(self):
        grid = np.arange(-10.0, 30.0, 0.5)
        pb = theoretical_ber(grid, 16)
        assert np.all(np.diff(pb) < 0)

    def test_matches_constellation_monte_carlo(self):
        # Brute-force symbol detection over AWGN pins the closed form.
        ebn0 = 6.0
        noise_var = 1.0 / (4.0 * 10.0 ** (ebn0 / 10.0))
        rng = np.random.default_rng(5)
        n_sym = 250_000
        bits = rng.integers(0, 2, 4 * n_sym)
        d = qam_map(bits, 16)
        w = np.sqrt(noise_var / 2) * (
            rng.standard_normal(n_sym) + 1j * rng.standard_normal(n_sym)
        )
        ber = np.count_nonzero(qam_demap(d + w, 16) != bits) / len(bits)
        p = theoretical_ber(ebn0, 16)
        sigma = np.sqrt(p * (1 - p) / len(bits))
        assert abs(ber - p) <= 3 * sigma

    def test_rayleigh_above_awgn(self):
        grid = np.arange(0.0, 20.0, 2.0)
        assert np.all(
            theoretical_ber(grid, 16, channel="rayleigh") > theoretical_ber(grid, 16)
        )

    def test_rejects_unsupported(self):
        with pytest.raises(ValueError):
            theoretical_ber(10.0, 32)
        with pytest.raises(ValueError):
            theoretical_ber(10.0, 16, channel="rician")

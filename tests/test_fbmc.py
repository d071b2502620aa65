import numpy as np
import oracle
import pytest
from conftest import oqam_columns
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import pulse_bank, synthesis_pulse

from wavemod import (
    build_fbmc_matrices,
    build_linear_matrices,
    oqam_demodulate,
    oqam_modulate,
    phydyas,
)


class TestSynthesisPulse:
    def test_dc_pulse_is_prototype(self):
        p = phydyas(8, 4)
        pulse = synthesis_pulse(0, 0, "I", p, 8)
        np.testing.assert_allclose(pulse, p, atol=1e-14)

    def test_subcarrier_two_phase(self):
        k = 8
        p = phydyas(k, 4)
        pulse = synthesis_pulse(2, 0, "I", p, k)
        n = np.arange(len(p))
        want = -p * np.exp(4j * np.pi * n / k)
        np.testing.assert_allclose(pulse, want, atol=1e-12)

    def test_quadrature_is_delayed_inphase(self):
        # The quadrature pulse is the in-phase pulse delayed K/2 samples,
        # times the sign the absolute-index exponential picks up.
        k = 8
        p = phydyas(k, 4)
        for kk in range(k):
            gi = synthesis_pulse(kk, 0, "I", p, k, length=len(p) + k)
            gq = synthesis_pulse(kk, 0, "Q", p, k, length=len(p) + k)
            delayed = np.roll(gi, k // 2)
            delayed[: k // 2] = 0.0
            np.testing.assert_allclose(gq, delayed * (-1) ** kk, atol=1e-12)

    def test_rejects_bad_subcarrier(self):
        with pytest.raises(ValueError):
            synthesis_pulse(8, 0, "I", phydyas(8, 4), 8)


class TestFbmcModulate:
    def test_single_real_symbol_emits_prototype(self):
        k = 8
        p = phydyas(k, 4)
        mats = build_fbmc_matrices(p, k, 1)
        d = np.zeros(k, dtype=complex)
        d[0] = 1.0
        x = oqam_modulate(mats, d)
        np.testing.assert_allclose(x[: len(p)], p, atol=1e-14)

    def test_table_profile_burst_length(self):
        p = phydyas(128, 4)
        assert oracle.burst_length(p, 128, 4) == 513 + 7 * 64 == 961
        assert build_fbmc_matrices(p, 128, 4).frame_len == 961

    def test_matches_brute_force_double_sum(self):
        k, ms = 8, 2
        p = phydyas(k, 4)
        mats = build_fbmc_matrices(p, k, ms)
        rng = np.random.default_rng(0)
        d = oracle.qam_map(rng.integers(0, 2, 4 * k * ms), 16)
        x = oqam_modulate(mats, d)
        brute = oracle.fbmc_burst(p, k, ms, d)
        np.testing.assert_allclose(x, brute, atol=1e-12)


class TestFbmcDemodulate:
    def test_noiseless_loopback(self):
        mats = build_fbmc_matrices(phydyas(128, 4), 128, 4)
        rng = np.random.default_rng(1)
        d = oracle.qam_map(rng.integers(0, 2, 2048), 16)
        d_hat = oqam_demodulate(mats, oqam_modulate(mats, d))
        err = np.mean(np.abs(d_hat - d) ** 2) / np.mean(np.abs(d) ** 2)
        assert 10 * np.log10(err) <= -40.0

    def test_single_pulse_interference_table(self):
        mats = build_fbmc_matrices(phydyas(64, 4), 64, 4)
        p = phydyas(64, 4)
        y = synthesis_pulse(3, 1, "I", p, 64, mats.frame_len)
        d_hat = oqam_demodulate(mats, y)
        idx = 1 * 64 + 3
        assert abs(d_hat[idx].real - 1.0) <= 1e-2
        others = np.abs(np.delete(d_hat.real, idx)).max()
        assert 20 * np.log10(max(others, 1e-300)) <= -40.0

    def test_zero_input(self):
        mats = build_fbmc_matrices(phydyas(8, 4), 8, 2)
        assert not oqam_demodulate(mats, np.zeros(mats.frame_len)).any()

    def test_length_check(self):
        mats = build_fbmc_matrices(phydyas(8, 4), 8, 2)
        with pytest.raises(ValueError):
            oqam_demodulate(mats, np.zeros(5))


class TestStructuralProperties:
    def test_adjoint_identity(self):
        # <y, modulate(d)> decomposes through the unnormalized analysis
        # outputs: the analysis bank is the adjoint of the synthesis bank.
        mats = build_fbmc_matrices(phydyas(8, 4), 8, 2)
        rng = np.random.default_rng(2)
        d = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        y = rng.standard_normal(mats.frame_len) + 1j * rng.standard_normal(mats.frame_len)
        lhs = np.vdot(y, oqam_modulate(mats, d))
        gi, gq = pulse_bank(phydyas(8, 4), 8, 2)
        u = gi.conj().T @ y
        v = gq.conj().T @ y
        rhs = np.sum(np.conj(u) * d.real) + 1j * np.sum(np.conj(v) * d.imag)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_subcarrier_spectral_confinement(self):
        # Each pulse's spectrum keeps all but a tiny energy fraction within
        # one subcarrier spacing of its center frequency.
        k = 64
        p = phydyas(k, 4)
        for kk in (0, 5, 31):
            pulse = synthesis_pulse(kk, 0, "I", p, k)
            spec = np.fft.fft(pulse, 16 * len(pulse))
            f = np.fft.fftfreq(len(spec))
            dist = np.abs((f - kk / k + 0.5) % 1.0 - 0.5)
            out = np.sum(np.abs(spec[dist > 1.0 / k]) ** 2) / np.sum(np.abs(spec) ** 2)
            assert out <= 1e-4

    def test_pulse_bank_matches_linear_matrices(self):
        k, m = 16, 2
        p = phydyas(k, 4)
        gi, gq = pulse_bank(p, k, m)
        a_i, a_q = oqam_columns(build_linear_matrices(p, k, m))
        nb = gi.shape[0]
        assert np.abs(gi - a_i[:nb]).max() <= 1e-12
        assert np.abs(gq - a_q[:nb]).max() <= 1e-12
        assert not a_i[nb:].any()
        # ... and the dense oracle pair has the same columns.
        dense_i, dense_q = oracle.build_linear_matrices(p, k, m)
        assert np.abs(gi - dense_i[:nb]).max() <= 1e-12
        assert np.abs(gq - dense_q[:nb]).max() <= 1e-12

    def test_cut_is_a_view_of_the_linear_pair(self):
        # The FBMC set is the linear one with its frame cut to the support:
        # same rows, and a burst that is the linear frame's first samples.
        p = phydyas(16, 4)
        mats = build_fbmc_matrices(p, 16, 2)
        lin = build_linear_matrices(p, 16, 2)
        assert mats.frame_len == mats.support_len == lin.support_len == oracle.burst_length(p, 16, 2)
        np.testing.assert_array_equal(mats.band, lin.band)
        d = np.random.default_rng(3).standard_normal(32) * (1 + 1j)
        np.testing.assert_array_equal(
            oqam_modulate(mats, d), oqam_modulate(lin, d)[: mats.frame_len]
        )


class TestOqamCoreAgainstPulseOracle:
    """The FFT modem core on the FBMC cut, against the pulse-by-pulse bank."""

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 16).map(lambda h: 2 * h),
        ms=st.integers(1, 4),
        overlap=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cut_matrices_and_modem_match_oracle(self, k, ms, overlap, seed):
        p = phydyas(k, overlap)
        gi, gq = pulse_bank(p, k, ms)
        mats = build_fbmc_matrices(p, k, ms)
        a_i, a_q = oqam_columns(mats)
        assert a_i.shape == gi.shape
        assert np.abs(a_i - gi).max() <= 1e-12
        assert np.abs(a_q - gq).max() <= 1e-12

        rng = np.random.default_rng(seed)
        d = rng.standard_normal(k * ms) + 1j * rng.standard_normal(k * ms)
        x = oqam_modulate(mats, d)
        assert np.abs(x - oracle.fbmc_burst(p, k, ms, d)).max() <= 1e-10

        # Adjoint: Re<y, modulate(d)> = <d, demodulate(y)> in the real pairing
        # of the I and Q decision domains, once the per-symbol gains that
        # demodulate divides out are put back.
        y = rng.standard_normal(mats.frame_len) + 1j * rng.standard_normal(mats.frame_len)
        d_hat = oqam_demodulate(mats, y)
        gain_i = np.sum(np.abs(gi) ** 2, axis=0)
        gain_q = np.sum(np.abs(gq) ** 2, axis=0)
        lhs = np.vdot(y, x).real
        rhs = np.sum(d.real * gain_i * d_hat.real + d.imag * gain_q * d_hat.imag)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(y) * np.linalg.norm(x))

"""CP-OFDM as the pipeline runs it: plain GFDM with K = n_fft, M = 1 and the rect pulse."""

import warnings
from decimal import Decimal, localcontext

import numpy as np
import oracle
import pytest
from conftest import receive, received
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemod import (
    CHANNELS,
    EqualizationError,
    TIFS_TAPS,
    build_gfdm_matrix,
    gfdm_modulate,
    rectangular,
    theoretical_ber,
)
from wavemod.sim import (
    ScenarioConfig,
    WaveformParams,
    _draw_chunk,
    build_adapter,
    run_ber,
)
from wavemod.metrics import _gray_qam_q_terms


def _config(n_fft, cp_len, active=None, channel="awgn", receiver="zf"):
    wp = WaveformParams(n_fft=n_fft, cp_len=cp_len, active=active, receiver=receiver)
    cfg = ScenarioConfig(waveform="ofdm", channel=channel, waveform_params=wp)
    cfg.validate()
    return cfg


def _ofdm(n_fft, cp_len, active=None, channel="awgn", receiver="zf"):
    return build_adapter(_config(n_fft, cp_len, active, channel, receiver))


def _null_taps(n_fft, k):
    """Two taps whose n_fft-point response vanishes at bin k."""
    return np.array([1.0, -np.exp(2j * np.pi * k / n_fft)])


class TestOfdmModulate:
    def test_dc_impulse_gives_constant(self):
        d = np.zeros(16, dtype=complex)
        d[0] = 1.0
        x = _ofdm(16, 4).transmit(d[None])[0]
        assert len(x) == 20
        np.testing.assert_allclose(x, x[0], atol=1e-14)

    def test_equals_gfdm_special_case(self):
        n = 64
        mats = build_gfdm_matrix(rectangular(n), n, 1)
        rng = np.random.default_rng(0)
        d = oracle.qam_map(rng.integers(0, 2, 4 * n), 16)
        np.testing.assert_allclose(oracle.ofdm_modulate(d, n, 0), gfdm_modulate(mats, d), atol=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(1)
        d = oracle.qam_map(rng.integers(0, 2, 256), 16)
        x = _ofdm(64, 8).transmit(d[None])[0]
        core = x[8:]
        assert abs(np.sum(np.abs(core) ** 2) - np.sum(np.abs(d) ** 2)) <= 1e-10


class TestOfdmDemodulate:
    def test_flat_noiseless_roundtrip(self):
        adapter = _ofdm(64, 8)
        rng = np.random.default_rng(2)
        d = oracle.qam_map(rng.integers(0, 2, 256), 16)[None]
        d_hat = receive(adapter, adapter.transmit(d), [1.0 + 0j], 0.0)
        np.testing.assert_allclose(d_hat, d, atol=1e-10)

    def test_tifs_noiseless_roundtrip(self):
        adapter = _ofdm(64, 16, channel="tifs")
        taps = TIFS_TAPS.astype(complex)
        rng = np.random.default_rng(3)
        d = oracle.qam_map(rng.integers(0, 2, 256), 16)[None]
        y = oracle.convolve_rows(adapter.transmit(d), taps)
        np.testing.assert_allclose(receive(adapter, y, taps, 0.0), d, atol=1e-8)

    def test_ber_matches_theory_at_8db(self):
        adapter = _ofdm(512, 32)
        ebn0 = 8.0
        noise_var = 1.0 / (4.0 * 10.0 ** (ebn0 / 10.0))
        rng = np.random.default_rng(4)
        errors = total = 0
        for _ in range(200):
            bits = rng.integers(0, 2, 2048)
            d = oracle.qam_map(bits, 16)
            x = adapter.transmit(d[None])[0]
            w = np.sqrt(noise_var / 2) * (
                rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x))
            )
            d_hat = receive(adapter, (x + w)[None], [1.0 + 0j], noise_var)[0]
            errors += np.count_nonzero(oracle.qam_demap(d_hat, 16) != bits)
            total += len(bits)
        p = theoretical_ber(ebn0, 16)
        sigma = np.sqrt(p * (1 - p) / total)
        assert abs(errors / total - p) <= 3 * sigma

    def test_zero_channel_bin_raises(self):
        with pytest.raises(EqualizationError) as ei:
            receive(_ofdm(16, 2), np.zeros((1, 18), dtype=complex), _null_taps(16, 5), 0.0)
        assert ei.value.bin_index == 5

    def test_per_frame_response_matches_per_frame_calls(self):
        adapter = _ofdm(16, 2, active=tuple(range(2, 14)))
        rng = np.random.default_rng(6)
        y = rng.standard_normal((3, 18)) + 1j * rng.standard_normal((3, 18))
        taps = np.column_stack([2.0 + 0.1 * rng.standard_normal(3), 0.1 * rng.standard_normal(3)]) + 0j
        batched = receive(adapter, y, taps, 0.0)
        for j in range(3):
            np.testing.assert_allclose(
                batched[j], receive(adapter, y[j:j + 1], taps[j], 0.0)[0], rtol=0, atol=1e-12
            )

    def test_null_in_one_frame_names_its_bin(self):
        # Zero forcing runs over every bin of the frame, as for all the CP
        # waveforms, so a null on an inactive bin raises too.
        adapter = _ofdm(16, 2, active=tuple(range(2, 14)))
        taps = np.array([[1.0, 0.0], [1.0, 0.0], _null_taps(16, 7)])
        with pytest.raises(EqualizationError) as ei:
            receive(adapter, np.zeros((3, 18), dtype=complex), taps, 0.0)
        assert ei.value.bin_index == 7


class TestOfdmAdapter:
    """The pipeline's OFDM against the oracle, and its receiver-independence."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_fft=st.integers(2, 64),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_transmit_matches_oracle(self, n_fft, data, seed):
        cp_len = data.draw(st.integers(0, n_fft - 1))
        active = data.draw(
            st.none() | st.lists(st.integers(0, n_fft - 1), min_size=1, unique=True).map(tuple)
        )
        adapter = _ofdm(n_fft, cp_len, active)
        rng = np.random.default_rng(seed)
        d = rng.standard_normal((adapter.n_data, 3)) + 1j * rng.standard_normal((adapter.n_data, 3))
        # The core places the active symbols in ascending bin order.
        bins = None if active is None else sorted(active)
        np.testing.assert_allclose(
            adapter.transmit(d.T).T, oracle.ofdm_modulate(d, n_fft, cp_len, bins), rtol=0, atol=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(
        channel=st.sampled_from(CHANNELS),
        n_fft=st.integers(8, 64),
        noise_var=st.floats(1e-3, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_receive_does_not_depend_on_receiver(self, channel, n_fft, noise_var, seed):
        # At M = 1 with the rect pulse, ZF, MF and MMSE are the same weights.
        cfg = _config(n_fft, 7, channel=channel)
        adapter = build_adapter(cfg)
        _, _, taps, noise = _draw_chunk(cfg, adapter, seed, 0, 3, True)
        y = received(adapter, np.zeros((3, adapter.frame_len)), taps, noise, 1.0)
        out = {r: receive(_ofdm(n_fft, 7, channel=channel, receiver=r), y, taps, noise_var)
               for r in ("zf", "mf", "mmse")}
        scale = max(1.0, np.abs(out["zf"]).max())
        for r in ("mf", "mmse"):
            np.testing.assert_allclose(out[r], out["zf"], rtol=0, atol=1e-12 * scale)

    def test_ber_does_not_depend_on_receiver(self):
        counts = []
        for receiver in ("zf", "mf", "mmse"):
            cfg = ScenarioConfig(
                waveform="ofdm", channel="tifs", ebn0_grid_db=(4.0, 8.0), frames=20,
                error_target=None, waveform_params=WaveformParams(receiver=receiver),
            )
            counts.append(run_ber(cfg).extra["errors"])
        np.testing.assert_array_equal(counts[0], counts[1])
        np.testing.assert_array_equal(counts[0], counts[2])


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
        d = oracle.qam_map(bits, 16)
        w = np.sqrt(noise_var / 2) * (
            rng.standard_normal(n_sym) + 1j * rng.standard_normal(n_sym)
        )
        ber = np.count_nonzero(oracle.qam_demap(d + w, 16) != bits) / len(bits)
        p = theoretical_ber(ebn0, 16)
        sigma = np.sqrt(p * (1 - p) / len(bits))
        assert abs(ber - p) <= 3 * sigma

    def test_rayleigh_above_awgn(self):
        grid = np.arange(0.0, 20.0, 2.0)
        assert np.all(
            theoretical_ber(grid, 16, channel="rayleigh") > theoretical_ber(grid, 16)
        )

    def test_qpsk_at_zero_db(self):
        # QPSK at Eb/N0 = 1: Q(sqrt(2)) = erfc(1) / 2.
        assert abs(theoretical_ber(0.0, 4) - 0.07864960352514258) <= 1e-15

    def test_scalar_in_scalar_out(self):
        assert np.ndim(theoretical_ber(6.0, 16)) == 0
        grid = np.arange(12.0).reshape(3, 4)
        for channel in ("awgn", "rayleigh"):
            pb = theoretical_ber(grid, 16, channel=channel)
            assert isinstance(pb, np.ndarray) and pb.shape == grid.shape
            assert pb[1, 2] == theoretical_ber(6.0, 16, channel=channel)

    @pytest.mark.parametrize("channel", ["awgn", "rayleigh"])
    def test_extreme_ebn0_is_finite_and_silent(self, channel):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pb = theoretical_ber([-4000.0, 4000.0], 16, channel=channel)
        np.testing.assert_allclose(pb, [0.5, 0.0], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_rayleigh_matches_60_digit_expansion(self, order):
        # The same Q-term expansion in 60-digit decimals; 1 - sqrt(h/(1+h))
        # in doubles lost 8 digits to cancellation at 100 dB.
        grid = np.arange(0.0, 101.0, 5.0)
        got = theoretical_ber(grid, order, channel="rayleigh")
        with localcontext() as ctx:
            ctx.prec = 60
            for db, pb in zip(grid, got):
                ebn0 = Decimal(10) ** (Decimal(float(db)) / 10)
                base = 3 * Decimal(int(np.log2(order))) * ebn0 / (order - 1)
                want = Decimal(0)
                for weight, mult in _gray_qam_q_terms(order):
                    h = mult ** 2 * base / 2
                    want += Decimal(weight) * (1 - (h / (1 + h)).sqrt()) / 2
                assert abs(Decimal(float(pb)) - want) <= Decimal("1e-12") * want

    def test_rejects_unsupported(self):
        with pytest.raises(ValueError):
            theoretical_ber(10.0, 32)

    @pytest.mark.parametrize("channel", ["rician", "AWGN", "Rayleigh"])
    def test_rejects_unknown_channel(self, channel):
        # The channels are "awgn" and "rayleigh", spelled so.
        with pytest.raises(ValueError, match="unknown channel"):
            theoretical_ber(10.0, 16, channel=channel)

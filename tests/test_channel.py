import numpy as np
import pytest
from conftest import cp_channel
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import circulant_matrix, convolve_rows, qam_map

from wavemod import (
    EqualizationError,
    TIFS_TAPS,
    TVFS_GAINS,
    TVFS_GAINS_CORRECTED,
    build_linear_matrices,
    complex_awgn,
    draw_tvfs,
    fd_zf_equalize,
    freq_response,
    oqam_modulate,
    phydyas,
)
from wavemod._work import BLOCK
from wavemod.channel import MIN_ZF_BIN, PROFILE_MEMORY, draw_taps, tvfs_gains
from wavemod.sim import ScenarioConfig, WaveformParams, _draw_chunk, build_adapter


def _chunk_taps(channel):
    """The taps the BER pipeline draws for a chunk of three frames."""
    cfg = ScenarioConfig(waveform="ofdm", channel=channel, waveform_params=WaveformParams(n_fft=32, cp_len=4))
    return _draw_chunk(cfg, build_adapter(cfg), 0, 0, 3)[2]


class TestProfiles:
    def test_tifs_taps(self):
        taps = _chunk_taps("tifs")
        np.testing.assert_array_equal(taps.real, [1, 0, 0, 0, 0.4, 0, 0, 0.2])
        assert len(taps) == 8

    def test_tifs_dc_response(self):
        assert abs(freq_response(TIFS_TAPS, 64)[0] - 1.6) <= 1e-12

    def test_awgn_single_unit_tap(self):
        np.testing.assert_array_equal(_chunk_taps("awgn"), [1.0 + 0j])

    @pytest.mark.parametrize("corrected", [False, True])
    @pytest.mark.parametrize("profile", ["awgn", "tifs", "tvfs"])
    def test_draw_taps_are_the_chunk_draws(self, profile, corrected):
        # From one generator state: the unit tap, the TIFS taps, or TVFS fades
        # from a (2, frames, 4) standard normal draw, real parts first, at
        # unit complex variance times the gains.  Only TVFS moves the
        # generator, and a profile's memory is its tap count minus 1.
        rng, ref = (np.random.Generator(np.random.SFC64(9)) for _ in range(2))
        taps = draw_taps(profile, rng, 3, corrected)
        if profile == "tvfs":
            parts = ref.standard_normal((2, 3, 4)) * np.sqrt(0.5)
            want = tvfs_gains(corrected) * (parts[0] + 1j * parts[1])
        else:
            want = TIFS_TAPS.astype(complex) if profile == "tifs" else np.array([1.0 + 0j])
        np.testing.assert_array_equal(taps, want)
        assert rng.random() == ref.random()
        assert PROFILE_MEMORY[profile] == taps.shape[-1] - 1

    def test_tvfs_second_tap_always_zero(self):
        rng = np.random.default_rng(0)
        assert np.all(draw_tvfs(rng, 100)[:, 1] == 0.0)

    @pytest.mark.parametrize(
        "corrected,gains", [(False, TVFS_GAINS), (True, TVFS_GAINS_CORRECTED)], ids=["verbatim", "corrected"]
    )
    def test_tvfs_gains_picks_the_profile(self, corrected, gains):
        assert tvfs_gains(corrected) is gains

    def test_tvfs_corrected_tap_powers(self):
        # Tap n of a corrected draw is gain_n times a unit complex Gaussian,
        # so |tap_n|^2 is gain_n^2 * Exp(1): its mean has std gain_n^2 / sqrt(n).
        rng = np.random.default_rng(4)
        n = 100_000
        powers = np.mean(np.abs(draw_tvfs(rng, n, corrected=True)) ** 2, axis=0)
        expected = TVFS_GAINS_CORRECTED ** 2
        assert np.all(np.abs(powers - expected) <= 4 * expected / np.sqrt(n))

    def test_tvfs_first_tap_power(self):
        rng = np.random.default_rng(1)
        n = 100_000
        powers = np.abs(draw_tvfs(rng, n)[:, 0]) ** 2
        # |tap0|^2 is 0.5 * Exp(1): mean 0.5, std 0.5
        assert abs(powers.mean() - 0.5) <= 3 * 0.5 / np.sqrt(n)

    def test_tvfs_per_subcarrier_flatness(self):
        # With the verbatim gains the channel is essentially one tap: the
        # response ripple inside any one of 128 subcarriers stays tiny.
        rng = np.random.default_rng(2)
        hf = np.abs(freq_response(draw_tvfs(rng, 20), 512))
        per_sub = hf.reshape(20, 128, 4)
        ripple_db = 20 * np.log10(per_sub.max(axis=2) / per_sub.min(axis=2))
        assert ripple_db.max() <= 0.1

    def test_tvfs_block_fading_independence(self):
        rng = np.random.default_rng(3)
        n = 10_000
        t0 = draw_tvfs(rng, n)[:, 0]
        corr = np.abs(np.mean(t0[:-1] * np.conj(t0[1:]))) / np.mean(np.abs(t0) ** 2)
        assert corr <= 3.0 / np.sqrt(n - 1)


class TestApplyChannel:
    """The reference channel, ``oracle.convolve_rows``, plus complex noise.

    ``complex_awgn`` draws the noise's real parts, then its imaginary parts.
    """

    def test_identity(self):
        x = np.arange(8.0) + 0j
        np.testing.assert_array_equal(convolve_rows(x[None, :], _chunk_taps("awgn"))[0], x)

    def test_circular_matches_circulant_matrix(self):
        # Behind a cyclic prefix the linear channel acts on the core circularly.
        rng = np.random.default_rng(4)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        np.testing.assert_allclose(
            cp_channel(x, TIFS_TAPS, 7), circulant_matrix(TIFS_TAPS, 32) @ x, atol=1e-12
        )

    def test_linear_mode_lengthens_frame(self):
        x = np.ones((1, 32), dtype=complex)
        y = convolve_rows(x, TIFS_TAPS.astype(complex))
        assert y.shape == (1, 32 + 7)

    def test_noise_variance(self):
        rng = np.random.default_rng(5)
        x = np.zeros((1, 1_000_000), dtype=complex)
        clean = convolve_rows(x, _chunk_taps("awgn"))
        y = clean + complex_awgn(rng, clean.shape, 0.25)
        assert abs(np.mean(np.abs(y) ** 2) - 0.25) / 0.25 <= 0.01

    def test_convolution_theorem(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        y = cp_channel(x, TIFS_TAPS, 7)
        lhs = np.fft.fft(y)
        rhs = np.fft.fft(x) * freq_response(TIFS_TAPS, 64)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @pytest.mark.parametrize("shape", [7, (3, 5)])
    def test_noise_parts_are_the_complex_draw(self, shape):
        # One draw of real parts then imaginary parts, as two draws of the shape.
        noise = complex_awgn(np.random.default_rng(8), shape, 0.3)
        parts = np.random.default_rng(8).standard_normal((2, *noise.shape)) * np.sqrt(0.15)
        np.testing.assert_array_equal(noise.real, parts[0])
        np.testing.assert_array_equal(noise.imag, parts[1])
        first = np.random.default_rng(8).standard_normal(noise.shape)
        np.testing.assert_array_equal(noise.real, first * np.sqrt(0.15))

    def test_noise_whiteness(self):
        rng = np.random.default_rng(7)
        n = 200_000
        w = complex_awgn(rng, n, 1.0)
        for lag in (1, 2, 5):
            r = np.abs(np.mean(w[:-lag] * np.conj(w[lag:])))
            assert r <= 3.0 / np.sqrt(n - lag)


class TestCirculantMatrix:
    def test_identity_for_flat(self):
        np.testing.assert_array_equal(circulant_matrix([1.0], 4), np.eye(4))

    def test_cyclic_delay(self):
        h = circulant_matrix([0.0, 1.0], 3)
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(h @ x, [3.0, 1.0, 2.0])

    def test_eigenvalues_are_dft_of_taps(self):
        taps = np.array([1.0, 0.5, 0.25])
        h = circulant_matrix(taps, 16)
        eig = np.linalg.eigvals(h)
        want = freq_response(taps, 16)
        key = lambda a: np.lexsort((np.round(a.imag, 8), np.round(a.real, 8)))
        np.testing.assert_allclose(eig[key(eig)], want[key(want)], atol=1e-10)

    def test_rejects_too_many_taps(self):
        with pytest.raises(ValueError):
            circulant_matrix(np.ones(5), 4)


class TestFdZfEqualize:
    def test_flat_identity(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        np.testing.assert_allclose(fd_zf_equalize(y, [1.0], 64), y, atol=1e-12)

    def test_tifs_circular_exact_inversion(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        y = cp_channel(x, TIFS_TAPS, 7)
        np.testing.assert_allclose(fd_zf_equalize(y, TIFS_TAPS, 128), x, atol=1e-9)

    def test_tifs_linear_mode_low_residual(self):
        # Full-frame ZF over a zero-padded FFT inverts linear convolution of
        # a prefix-free frame to numerical precision.
        mats = build_linear_matrices(phydyas(128, 4), 128, 4)
        rng = np.random.default_rng(10)
        d = qam_map(rng.integers(0, 2, 2048), 16)
        x = oqam_modulate(mats, d)
        y = np.convolve(x, TIFS_TAPS)
        fft_len = 1 << int(np.ceil(np.log2(len(y))))
        x_hat = fd_zf_equalize(y, TIFS_TAPS, fft_len)[: len(x)]
        res = np.sum(np.abs(x_hat - x) ** 2) / np.sum(np.abs(x) ** 2)
        assert 10 * np.log10(res) <= -50.0

    def test_zero_bin_raises_named_error(self):
        y = np.ones(16, dtype=complex)
        with pytest.raises(EqualizationError) as ei:
            fd_zf_equalize(y, [1.0, -1.0], 16)  # response has a null at DC
        assert ei.value.bin_index == 0
        assert "bin 0" in str(ei.value)

    def test_zero_flat_tap_raises(self):
        with pytest.raises(EqualizationError, match="bin 0"):
            fd_zf_equalize(np.ones((2, 16), dtype=complex), np.array([[1.0], [0.0]]), 16)

    def test_null_in_a_late_frame_is_found(self):
        # Frames are checked a few at a time; a null past the first few still raises.
        taps = np.tile([1.0, 0.5], (3 * BLOCK // 16, 1))
        taps[-2] = [1.0, 1.0]
        with pytest.raises(EqualizationError, match="bin 8"):
            fd_zf_equalize(np.ones((len(taps), 16), dtype=complex), taps, 16)

    @pytest.mark.parametrize("n_taps", [1, 3])
    def test_transform_runs_in_out(self, n_taps):
        rng = np.random.default_rng(n_taps)
        y = rng.standard_normal((4, 20)) + 1j * rng.standard_normal((4, 20))
        taps = np.r_[1.0, 0.3 * rng.standard_normal(n_taps - 1)] + 0j
        out = np.empty((4, 32), dtype=complex)
        got = fd_zf_equalize(y, taps, 32, out=out)
        assert got.shape == y.shape and np.shares_memory(got, out)
        np.testing.assert_array_equal(got, fd_zf_equalize(y, taps, 32))


    @pytest.mark.parametrize("per_frame", [False, True])
    def test_aliased_input_equals_a_copy(self, per_frame):
        # y may be the leading columns of out, the array the transform runs in.
        rng = np.random.default_rng(11)
        y = rng.standard_normal((4, 20)) + 1j * rng.standard_normal((4, 20))
        taps = _dominant_first_taps(rng, 4, 3) if per_frame else np.array([1.0, 0.3j, -0.2])
        want = fd_zf_equalize(y, taps, 32)
        out = np.full((4, 32), np.nan + 0j)  # the tail must be zeroed, not trusted
        out[:, :20] = y
        got = fd_zf_equalize(out[:, :20], taps, 32, out=out)
        assert np.shares_memory(got, out)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("taps", [[1.0], [[1.0], [1.0 + 0j]]])
    def test_unit_tap_returns_its_input(self, taps):
        y = np.array([[0.5 - 0.0j, -0.0 + 1e-300j], [np.inf, -3.0 - 2.0j]])
        out = np.empty_like(y)
        out[:] = y
        got = fd_zf_equalize(out, taps, 2, out=out)
        assert np.shares_memory(got, out)
        np.testing.assert_array_equal(got.view(np.uint64), y.view(np.uint64))
        np.testing.assert_array_equal(fd_zf_equalize(y, taps, 2).view(np.uint64), y.view(np.uint64))

    def test_response_is_overwritten_with_its_inverse(self):
        hf = freq_response(TIFS_TAPS, 16)
        want = 1.0 / hf
        fd_zf_equalize(np.ones(16, dtype=complex), TIFS_TAPS, 16, hf=hf)
        np.testing.assert_allclose(hf, want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("shape", [(16,), (3, 16)])
    def test_weak_bin_of_a_given_response_raises(self, shape):
        hf = np.ones(shape, dtype=complex)
        hf[..., 5] = 0.5 * MIN_ZF_BIN * np.exp(0.7j)
        with pytest.raises(EqualizationError) as got:
            fd_zf_equalize(np.ones(shape, dtype=complex), np.ones(2), 16, hf=hf)
        assert (got.value.bin_index, got.value.magnitude) == (5, float(np.abs(hf[..., 5].flat[0])))
        assert str(got.value).startswith("ill-conditioned equalization: bin 5 has magnitude")


class TestFlatChannel:
    """One tap takes the transform like any channel: with a zero tap appended it equalizes the same."""

    @settings(max_examples=40, deadline=None)
    @given(
        frames=st.integers(1, 8),
        n=st.integers(1, 40),
        pad=st.integers(0, 24),
        per_frame=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_tap_matches_fft_path(self, frames, n, pad, per_frame, seed):
        rng = np.random.default_rng(seed)
        taps = rng.uniform(0.5, 2.0, (frames, 1)) * np.exp(2j * np.pi * rng.uniform(size=(frames, 1)))
        if not per_frame:
            taps = taps[0]
        fft_taps = np.concatenate([taps, np.zeros_like(taps)], axis=-1)
        x = rng.standard_normal((frames, n)) + 1j * rng.standard_normal((frames, n))
        fft_len = max(n, 2) + pad
        np.testing.assert_allclose(
            fd_zf_equalize(x, taps, fft_len), fd_zf_equalize(x, fft_taps, fft_len), rtol=0, atol=1e-12
        )


class TestFreqResponse:
    """The response as taps times DFT rows, and the squared-magnitude bin check."""

    @pytest.mark.parametrize(
        "n_taps,fft_len",
        [(t, n) for t in range(1, 10) for n in (8, 16, 544, 1024, 4096) if t <= n],
    )
    def test_matches_zero_padded_fft(self, n_taps, fft_len):
        rng = np.random.default_rng(n_taps * 10_000 + fft_len)
        for shape in ((n_taps,), (5, n_taps)):
            taps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            want = np.fft.fft(taps, n=fft_len, axis=-1)
            got = freq_response(taps, fft_len)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_writes_into_out(self):
        taps = np.array([[1.0, 0.5j], [0.25, 1.0]])
        out = np.empty((2, 16), dtype=complex)
        assert freq_response(taps, 16, out=out) is out
        np.testing.assert_allclose(out, np.fft.fft(taps, n=16, axis=-1), rtol=0, atol=1e-15)

    def test_dc_null_names_bin_and_magnitude(self):
        taps = np.array([1.0, -1.0])
        with pytest.raises(EqualizationError) as ei:
            fd_zf_equalize(np.ones(16, dtype=complex), taps, 16, hf=freq_response(taps, 16))
        want = np.abs(np.fft.fft(taps, 16))
        assert (ei.value.bin_index, ei.value.magnitude) == (0, want[0])

    def test_bin_just_below_threshold_raises(self):
        hf = np.ones((3, 16), dtype=complex)
        hf[1, 5] = 0.999 * MIN_ZF_BIN * np.exp(0.3j)
        magnitude = float(np.abs(hf[1, 5]))
        with pytest.raises(EqualizationError) as ei:
            fd_zf_equalize(np.ones((3, 16), dtype=complex), np.ones((3, 2)), 16, hf=hf)
        assert (ei.value.bin_index, ei.value.magnitude) == (5, magnitude)
        assert "bin 5" in str(ei.value)

    def test_bin_just_above_threshold_passes(self):
        hf = np.ones((3, 16), dtype=complex)
        hf[1, 5] = 1.001 * MIN_ZF_BIN * np.exp(0.3j)
        fd_zf_equalize(np.ones((3, 16), dtype=complex), np.ones((3, 2)), 16, hf=hf)


def _dominant_first_taps(rng, frames, n_taps):
    """Per-frame taps whose first tap outweighs the rest, so no bin nears zero."""
    taps = rng.uniform(-0.5, 0.5, (frames, n_taps)) + 1j * rng.uniform(-0.5, 0.5, (frames, n_taps))
    taps[:, 0] = n_taps
    return taps


class TestPerFrameTaps:
    @settings(max_examples=40, deadline=None)
    @given(
        frames=st.integers(1, 8),
        n_taps=st.integers(1, 8),
        n=st.integers(1, 40),
        pad=st.integers(0, 24),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_calls_match_per_frame_calls(self, frames, n_taps, n, pad, seed):
        rng = np.random.default_rng(seed)
        taps = _dominant_first_taps(rng, frames, n_taps)
        y = rng.standard_normal((frames, n)) + 1j * rng.standard_normal((frames, n))
        fft_len = max(n, n_taps) + pad
        hf = freq_response(taps, fft_len)
        assert hf.shape == (frames, fft_len)
        for j in range(frames):
            np.testing.assert_allclose(hf[j], freq_response(taps[j], fft_len), rtol=0, atol=1e-12)
        batched = fd_zf_equalize(y, taps, fft_len)
        looped = np.array([fd_zf_equalize(y[j], taps[j], fft_len) for j in range(frames)])
        np.testing.assert_allclose(batched, looped, rtol=0, atol=1e-12)

    def test_null_in_one_frame_names_its_bin(self):
        # 1 + z^-1 has a null at half the sampling rate: bin 8 of 16.
        taps = np.array([[1.0, 0.5], [1.0, 1.0], [1.0, 0.25]])
        with pytest.raises(EqualizationError) as ei:
            fd_zf_equalize(np.ones((3, 16), dtype=complex), taps, 16)
        assert ei.value.bin_index == 8
        assert "bin 8" in str(ei.value)

    def test_rejects_tap_sets_per_frame_mismatch(self):
        with pytest.raises(ValueError):
            fd_zf_equalize(np.ones((3, 16), dtype=complex), np.ones((2, 2)), 16)

    def test_rejects_more_taps_than_bins(self):
        with pytest.raises(ValueError):
            freq_response(np.ones(9), 8)

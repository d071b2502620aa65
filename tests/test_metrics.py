import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import ofdm_modulate, welch_loop, welch_psd

from wavemod import MetricCurve, default_papr_thresholds, papr_batch, papr_ccdf
from wavemod._work import BLOCK
from wavemod.metrics import WelchAccumulator


class TestWelchPsd:
    def test_complex_exponential_peak(self):
        f0 = 0.125
        n = np.arange(65536)
        x = np.exp(2j * np.pi * f0 * n)
        curve = welch_psd(x)
        peak_f = curve.abscissa[np.argmax(curve.values)]
        assert abs(peak_f - f0) <= 1.0 / 2048

    def test_white_noise_flat(self):
        rng = np.random.default_rng(0)
        n = 2048 * 1000
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        curve = welch_psd(x)
        assert curve.values.max() <= 0.5
        assert curve.values.min() >= -0.5

    def test_parseval_consistency(self):
        rng = np.random.default_rng(1)
        n = 2048 * 200
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # Use the raw (unnormalized) estimate via a flat reference: the
        # plateau normalization divides by a constant, so compare shapes.
        curve = welch_psd(x)
        lin = 10.0 ** (curve.values / 10.0)
        # integral over normalized frequency of the normalized PSD times the
        # plateau equals mean power; with a flat spectrum the integral is ~1.
        integral = np.trapezoid(lin, curve.abscissa)
        assert abs(integral - 1.0) <= 0.02

    def test_ofdm_sidelobe_near_band_edge(self):
        # A sub-band OFDM stream decays steeply right outside its band; the
        # first sidelobe of the rectangular pulse sits near -13 dB.
        rng = np.random.default_rng(2)
        n_fft, half = 256, 56
        active = np.arange(-half, half) % n_fft
        frames = []
        for _ in range(200):
            d = np.exp(2j * np.pi * rng.random(2 * half))
            frames.append(ofdm_modulate(d, n_fft, 0, active))
        curve = welch_psd(np.concatenate(frames), seg_len=1024)
        edge = (half - 1) / n_fft
        probe = edge + 1.0 / n_fft
        val = curve.interpolate(probe)
        assert -20.0 <= val <= -8.0

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            welch_psd(np.ones(16), seg_len=2048)

    @pytest.mark.parametrize(
        "stream", [np.ones(64), (np.ones(128) + 0j)[::2]], ids=["real", "strided"]
    )
    def test_accumulator_refuses_real_or_strided_segments(self, stream):
        # It cuts segments at fixed byte offsets and windows interleaved (re,
        # im) floats; other streams fail, not misread.
        with pytest.raises(ValueError):
            WelchAccumulator(16, 64).add(stream)

    @pytest.mark.parametrize("length", [0, 15, 16, 23, 24, 100])
    def test_add_takes_every_whole_segment(self, length):
        # add(stream) windows the segments sliding_window_view cuts every step
        # samples, bit for bit, and returns where the next one starts.  The
        # batch holds 4 segments, so 100 samples (11 segments) fill it twice.
        stream = np.random.default_rng(length).standard_normal(2 * length).view(complex)
        welch = WelchAccumulator(16, 40)
        added = []

        def capture():
            added.append(welch._batch[:welch._filled].copy())
            welch._filled = 0

        welch._flush = capture
        done = welch.add(stream)
        capture()
        n_seg = max(0, (length - 16) // 8 + 1)
        assert (welch.step, done, welch.n_segments) == (8, n_seg * 8, n_seg)
        want = np.empty((0, 16), complex)
        if n_seg:  # sliding_window_view refuses a stream shorter than its window
            want = np.lib.stride_tricks.sliding_window_view(stream, 16)[::8].copy()
        want.real *= welch.window
        want.imag *= welch.window
        got = np.concatenate(added)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_short_stream_takes_memory_for_its_segments_only(self):
        # One 2,048-sample segment: a 32 KB batch, not a full 128-segment (4 MB) one.
        x = np.random.default_rng(3).standard_normal(2048) + 0j
        tracemalloc.start()
        try:
            welch_psd(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 256 * 2**10

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        half=st.integers(4, 1024),
        n_seg=st.integers(1, 600),
        tail=st.floats(0.0, 1.0, exclude_max=True),
        complex_stream=st.booleans(),
        strided=st.booleans(),
    )
    def test_matches_segment_loop(self, seed, half, n_seg, tail, complex_stream, strided):
        # Even seg_len in 8..2048, up to 600 segments (so past the 128-segment
        # batch) and a partial trailing segment the estimate must drop; real,
        # complex, and every other sample of a longer stream.
        seg_len = 2 * half
        length = (n_seg + 1) * half + int(tail * half)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(2 * length if strided else length)
        if complex_stream:
            x = x + 1j * rng.standard_normal(len(x))
        if strided:
            x = x[::2]
        curve = welch_psd(x, seg_len=seg_len)
        freqs, pxx = welch_loop(x, seg_len)
        ref = np.fft.fftshift(pxx)
        ref = ref / np.median(ref[ref >= ref.max() / 2.0])
        np.testing.assert_allclose(curve.abscissa, np.fft.fftshift(freqs), rtol=0, atol=1e-15)
        np.testing.assert_allclose(10.0 ** (curve.values / 10.0), ref, rtol=1e-12, atol=0)


def _papr(frame) -> float:
    """PAPR of one frame, as a batch of one."""
    return papr_batch(np.asarray(frame)[None])[0]


class TestPapr:
    def test_constant_envelope(self):
        assert _papr(np.exp(1j * np.linspace(0, 5, 64))) == pytest.approx(0.0, abs=1e-12)

    def test_single_impulse(self):
        x = np.zeros(128)
        x[3] = 1.0
        assert _papr(x) == pytest.approx(10 * np.log10(128), abs=1e-12)

    def test_coherent_ofdm_worst_case(self):
        d = np.ones(512, dtype=complex)
        x = ofdm_modulate(d, 512, 0)
        assert _papr(x) == pytest.approx(10 * np.log10(512), abs=1e-9)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        frames = rng.standard_normal((10, 64)) + 1j * rng.standard_normal((10, 64))
        batch = papr_batch(frames)
        for i in range(10):
            power = np.abs(frames[i]) ** 2
            assert batch[i] == pytest.approx(10 * np.log10(power.max() / power.mean()), abs=1e-12)

    def test_columns_are_the_rows(self):
        # One frame per column, as a block-major product holds them.
        rng = np.random.default_rng(4)
        frames = rng.standard_normal((70, 961)) + 1j * rng.standard_normal((70, 961))
        np.testing.assert_allclose(papr_batch(frames.T, axis=0), papr_batch(frames), rtol=0, atol=1e-12)

    def test_zero_frame_rejected(self):
        with pytest.raises(ValueError):
            _papr(np.zeros(8))

    @pytest.mark.parametrize("n_samples", [64, 1000, 3 * BLOCK])
    def test_batch_in_blocks_is_the_whole_batch(self, n_samples):
        # Rows go through a few at a time; each row's PAPR is the same bits.
        rng = np.random.default_rng(n_samples)
        frames = rng.standard_normal((300, n_samples)) + 1j * rng.standard_normal((300, n_samples))
        power = np.abs(frames) ** 2
        whole = 10.0 * np.log10(power.max(axis=-1) / power.mean(axis=-1))
        np.testing.assert_array_equal(papr_batch(frames), whole)
        frames[299] = 0
        with pytest.raises(ValueError, match="all-zero"):
            papr_batch(frames)


class TestPaprCcdf:
    def test_thresholds_below_min(self):
        curve = papr_ccdf([5.0, 6.0, 7.0], [1.0, 2.0])
        np.testing.assert_array_equal(curve.values, [1.0, 1.0])

    def test_thresholds_above_max(self):
        curve = papr_ccdf([5.0, 6.0], [10.0, 11.0])
        np.testing.assert_array_equal(curve.values, [0.0, 0.0])

    def test_non_increasing(self):
        rng = np.random.default_rng(4)
        curve = papr_ccdf(rng.normal(10, 2, 1000), default_papr_thresholds())
        assert np.all(np.diff(curve.values) <= 0)

    def test_threshold_grid(self):
        grid = default_papr_thresholds()
        assert grid[0] == 6.0 and grid[-1] == 15.0
        np.testing.assert_allclose(np.diff(grid), 0.5)


class TestMetricCurve:
    def test_rejects_non_increasing_abscissa(self):
        with pytest.raises(ValueError):
            MetricCurve([0.0, 0.0, 1.0], [1, 2, 3], kind="BER")

    def test_csv_roundtrip_full_precision(self, tmp_path):
        curve = MetricCurve(
            [1.0, 2.0],
            [0.123456789012345e-5, 0.2],
            kind="BER",
            meta={"waveform": "ofdm"},
            extra={"theory": np.array([1e-5, 2e-5])},
        )
        path = tmp_path / "c.csv"
        curve.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# kind=BER")
        assert "waveform=ofdm" in lines[0]
        assert lines[1] == "# abscissa,value,theory"
        back = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
        np.testing.assert_array_equal(back[:, 1], curve.values)

    def test_interpolate(self):
        curve = MetricCurve([0.0, 1.0], [0.0, 10.0], kind="BER")
        assert curve.interpolate(0.25) == 2.5

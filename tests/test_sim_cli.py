import errno
import functools
import os
import subprocess
import sys
import tracemalloc

from dataclasses import fields, replace

import numpy as np
import oracle
import pytest
from conftest import receive, received
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemod import cli
from wavemod.channel import EqualizationError, fd_zf_equalize
from wavemod import _work
from wavemod.gfdm import (
    build_receiver,
    gfdm_demodulate,
    gfdm_modulate,
    oqam_demodulate,
    oqam_modulate,
)
from wavemod import metrics, sim
from wavemod.metrics import _WELCH_BATCH, WelchAccumulator, papr_batch
from wavemod.sim import (
    CHANNELS,
    WAVEFORMS,
    ConfigError,
    ScenarioConfig,
    WaveformParams,
    build_adapter,
    psd_band_edge,
    psd_default_active,
    run_ber,
    run_papr,
    run_psd,
    run_scenario,
    _WELCH_SEGMENT,
    _active_runs,
    _draw_chunk,
    _gather,
    _scatter,
    _scenario_id,
    ber_errors,
)


def _ber_config(**kw):
    base = dict(
        waveform="ofdm",
        channel="awgn",
        metric="ber",
        ebn0_grid_db=(8.0,),
        frames=20,
        error_target=None,
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestConfigValidation:
    def test_unknown_waveform_names_field(self):
        with pytest.raises(ConfigError, match="waveform"):
            _ber_config(waveform="cdma").validate()

    def test_unknown_channel_names_field(self):
        with pytest.raises(ConfigError, match="channel"):
            _ber_config(channel="rician").validate()

    def test_bad_frames(self):
        with pytest.raises(ConfigError, match="frames"):
            _ber_config(frames=0).validate()

    def test_empty_grid(self):
        with pytest.raises(ConfigError, match="ebn0_grid_db"):
            _ber_config(ebn0_grid_db=()).validate()

    def test_cp_len_checked_only_where_a_cp_is_sent(self):
        small = WaveformParams(subcarriers=16, subsymbols=2, cp_len=32)
        _ber_config(waveform="linear_gfdm", waveform_params=small).validate()
        _ber_config(waveform="gfdm", waveform_params=replace(small, cp_len=31)).validate()
        with pytest.raises(ConfigError, match="cp_len"):
            _ber_config(waveform="gfdm", waveform_params=small).validate()

    def test_bad_qam_order(self):
        cfg = _ber_config(waveform_params=WaveformParams(qam_order=8))
        with pytest.raises(ConfigError, match="qam_order"):
            cfg.validate()

    @pytest.mark.parametrize(
        "run, field, settings",
        [
            (run_papr, "qam_order", {"waveform_params": WaveformParams(qam_order=16.0)}),
            (run_papr, "frames", {"frames": 10.0}),
            (run_papr, "seed", {"seed": 0.5}),
            (run_papr, "active", {"waveform_params": WaveformParams(active=(1.5, 3.0))}),
            (run_ber, "subcarriers", {"waveform_params": WaveformParams(subcarriers=64.0)}),
            (run_ber, "error_target", {"error_target": 5.0}),
            (run_ber, "min_bits", {"min_bits": "100"}),
        ],
    )
    def test_run_refuses_a_non_integer(self, run, field, settings):
        # Each would otherwise fail deep in the run (16.0 in a right shift,
        # 10.0 in range) or run on truncated bins (1.5 as bin 1).
        metric = "papr" if run is run_papr else "ber"
        config = replace(_ber_config(metric=metric, frames=4), **settings)
        with pytest.raises(ConfigError, match=f"^{field}: must be an integer, got "):
            run(config)

    @pytest.mark.parametrize("run,metric", [(run_ber, "psd"), (run_psd, "papr"), (run_papr, "ber")])
    def test_run_refuses_another_metrics_config(self, run, metric):
        with pytest.raises(ConfigError, match="metric"):
            run(ScenarioConfig(waveform="ofdm", metric=metric, frames=1))


class TestRunBer:
    def test_noiseless_linear_gfdm_zero_errors(self):
        curve = run_ber(
            _ber_config(waveform="linear_gfdm", ebn0_grid_db=(300.0,), frames=5)
        )
        assert curve.values[0] == 0.0

    def test_awgn_matches_theory(self):
        curve = run_ber(_ber_config(frames=100))
        p = curve.extra["theory"][0]
        bits = curve.extra["bits"][0]
        sigma = np.sqrt(p * (1 - p) / bits)
        assert abs(curve.values[0] - p) <= 3 * sigma

    def test_early_stop(self):
        cfg = _ber_config(
            ebn0_grid_db=(0.0,), frames=10_000, error_target=500, min_bits=1000
        )
        curve = run_ber(cfg)
        assert curve.extra["errors"][0] >= 500
        assert curve.extra["bits"][0] < 10_000 * build_adapter(cfg).n_data * 4

    def test_deterministic_across_thread_counts(self, monkeypatch):
        # Five chunks of 64 frames serve both points: at 3 threads, jobs run at once
        # in work areas of their own.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # keep 3 threads on any machine
        for waveform in ("linear_gfdm", "gfdm"):
            cfg = _ber_config(
                waveform=waveform, channel="tvfs", ebn0_grid_db=(6.0, 10.0), frames=300
            )
            runs = []
            for threads in ("1", "2", "3"):
                monkeypatch.setenv("WAVEMOD_THREADS", threads)
                curve = run_ber(cfg)
                runs.append((curve.extra["errors"], curve.extra["bits"]))
            assert runs[0][1][0] == 300 * 2048
            for errors, bits in runs[1:]:
                np.testing.assert_array_equal(errors, runs[0][0])
                np.testing.assert_array_equal(bits, runs[0][1])

    def test_early_stop_deterministic_across_thread_counts(self, monkeypatch):
        # Each point stops after its own chunk of 16,384 bits: the first at
        # 0 dB, the third at 4 dB and the fourteenth at 8 dB.  At 2 and 3
        # threads the jobs of a round also run points already stopped.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # keep 3 threads on any machine
        cfg = _ber_config(
            ebn0_grid_db=(0.0, 4.0, 8.0), frames=2000, error_target=2000, min_bits=1000,
            waveform_params=WaveformParams(n_fft=64),
        )
        runs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("WAVEMOD_THREADS", threads)
            curve = run_ber(cfg)
            runs.append((curve.extra["errors"], curve.extra["bits"]))
        errors, bits = runs[0]
        assert np.all(np.diff(bits) > 0) and bits[-1] < 2000 * 256  # early stop fired per point
        assert np.all(errors >= 2000)
        for other in runs[1:]:
            np.testing.assert_array_equal(other[0], errors)
            np.testing.assert_array_equal(other[1], bits)
        # Each point stops where it stops when run alone.
        for i, ebn0 in enumerate(cfg.ebn0_grid_db):
            alone = run_ber(replace(cfg, ebn0_grid_db=(ebn0,)))
            assert (alone.extra["errors"][0], alone.extra["bits"][0]) == (errors[i], bits[i])

    @pytest.mark.parametrize(
        "waveform,channel", [("linear_gfdm", "awgn"), ("gfdm", "tvfs"), ("ofdm", "tifs")]
    )
    def test_point_does_not_depend_on_the_grid(self, waveform, channel):
        # Every point of a grid sees the same draws: a point's count is the
        # one it gets when run alone.  100 frames end in a partial chunk.
        grid = (4.0, 8.0, 12.0)
        cfg = _ber_config(waveform=waveform, channel=channel, ebn0_grid_db=grid, frames=100)
        whole = run_ber(cfg)
        for i, ebn0 in enumerate(grid):
            alone = run_ber(replace(cfg, ebn0_grid_db=(ebn0,)))
            assert alone.extra["errors"][0] == whole.extra["errors"][i]
            assert alone.extra["bits"][0] == whole.extra["bits"][i]

    def test_deterministic_csv_across_runs(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run_ber(_ber_config()).write_csv(out1)
        run_ber(_ber_config()).write_csv(out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_tvfs_theory_uses_rayleigh_reference(self):
        curve = run_ber(_ber_config(channel="tvfs", frames=10))
        awgn = run_ber(_ber_config(frames=10))
        assert curve.extra["theory"][0] > awgn.extra["theory"][0]

    def test_gfdm_mmse_matches_theory(self):
        cfg = _ber_config(
            waveform="gfdm", ebn0_grid_db=(4.0, 8.0), frames=100,
            waveform_params=WaveformParams(receiver="mmse"),
        )
        curve = run_ber(cfg)
        for ber, p, bits in zip(curve.values, curve.extra["theory"], curve.extra["bits"]):
            assert abs(ber - p) <= 5 * np.sqrt(p * (1 - p) / bits)


@pytest.mark.parametrize("waveform", ["gfdm", "gfdm_oqam_circular", "linear_gfdm", "fbmc"])
def test_large_build_holds_no_dense_matrix(waveform):
    # K=256, M=8: a dense matrix pair of this size takes about 200 MB.
    cfg = ScenarioConfig(waveform=waveform, waveform_params=WaveformParams(subcarriers=256, subsymbols=8))
    tracemalloc.start()
    try:
        build_adapter(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


# cp_len covers the TIFS channel's 7 samples of memory, as validation requires.
_SMALL = WaveformParams(subcarriers=16, subsymbols=2, cp_len=7, n_fft=32)


@functools.cache
def _small_adapter(waveform):
    return build_adapter(ScenarioConfig(waveform=waveform, waveform_params=_SMALL))


# channel name -> the scenario fields that select it, tvfs_corrected included
_CHANNEL_CASES = {
    "awgn": dict(channel="awgn"),
    "tifs": dict(channel="tifs"),
    "tvfs": dict(channel="tvfs"),
    "tvfs_corrected": dict(channel="tvfs", tvfs_corrected=True),
}


def _oracle_equalized(adapter, x, taps, noise, noise_var):
    """The equalized windows by the reference chain: convolve, add noise, zero-force, cut.

    The channel's response is taken with ``np.fft.fft``.
    """
    y = received(adapter, x, taps, noise, noise_var)
    n = adapter.mats.frame_len
    if adapter.circular:
        y = y[:, adapter.cp_len:adapter.cp_len + n]
        fft_len = n
    else:
        fft_len = 1 << (y.shape[1] - 1).bit_length()
    hf = np.fft.fft(taps, n=fft_len, axis=-1)
    return fd_zf_equalize(y, taps, fft_len, hf=hf)[:, :n]


def _production_chunk(adapter, cfg, count, noise_var):
    """``sim.ber_errors`` on one chunk: its (errors, bits), the windows it demodulated, the draws."""
    seen = []

    def demodulate(y_eq, nv, out=None):
        seen.append(y_eq.copy())
        return type(adapter).demodulate(adapter, y_eq, nv, out=out)

    with _work.borrowed():
        d, packed, taps, noise = _draw_chunk(cfg, adapter, 0, 0, count, True)
        x, packed, noise = adapter.transmit(d).copy(), packed.copy(), noise.copy()
        adapter.demodulate = demodulate
        try:
            order = cfg.waveform_params.qam_order
            (errors,), n_bits = ber_errors(adapter, order, packed, x, taps, noise, [noise_var])
        finally:
            del adapter.demodulate
    return (errors, n_bits), seen[0], (x, packed, taps, noise)


class TestBatchedReceive:
    """One equalize and one demodulate call per chunk equal the reference chain and per-frame calls."""

    @settings(max_examples=60, deadline=None)
    @given(
        waveform=st.sampled_from(WAVEFORMS),
        channel=st.sampled_from(CHANNELS),
        count=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_chunk_matches_per_frame_calls(self, waveform, channel, count, seed):
        cfg = ScenarioConfig(waveform=waveform, channel=channel, seed=seed, waveform_params=_SMALL)
        adapter = _small_adapter(waveform)
        noise_var = 0.05
        d, _, taps, noise = _draw_chunk(cfg, adapter, 0, 0, count, True)
        x = adapter.transmit(d)
        frame_taps = taps if taps.ndim == 2 else [taps] * count
        y = received(adapter, x, taps, noise, noise_var)
        batched = receive(adapter, y, taps, noise_var)
        per_frame = np.array(
            [receive(adapter, y[j : j + 1], frame_taps[j], noise_var)[0] for j in range(count)]
        )
        # A deep TVFS fade scales the ZF output up; the tolerance scales with it.
        scale = max(1.0, np.abs(per_frame).max())
        np.testing.assert_allclose(batched, per_frame, rtol=0, atol=1e-10 * scale)

    @settings(max_examples=80, deadline=None)
    @given(
        waveform=st.sampled_from(WAVEFORMS),
        channel=st.sampled_from(tuple(_CHANNEL_CASES)),
        count=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equalized_frames_match_reference_chain(self, waveform, channel, count, seed):
        # ZF inverts the channel on its window, so the pipeline zero-forces only the noise.
        cfg = ScenarioConfig(
            waveform=waveform, seed=seed, waveform_params=_SMALL, **_CHANNEL_CASES[channel]
        )
        cfg.validate()
        adapter = _small_adapter(waveform)
        noise_var = 0.05
        _, got, (x, _, taps, noise) = _production_chunk(adapter, cfg, count, noise_var)
        want = _oracle_equalized(adapter, x, taps, noise, noise_var)
        scale = max(1.0, np.abs(want).max())
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * scale)

    @pytest.mark.parametrize("channel", tuple(_CHANNEL_CASES))
    @pytest.mark.parametrize("waveform", WAVEFORMS)
    def test_error_count_matches_reference_chain(self, waveform, channel):
        cfg = ScenarioConfig(waveform=waveform, seed=11, **_CHANNEL_CASES[channel])
        adapter = build_adapter(cfg)
        noise_var = 0.05  # Eb/N0 = 7 dB
        (errors, n_bits), _, (x, packed, taps, noise) = _production_chunk(adapter, cfg, 8, noise_var)
        d_hat = adapter.demodulate(_oracle_equalized(adapter, x, taps, noise, noise_var), noise_var)
        bits = np.unpackbits(packed, count=4 * d_hat.size)
        want = int(np.count_nonzero(oracle.qam_demap(d_hat.ravel(), 16) != bits))
        assert (errors, n_bits) == (want, bits.size)
        assert errors > 0


class TestCommonRandomNumbers:
    """Waveforms with the same data size see the same random inputs at a seed."""

    @settings(max_examples=30, deadline=None)
    @given(
        pair=st.lists(st.sampled_from(WAVEFORMS), min_size=2, max_size=2, unique=True),
        channel=st.sampled_from(CHANNELS),
        k=st.sampled_from((4, 8, 16)),
        m=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_waveforms_share_draws(self, pair, channel, k, m, seed):
        # OFDM at n_fft = K*M carries as many symbols as the GFDM family at K, M.
        wp = WaveformParams(subcarriers=k, subsymbols=m, n_fft=k * m, cp_len=7)
        draws = []
        for waveform in pair:
            cfg = ScenarioConfig(waveform=waveform, channel=channel, seed=seed, waveform_params=wp)
            cfg.validate()
            draws.append(_draw_chunk(cfg, build_adapter(cfg), _scenario_id(cfg), 64, 5))
        for a, b in zip(draws[0][:3], draws[1][:3]):  # symbols, bits, taps
            np.testing.assert_array_equal(a, b)
        # Linear GFDM and FBMC then emit the same samples: equal PAPR CCDFs.
        lin, fb = (
            run_papr(ScenarioConfig(waveform=w, metric="papr", frames=300, seed=seed, waveform_params=wp))
            for w in ("linear_gfdm", "fbmc")
        )
        np.testing.assert_array_equal(lin.values, fb.values)


class TestLinearGfdmEqualsFbmc:
    """Linear GFDM and FBMC count the same bit errors at a seed."""

    @staticmethod
    def _errors(channel, seed):
        return [
            run_ber(
                _ber_config(waveform=w, channel=channel, ebn0_grid_db=(4.0, 8.0, 12.0), frames=128, seed=seed)
            ).extra["errors"]
            for w in ("linear_gfdm", "fbmc")
        ]

    @pytest.mark.parametrize("seed", range(5))
    def test_awgn_counts_equal(self, seed):
        # Exact by construction: the pair emits the same samples and meets
        # the same noise sample by sample, as the noise is drawn sample-major;
        # the one sample by which a Linear GFDM frame outlasts an FBMC burst
        # meets zero band rows in the demodulator.
        lin, fbmc = self._errors("awgn", seed)
        assert lin[0] > 0
        np.testing.assert_array_equal(lin, fbmc)

    @pytest.mark.parametrize("channel", ["tifs", "tvfs"])
    def test_selective_channel_counts_equal_at_seed_0(self, channel):
        # Observed, not proven: zero forcing transforms the noise over the
        # whole received frame, one sample longer for Linear GFDM, so the
        # pair's equalized noises differ by rounding; at seed 0 no decision
        # moves.
        lin, fbmc = self._errors(channel, 0)
        np.testing.assert_array_equal(lin, fbmc)


class TestPackedDraws:
    """Symbols map straight from the drawn bytes, and the draws after the bytes do not move."""

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("waveform,k,m", [("gfdm", 5, 3), ("ofdm", 45, 1)])
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_odd_chunks_map_like_the_unpacked_bits(self, order, waveform, k, m, count):
        # An odd K*M*count ends every order's bits in a partial byte, and
        # 64-QAM's in a partial 3-byte group.
        wp = WaveformParams(qam_order=order, subcarriers=k, subsymbols=m, n_fft=k, cp_len=4)
        cfg = ScenarioConfig(waveform=waveform, seed=3, waveform_params=wp)
        cfg.validate()
        adapter = build_adapter(cfg)
        x = adapter.transmit(_draw_chunk(cfg, adapter, 7, 0, count)[0])
        bits = oracle.draw_chunk(cfg, adapter, 7, 0, count)[0]
        symbols = oracle.qam_map(bits, order).reshape(count, -1)
        np.testing.assert_array_equal(x, adapter.transmit(symbols))

    @settings(max_examples=30, deadline=None)
    @given(
        waveform=st.sampled_from(WAVEFORMS),
        order=st.sampled_from((4, 16, 64)),
        channel=st.sampled_from(tuple(_CHANNEL_CASES)),
        count=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_chunk_draws_are_scheme_v3(self, waveform, order, channel, count, seed):
        wp = WaveformParams(qam_order=order, subcarriers=6, subsymbols=3, n_fft=18, cp_len=7)
        cfg = ScenarioConfig(waveform=waveform, seed=seed, waveform_params=wp, **_CHANNEL_CASES[channel])
        adapter = build_adapter(cfg)
        _, packed, taps, noise = _draw_chunk(cfg, adapter, 5, 64, count, True)
        bits, want_taps, want_noise = oracle.draw_chunk(cfg, adapter, 5, 64, count)
        assert len(packed) == -(-bits.size // 8)
        np.testing.assert_array_equal(np.unpackbits(packed, count=bits.size), bits.ravel())
        np.testing.assert_array_equal(taps, want_taps)
        np.testing.assert_array_equal(noise.T, want_noise)


    def test_ber_count_refuses_bytes_that_do_not_match_the_frames(self):
        cfg = ScenarioConfig(waveform="gfdm", seed=2, waveform_params=_SMALL)
        adapter = _small_adapter("gfdm")
        with _work.borrowed():
            d, packed, taps, noise = _draw_chunk(cfg, adapter, 0, 0, 2, True)
            x = adapter.transmit(d)
            with pytest.raises(ValueError, match="bytes drawn"):
                ber_errors(adapter, 16, packed[:-1], x, taps, noise, [0.05])


class TestAllocationRuns:
    """The run-sliced scatter and gather equal the boolean-mask form."""

    @staticmethod
    def _check(active, k=16, m=3, count=4):
        mask = np.tile(np.isin(np.arange(k), active), m)
        runs = _active_runs(active)
        rng = np.random.default_rng(len(active))
        d = rng.standard_normal((count, mask.sum())) + 1j * rng.standard_normal((count, mask.sum()))
        want = np.zeros((count, k * m), dtype=complex)
        want[:, mask] = d
        np.testing.assert_array_equal(_scatter(d, runs, k), want)
        full = rng.standard_normal((count, k * m)) + 1j * rng.standard_normal((count, k * m))
        got = np.empty_like(d)
        _gather(full, runs, k, got)
        np.testing.assert_array_equal(got, np.compress(mask, full, axis=1))
        wp = WaveformParams(subcarriers=k, subsymbols=m, active=tuple(active))
        assert build_adapter(ScenarioConfig(waveform="gfdm", waveform_params=wp)).n_data == d.shape[1]

    @pytest.mark.parametrize(
        "active",
        [
            (9, 2, 3, 14, 1, 15),  # unsorted
            psd_default_active(16),  # wrapping through bin 0
            (7,),
            tuple(range(0, 16, 2)),
            tuple(b for b in range(16) if b != 5),
            tuple(range(16)),
        ],
    )
    def test_named_sets(self, active):
        self._check(active)

    @settings(max_examples=40, deadline=None)
    @given(active=st.sets(st.integers(0, 15), min_size=1).flatmap(lambda s: st.permutations(sorted(s))))
    def test_random_sets(self, active):
        self._check(tuple(active))

    def test_gather_writes_through_a_strided_output(self):
        active = (1, 2, 5)
        full = np.arange(4 * 16).reshape(4, 16) * (1 + 1j)
        out = np.zeros((6, 4), dtype=complex).T
        _gather(full, _active_runs(active), 8, out)
        np.testing.assert_array_equal(out, full[:, np.tile(np.isin(np.arange(8), active), 2)])

    @pytest.mark.parametrize("waveform", WAVEFORMS)
    def test_sub_band_receive_gathers_the_full_grid(self, waveform):
        # A prefix-free frame is longer than its K*M grid, which is what is demodulated and gathered.
        wp = replace(_SMALL, active=psd_default_active(_SMALL.subcarriers))
        sub = build_adapter(ScenarioConfig(waveform=waveform, waveform_params=wp))
        grid = _small_adapter(waveform)
        k = grid.mats.subcarriers
        mask = np.tile(np.isin(np.arange(k), wp.active), grid.mats.subsymbols)
        rng = np.random.default_rng(5)
        d = rng.standard_normal((3, sub.n_data)) + 1j * rng.standard_normal((3, sub.n_data))
        with _work.borrowed():
            y_eq = sub.transmit(d)[:, sub.cp_len:sub.cp_len + sub.mats.frame_len]
            got = sub.demodulate(y_eq, 0.05)
            want = grid.demodulate(y_eq, 0.05)[:, mask]
        np.testing.assert_array_equal(got, want)
        curve = run_ber(_ber_config(waveform=waveform, waveform_params=wp, frames=70))
        assert curve.extra["bits"][0] == 70 * sub.n_data * 4
        assert curve.values[0] < 0.05

    def test_default_psd_allocation_is_two_runs(self):
        assert len(_active_runs(psd_default_active(128))) == 2


def _fewest_psd_frames(waveform, wp):
    """The fewest frames whose stream fills one Welch segment."""
    adapter = build_adapter(ScenarioConfig(waveform=waveform, metric="psd", waveform_params=wp))
    return max(1, -(-(_WELCH_SEGMENT - adapter.frame_len) // adapter.stride) + 1)


class TestRunPsd:
    @pytest.mark.parametrize("frames", [None, 63, 64, 65, 129])
    @pytest.mark.parametrize("grid", [(128, 4), (42, 3), (6, 5)])
    @pytest.mark.parametrize("waveform", WAVEFORMS)
    @settings(max_examples=4, deadline=None)
    @given(
        active=st.one_of(st.none(), st.lists(st.integers(0, 511), min_size=1, max_size=40)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_streamed_estimate_matches_oneshot(self, waveform, grid, frames, active, seed):
        # Chunk edges at 63-65 and 129 frames of 64; None is the fewest frames
        # that fill one segment.  At K=42, M=3 a chunk of prefix-free frames
        # ends 128 samples short of a segment end that its last frame's tail
        # reaches; the default strides of 512 and 544 end chunks on segment edges.
        k, m = grid
        n_fft = 512 if k == 128 else k * m
        bins = n_fft if waveform == "ofdm" else k
        wp = WaveformParams(
            subcarriers=k, subsymbols=m, n_fft=n_fft, cp_len=32 if k == 128 else 7,
            active=None if active is None else tuple(sorted({a % bins for a in active})),
        )
        if frames is None:
            frames = _fewest_psd_frames(waveform, wp)
        cfg = ScenarioConfig(waveform=waveform, metric="psd", frames=frames, seed=seed, waveform_params=wp)
        if (frames - 1) * build_adapter(cfg).stride + build_adapter(cfg).frame_len < _WELCH_SEGMENT:
            with pytest.raises(ConfigError, match="frames"):
                run_psd(cfg)
            return
        got, want = run_psd(cfg), oracle.psd_oneshot(cfg)
        np.testing.assert_array_equal(got.abscissa, want.abscissa)
        np.testing.assert_allclose(10.0 ** (got.values / 10.0), 10.0 ** (want.values / 10.0), rtol=1e-12, atol=0)

    # M = 1: a frame's tail spans four later frames; K = 96: the 1,024-sample
    # Welch hop is no whole number of strides; 70 and 200 frames end on a
    # chunk of 6 and 8.
    _STREAM_PARAMS = {
        "default": WaveformParams(),
        "M=1": WaveformParams(subsymbols=1),
        "K=96,M=3": WaveformParams(subcarriers=96, subsymbols=3, n_fft=288),
        "sub-band": WaveformParams(active=tuple(range(3, 21)) + tuple(range(40, 51))),
    }

    @pytest.mark.parametrize("frames", [70, 200])
    @pytest.mark.parametrize("params", list(_STREAM_PARAMS))
    @pytest.mark.parametrize("waveform", WAVEFORMS)
    def test_stream_is_the_oneshot_stream(self, monkeypatch, waveform, params, frames):
        # What reaches Welch's sum is the stream the oracle adds up frame by
        # frame into zeros, bit for bit: the same samples in the same segments.
        fed = []
        add = WelchAccumulator.add

        def record(welch, stream):
            done = add(welch, stream)
            if done:  # the segments it added, which the run overwrites next
                segments = np.lib.stride_tricks.sliding_window_view(stream, welch.seg_len)[::welch.step]
                fed.append(np.array(segments[:done // welch.step]))
            return done

        monkeypatch.setattr(WelchAccumulator, "add", record)
        cfg = ScenarioConfig(
            waveform=waveform, metric="psd", frames=frames, seed=frames,
            waveform_params=self._STREAM_PARAMS[params],
        )
        run_psd(cfg)
        got = np.concatenate(fed)
        fed.clear()
        oracle.psd_oneshot(cfg)
        want = np.concatenate(fed)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_fewest_frames_fill_one_segment(self):
        for waveform in WAVEFORMS:
            frames = _fewest_psd_frames(waveform, WaveformParams())
            run_psd(ScenarioConfig(waveform=waveform, metric="psd", frames=frames))
            if frames > 1:
                with pytest.raises(ConfigError, match="frames"):
                    run_psd(ScenarioConfig(waveform=waveform, metric="psd", frames=frames - 1))

    def test_memory_does_not_grow_with_frames(self):
        # Welch's sum is streamed: no array scales with the stream length.
        def peak(frames):
            tracemalloc.start()
            try:
                run_psd(ScenarioConfig(waveform="fbmc", metric="psd", frames=frames))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_psd(ScenarioConfig(waveform="fbmc", metric="psd", frames=10))  # work arrays exist
        small, large = peak(1000), peak(8000)
        assert large <= 1.25 * small, (small, large)

    @pytest.mark.parametrize("waveform", WAVEFORMS)
    def test_large_grid_estimate_is_the_oneshot_estimate(self, waveform):
        # At K=256, M=8 a chunk is 16 frames: 70 frames run four and a short one.
        wp = WaveformParams(subcarriers=256, subsymbols=8, n_fft=2048)
        cfg = ScenarioConfig(waveform=waveform, metric="psd", frames=70, seed=3, waveform_params=wp)
        assert sim._chunk(cfg) == 16
        got, want = run_psd(cfg), oracle.psd_oneshot(cfg)
        np.testing.assert_array_equal(got.abscissa, want.abscissa)
        np.testing.assert_array_equal(got.values, want.values)

    def test_default_active_allocation(self):
        active = psd_default_active(128)
        assert len(active) == 56
        cfg = ScenarioConfig(waveform="linear_gfdm", metric="psd", frames=10)
        assert 0.2 < psd_band_edge(cfg) < 0.25

    def test_linear_vs_fbmc_containment(self):
        cfgs = [
            ScenarioConfig(waveform=w, metric="psd", frames=1000)
            for w in ("linear_gfdm", "fbmc")
        ]
        lin, fb = (run_psd(c) for c in cfgs)
        edge = psd_band_edge(cfgs[0])
        offs = np.arange(1, 33) / 128.0
        diffs = [abs(lin.interpolate(edge + o) - fb.interpolate(edge + o)) for o in offs]
        assert max(diffs) <= 1e-9

    def test_circular_oqam_much_worse_than_linear(self):
        lin = run_psd(ScenarioConfig(waveform="linear_gfdm", metric="psd", frames=100))
        cir = run_psd(
            ScenarioConfig(waveform="gfdm_oqam_circular", metric="psd", frames=100)
        )
        edge = psd_band_edge(ScenarioConfig(waveform="linear_gfdm", metric="psd"))
        off = 2.0 / 128.0
        assert cir.interpolate(edge + off) - lin.interpolate(edge + off) >= 20.0


class TestRunPapr:
    def test_ofdm_ccdf_sane(self):
        curve = run_papr(ScenarioConfig(waveform="ofdm", metric="papr", frames=2000))
        assert np.all(np.diff(curve.values) <= 0)
        assert curve.interpolate(6.0) > 0.5
        assert curve.interpolate(14.0) < 0.01

    @pytest.mark.parametrize(
        "params", [WaveformParams(), WaveformParams(subcarriers=96, subsymbols=3, active=tuple(range(20, 70)))]
    )
    @pytest.mark.parametrize("waveform", ["linear_gfdm", "fbmc"])
    def test_product_columns_give_the_frames_papr(self, monkeypatch, waveform, params):
        # Prefix-free frames are measured down the product's columns; 300
        # frames end on a chunk of 44.  Each PAPR is the rows' up to summation
        # order, and the CCDF counts are equal.
        measured = []
        ccdf = metrics.papr_ccdf

        def record(paprs, *args, **kw):
            measured.append(np.array(paprs))
            return ccdf(paprs, *args, **kw)

        monkeypatch.setattr(sim, "papr_ccdf", record)
        cfg = ScenarioConfig(waveform=waveform, metric="papr", frames=300, seed=3, waveform_params=params)
        curve = run_papr(cfg)
        adapter, sid = build_adapter(cfg), _scenario_id(cfg)
        rows = []
        for start in (0, 256):
            x = adapter.transmit(_draw_chunk(cfg, adapter, sid, start, min(256, 300 - start))[0])
            rows.append(papr_batch(x[:, : adapter.support_len]))
        want = np.concatenate(rows)
        np.testing.assert_allclose(measured[0], want, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(curve.values, ccdf(want, curve.abscissa).values)

    def test_papr_uses_signal_support(self):
        # Prefix-free frames end in structural zeros; PAPR must be taken
        # over the signal-bearing support only.
        cfg = ScenarioConfig(waveform="linear_gfdm", metric="papr", frames=4)
        adapter = build_adapter(cfg)
        assert adapter.support_len == 961
        assert adapter.frame_len == 962


class TestChunkRule:
    """A chunk holds clamp(32,768 // (K*M), 1, 64) frames, and the grid alone sets it."""

    @staticmethod
    def _chunk(k, m, waveform="gfdm", **kw):
        wp = WaveformParams(subcarriers=k, subsymbols=m, n_fft=k * m)  # OFDM's grid: n_fft x 1
        return sim._chunk(ScenarioConfig(waveform=waveform, waveform_params=wp, **kw))

    def test_frames_per_chunk(self):
        assert {self._chunk(n, 1) for n in range(1, 513)} == {64}
        assert {self._chunk(k, m) for k, m in [(128, 4), (64, 8), (32, 16), (2, 256)]} == {64}
        sizes = [(513, 1), (96, 6), (256, 8), (1024, 16), (2048, 8), (8192, 3)]
        assert [self._chunk(k, m) for k, m in sizes] == [32_768 // (k * m) for k, m in sizes]
        assert [self._chunk(k, m) for k, m in sizes] == [63, 56, 16, 2, 2, 1]
        assert {self._chunk(k, m) for k, m in [(32_768, 1), (4096, 8), (2048, 16), (40_000, 3)]} == {1}

    @pytest.mark.parametrize("k,m", [(128, 4), (256, 8), (4096, 8)])
    def test_chunk_depends_on_the_grid_alone(self, k, m):
        want = self._chunk(k, m)
        others = [
            dict(waveform=w, channel=c, metric=metric)
            for w in WAVEFORMS for c in CHANNELS for metric in ("ber", "psd", "papr")
        ] + [
            dict(seed=7, frames=3, error_target=None, tvfs_corrected=True),
            dict(ebn0_grid_db=(1.0,), min_bits=5),
        ]
        assert {self._chunk(k, m, **kw) for kw in others} == {want}
        varied = [
            dict(qam_order=64), dict(overlap=3), dict(prototype="rect"), dict(cp_len=0),
            dict(active=(1, 2, 5)), dict(receiver="mmse"),
        ]
        for kw in varied:
            wp = WaveformParams(subcarriers=k, subsymbols=m, n_fft=k * m, **kw)
            assert sim._chunk(ScenarioConfig(waveform="linear_gfdm", waveform_params=wp)) == want

    def test_large_grid_work_areas_stay_bounded(self, monkeypatch):
        # At K=1024, M=16 a chunk is 2 frames, 32,768 symbols: what a run
        # leaves on the free list stays within a fixed multiple of that.
        # One 8-frame chunk, as a 64-frame cap alone gives, left 24 MB.
        monkeypatch.setenv("WAVEMOD_THREADS", "1")
        monkeypatch.setattr(_work, "_free", [])
        wp = WaveformParams(subcarriers=1024, subsymbols=16)
        run_ber(_ber_config(waveform="linear_gfdm", channel="tvfs", frames=8, waveform_params=wp))
        kept = sum(buf.nbytes for area in _work._free for buf in area._flat.values())
        assert 0 < kept < 16 * 32_768 * 16, kept

    @pytest.mark.parametrize("error_target", [None, 25_000])
    def test_large_grid_counts_across_thread_counts(self, monkeypatch, error_target):
        # At K=256, M=8 a chunk is 16 frames (131,072 bits): 100 frames run
        # seven chunks.  With a target, the 0 dB point stops after its
        # second, the 4 dB point after its fourth and the 8 dB point never.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        cfg = _ber_config(
            waveform="linear_gfdm", ebn0_grid_db=(0.0, 4.0, 8.0), frames=100, error_target=error_target,
            min_bits=1000, waveform_params=WaveformParams(subcarriers=256, subsymbols=8),
        )
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("WAVEMOD_THREADS", threads)
            curve = run_ber(cfg)
            runs.append((curve.extra["errors"], curve.extra["bits"]))
        if error_target is None:
            assert list(runs[0][1]) == [100 * 2048 * 4] * 3
        else:
            assert list(runs[0][1]) == [2 * 16 * 2048 * 4, 4 * 16 * 2048 * 4, 100 * 2048 * 4]
        np.testing.assert_array_equal(runs[1][0], runs[0][0])
        np.testing.assert_array_equal(runs[1][1], runs[0][1])


class TestReusedBuffers:
    """The work areas lent to chunk jobs never show in a result, and outlive the run."""

    @pytest.mark.parametrize("threads", ["2", "4"])
    def test_thread_counts_give_the_same_bits(self, monkeypatch, threads):
        # Four threads on two cores, switching every 10 us, interleave chunks
        # inside the modem; each running chunk job has a work area of its own.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        configs = [
            ScenarioConfig(waveform="linear_gfdm", metric="papr", frames=1100),
            _ber_config(waveform="fbmc", channel="tvfs", ebn0_grid_db=(6.0, 10.0), frames=300),
            _ber_config(waveform="gfdm_oqam_circular", channel="tifs", frames=300),
            # Points that stop at different chunks, while jobs read the live points.
            _ber_config(
                ebn0_grid_db=(0.0, 4.0, 8.0), frames=2000, error_target=2000, min_bits=1000,
                waveform_params=WaveformParams(n_fft=64),
            ),
            ScenarioConfig(waveform="fbmc", metric="psd", frames=300),
        ]
        runs = {}
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            for n in ("1", threads):
                monkeypatch.setenv("WAVEMOD_THREADS", n)
                runs[n] = [run_scenario(c) for c in configs]
        finally:
            sys.setswitchinterval(interval)
        for one, many in zip(runs["1"], runs[threads]):
            np.testing.assert_array_equal(one.values, many.values)
            assert one.extra.keys() == many.extra.keys()
            for key in one.extra:
                np.testing.assert_array_equal(one.extra[key], many.extra[key])

    def test_back_to_back_calls_do_not_alias(self):
        rng = np.random.default_rng(5)
        adapter = build_adapter(ScenarioConfig(waveform="linear_gfdm"))
        mats = adapter.mats
        plain = build_adapter(ScenarioConfig(waveform="gfdm"))
        rx = build_receiver(plain.mats, "zf")
        d1, d2 = (rng.standard_normal((70, 512)) + 1j * rng.standard_normal((70, 512)) for _ in range(2))
        calls = [
            lambda d: oqam_modulate(mats, d),
            lambda d: oqam_demodulate(mats, oqam_modulate(mats, d)),
            lambda d: gfdm_modulate(plain.mats, d),
            lambda d: gfdm_demodulate(rx, d),
            lambda d: adapter.transmit(d),
            lambda d: receive(plain, plain.transmit(d), [1.0 + 0j], 0.0),
        ]
        for call in calls:
            first = call(d1)
            kept = first.copy()
            second = call(d2)
            np.testing.assert_array_equal(first, kept)
            assert not np.shares_memory(first, second)

    @pytest.mark.parametrize("waveform", ["gfdm", "linear_gfdm"])
    def test_transmit_without_out_writes_the_areas_frames(self, waveform):
        # Inside a job the frames are the work area's; outside one, each call's own.
        adapter = build_adapter(ScenarioConfig(waveform=waveform))
        d = np.ones((3, adapter.n_data), dtype=complex)
        with _work.borrowed() as area:
            x = adapter.transmit(d)
            assert np.shares_memory(x, area.get("sim.frames", x.shape))
        first, second = adapter.transmit(d), adapter.transmit(d)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, second)

    def test_chunk_outside_a_job_keeps_nothing(self):
        # Outside a chunk job every call gets a fresh work area: nothing is
        # shared between calls, and nothing joins the free list.
        cfg = ScenarioConfig(waveform="linear_gfdm")
        adapter = build_adapter(cfg)
        lent = list(_work._free)
        first = adapter.transmit(_draw_chunk(cfg, adapter, 0, 0, 4)[0])
        second = adapter.transmit(_draw_chunk(cfg, adapter, 0, 4, 4)[0])
        assert not np.shares_memory(first, second)
        assert _work._free == lent

    _LARGE = WaveformParams(subcarriers=256, subsymbols=8)

    @pytest.mark.parametrize("waveform", ["linear_gfdm", "fbmc", "gfdm"])
    def test_repeated_run_allocates_little(self, monkeypatch, waveform):
        # Every chunk-sized array of a run lives in a work area: a second
        # identical run at K=256, M=8 peaks far below one chunk of frames (2 MB).
        monkeypatch.setenv("WAVEMOD_THREADS", "1")
        cfg = _ber_config(
            waveform=waveform, frames=32, ebn0_grid_db=(4.0, 8.0), waveform_params=self._LARGE
        )
        run_ber(cfg)
        tracemalloc.start()
        try:
            run_ber(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20, peak

    def test_repeated_run_makes_no_work_arrays(self, monkeypatch):
        monkeypatch.setenv("WAVEMOD_THREADS", "1")

        def work_arrays():
            return {id(buf) for area in _work._free for buf in area._flat.values()}

        for waveform in ("linear_gfdm", "gfdm"):
            cfg = _ber_config(
                waveform=waveform, channel="tvfs", frames=100, waveform_params=self._LARGE
            )
            run_ber(cfg)
            before = work_arrays()
            run_ber(cfg)
            assert before and work_arrays() == before

    def test_psd_run_keeps_no_welch_arrays(self, monkeypatch):
        # The stream window and the Welch batch (4 MB) are the run's own: the
        # areas a PSD run hands back hold its chunk arrays only.
        monkeypatch.setattr(_work, "_free", [])
        run_psd(ScenarioConfig(waveform="fbmc", metric="psd", frames=1000))
        kept = [buf.nbytes for area in _work._free for buf in area._flat.values()]
        assert kept and max(kept) < _WELCH_BATCH * _WELCH_SEGMENT * 16


class TestCli:
    def test_ber_run_and_csv(self, tmp_path, capsys):
        out = tmp_path / "ber.csv"
        rc = cli.main(
            ["ber", "--waveform", "ofdm", "--ebn0", "8", "--frames", "20", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# kind=BER")
        assert "subcarriers=512 subsymbols=1" in lines[0]  # OFDM's grid: n_fft x 1
        assert "rng=chunk-v4" in lines[0].split()
        assert "abscissa,value" in lines[1]
        assert "8.0," in lines[2]
        assert "8\t" in capsys.readouterr().out

    @pytest.mark.parametrize("metric,frames", [("ber", 20), ("papr", 300), ("psd", 70)])
    def test_out_writes_the_run_curve(self, tmp_path, metric, frames):
        # A run writes no file: the CLI writes the curve it returns, from
        # --out or from the config file's own output_path key.
        assert "output_path" not in {f.name for f in fields(ScenarioConfig)}
        flag, key, want = tmp_path / "flag.csv", tmp_path / "key.csv", tmp_path / "want.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"output_path = {key}\n")
        argv = [metric, "--waveform", "fbmc", "--frames", str(frames)]
        assert cli.main(argv + ["--out", str(flag)]) == 0
        assert cli.main(argv + ["--config", str(cfg)]) == 0
        run_scenario(ScenarioConfig(waveform="fbmc", metric=metric, frames=frames)).write_csv(want)
        assert flag.read_bytes() == key.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize(
        "waveform,text",
        [("gfdm", "subcarriers = 2\nsubsymbols = 4\ncp_len = 3"), ("ofdm", "n_fft = 2\ncp_len = 1")],
    )
    def test_psd_on_two_subcarriers_is_finite(self, tmp_path, capsys, waveform, text):
        # The default PSD allocation keeps at least one bin per side, so the
        # stream is not all zeros.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text + "\n")
        rc = cli.main(["psd", "--waveform", waveform, "--frames", "3000", "--config", str(cfg)])
        assert rc == 0
        values = [float(line.split("\t")[1]) for line in capsys.readouterr().out.splitlines()]
        assert values and np.all(np.isfinite(values))

    def test_config_file_overrides_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("waveform = gfdm  # comment\nframes = 5\nebn0_grid_db = 6\n")
        rc = cli.main(["ber", "--waveform", "ofdm", "--frames", "99", "--config", str(cfg)])
        assert rc == 0
        assert capsys.readouterr().out.count("\n") == 1

    def test_build_config_file_entries_over_flags(self, tmp_path):
        # One dict: the flags first, the file's entries over them, the
        # waveform-parameter keys split out last; the subcommand sets the metric.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("waveform = gfdm\nseed = 7\nebn0_grid_db = 2 6\nsubsymbols = 3\n")
        argv = ["ber", "--waveform", "ofdm", "--seed", "1", "--ebn0", "9", "--frames", "4",
                "--config", str(cfg)]
        config, _ = cli.build_config(cli.make_parser().parse_args(argv))
        assert (config.metric, config.waveform, config.seed) == ("ber", "gfdm", 7)
        assert config.ebn0_grid_db == (2.0, 6.0)
        assert config.frames == 4
        assert config.waveform_params.subsymbols == 3

    @pytest.mark.parametrize("metric", sim.METRICS)
    def test_omitted_flags_take_the_dataclass_defaults(self, metric):
        # The parser sets no default of its own: an omitted flag parses to
        # None, and the scenario keeps ScenarioConfig's default for it.
        args = cli.make_parser().parse_args([metric])
        assert {key: val for key, val in vars(args).items() if key != "metric"} == dict.fromkeys(
            ["waveform", "channel", "ebn0", "frames", "seed", "config", "out", "emit_plot_data"]
        )
        config, out = cli.build_config(cli.make_parser().parse_args([metric, "--waveform", "gfdm"]))
        assert config == ScenarioConfig(waveform="gfdm", metric=metric) and out is None

    def test_every_int_field_parses_from_a_config_file(self, tmp_path):
        want = {"frames": 3, "seed": 5, "min_bits": 0, "qam_order": 64, "subcarriers": 64,
                "subsymbols": 2, "overlap": 3, "cp_len": 16, "n_fft": 256}
        assert want.keys() == {
            f.name for f in fields(ScenarioConfig) + fields(WaveformParams) if f.type is int
        }
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("".join(f"{key} = {val}\n" for key, val in want.items()))
        argv = ["ber", "--waveform", "gfdm", "--config", str(cfg)]
        config, _ = cli.build_config(cli.make_parser().parse_args(argv))
        got = {**vars(config), **vars(config.waveform_params)}
        assert {key: got[key] for key in want} == want
        assert all(type(got[key]) is int for key in want)

    def test_build_config_flags_without_file(self):
        argv = ["papr", "--waveform", "fbmc", "--channel", "tifs", "--frames", "6", "--seed", "3"]
        config, out = cli.build_config(cli.make_parser().parse_args(argv))
        assert (config.metric, config.waveform, config.channel) == ("papr", "fbmc", "tifs")
        assert (config.frames, config.seed, out) == (6, 3, None)
        assert config.waveform_params == WaveformParams()

    @pytest.mark.parametrize(
        "argv,text,key",
        [
            (["ber", "--waveform", "ofdm"], "nonsense = 1", "nonsense"),
            (["ber", "--waveform", "ofdm"], "frames = abc", "frames"),
            (["ber", "--waveform", "linear_gfdm"], "subcarriers = 127", "subcarriers"),
            (["ber", "--waveform", "gfdm"], "prototype = phydyas\nsubcarriers = 127", "subcarriers"),
            (["ber", "--waveform", "fbmc"], "overlap = 7", "overlap"),
            (["ber", "--waveform", "ofdm"], "active = 999", "active"),
            (["ber", "--waveform", "gfdm"], "active = 3 128", "active"),
            (["ber", "--waveform", "gfdm"], "prototype = bogus", "prototype"),
            (["ber", "--waveform", "ofdm"], "cp_len = 512", "cp_len"),
            (["psd", "--waveform", "ofdm", "--frames", "1"], "", "frames"),
            (["ber", "--waveform", "ofdm"], "channel = tvfs\ntvfs_corrected = maybe", "tvfs_corrected"),
            (["ber", "--waveform", "gfdm", "--frames", "2"], "prototype = phydyas", "subsymbols"),
            (["ber", "--waveform", "gfdm"], "channel = tifs\nreceiver = mmse", "receiver"),
            (["ber", "--waveform", "gfdm"], "channel = tifs\ncp_len = 6", "cp_len"),
            (["ber", "--waveform", "ofdm"], "channel = tvfs\ncp_len = 2", "cp_len"),
            (["ber", "--waveform", "gfdm_oqam_circular"], "channel = tifs\ncp_len = 0", "cp_len"),
            (["ber", "--waveform", "ofdm"], "ebn0_grid_db = 8 4", "ebn0_grid_db"),
            (["ber", "--waveform", "gfdm"], "subcarriers = 7\nsubsymbols = 1\nchannel = tifs\ncp_len = 7", "cp_len"),
            (["ber", "--waveform", "ofdm"], "active = 3 3", "active"),
            (["ber", "--waveform", "ofdm"], "prototype = phydyas", "prototype"),
            (["ber", "--waveform", "ofdm", "--frames", "2", "--out", "/nonexistent/x.csv"], "", "/nonexistent/x.csv"),
            (["papr", "--waveform", "ofdm", "--frames", "2", "--emit-plot-data", "/nonexistent/x.dat"], "", "/nonexistent/x.dat"),
            (["ber", "--waveform", "ofdm"], "n_fft = 1\ncp_len = 0", "n_fft"),
            (["ber", "--waveform", "ofdm", "--ebn0", "nan", "--frames", "1"], "", "ebn0_grid_db"),
            (["ber", "--waveform", "ofdm", "--ebn0=-inf", "--frames", "1"], "", "ebn0_grid_db"),
            (["ber", "--waveform", "ofdm", "--frames", "1"], "ebn0_grid_db = 4 nan", "ebn0_grid_db"),
            (["ber", "--waveform", "ofdm", "--ebn0=-4000", "--frames", "1"], "", "ebn0_grid_db"),
            (["ber", "--waveform", "ofdm", "--frames", "1"], "metric = papr", "metric"),
            (["ber", "--waveform", "ofdm", "--frames", "1"], "error_target = -5", "error_target"),
            (["ber", "--waveform", "ofdm", "--frames", "1"], "min_bits = -1", "min_bits"),
            (["ber", "--waveform", "ofdm"], "frames = 5\nframes = 7", "cfg.txt:2: frames"),
            (["ber", "--waveform", "gfdm"], "receiver = bogus", "receiver"),
            (["ber", "--waveform", "gfdm"], "subsymbols = 0", "subsymbols"),
            (["ber", "--waveform", "ofdm"], "frames 5", "cfg.txt:1"),
        ],
        ids=[
            "unknown-key",
            "unparsable-frames",
            "odd-subcarriers-oqam",
            "odd-subcarriers-phydyas",
            "unsupported-overlap",
            "active-out-of-range-ofdm",
            "active-out-of-range-gfdm",
            "unknown-prototype",
            "cp-len-too-long",
            "psd-too-few-samples",
            "tvfs-corrected-not-boolean",
            "zf-on-singular-gfdm",
            "mmse-on-colored-noise",
            "cp-len-below-tifs-memory",
            "cp-len-below-tvfs-memory",
            "no-cp-on-tifs-oqam",
            "ebn0-grid-not-increasing",
            "cp-len-fills-short-frame",
            "duplicate-active",
            "phydyas-on-ofdm",
            "out-dir-missing",
            "plot-data-dir-missing",
            "n-fft-below-two-ofdm",
            "ebn0-nan-flag",
            "ebn0-minus-inf-flag",
            "ebn0-nan-in-config",
            "ebn0-underflows-noise-variance",
            "metric-is-the-subcommand",
            "negative-error-target",
            "negative-min-bits",
            "key-given-twice",
            "unknown-receiver",
            "no-subsymbols",
            "line-without-equals",
        ],
    )
    def test_bad_config_file_exit_code(self, tmp_path, capsys, argv, text, key):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text + "\n")
        rc = cli.main(argv + ["--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert key in err

    @pytest.mark.parametrize("flag", ["--out", "output_path", "--emit-plot-data"])
    def test_output_path_is_a_directory(self, tmp_path, monkeypatch, capsys, flag):
        # Checked before the run: a directory would only fail at the final write.
        monkeypatch.setattr(cli, "run_scenario", lambda config: pytest.fail("run started"))
        cfg = tmp_path / "cfg.txt"
        argv = ["ber", "--waveform", "ofdm", "--frames", "2", "--config", str(cfg)]
        if flag.startswith("--"):
            cfg.write_text("\n")
            argv += [flag, str(tmp_path)]
        else:
            cfg.write_text(f"{flag} = {tmp_path}\n")
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "is a directory" in err and str(tmp_path) in err

    @pytest.mark.parametrize("flag", ["--out", "--emit-plot-data"])
    def test_unwritable_output_path_exit_code(self, tmp_path, monkeypatch, capsys, flag):
        # The directory exists, so the checks pass and the write fails after
        # the run.  The PermissionError is injected where each file is
        # written: file modes stop no process run as root.
        target = str(tmp_path / "out.txt")

        def refuse(*args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), target)

        monkeypatch.setattr(metrics.MetricCurve, "write_csv", refuse)
        monkeypatch.setattr(cli.np, "savetxt", refuse)
        assert cli.main(["papr", "--waveform", "ofdm", "--frames", "2", flag, target]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and target in err
        assert "Traceback" not in err

    def test_ofdm_ignores_subcarriers(self, tmp_path, capsys):
        # OFDM's grid is n_fft x 1, so its size check looks at n_fft only.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("subcarriers = 1\n")
        argv = ["ber", "--waveform", "ofdm", "--ebn0", "8", "--frames", "2", "--config", str(cfg)]
        assert cli.main(argv) == 0

    def test_tvfs_corrected_flags(self):
        for val in ("1", "true", "YES"):
            assert cli._coerce("tvfs_corrected", val) is True
        for val in ("0", "False", "no"):
            assert cli._coerce("tvfs_corrected", val) is False

    def test_missing_waveform_exit_code(self, capsys):
        assert cli.main(["ber"]) == 2

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        def boom(config):
            raise EqualizationError(3, 0.0)

        monkeypatch.setattr("wavemod.cli.run_scenario", boom)
        rc = cli.main(["ber", "--waveform", "ofdm", "--frames", "2"])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_emit_plot_data(self, tmp_path):
        # The plot data are the CSV's columns under the same names: two for
        # PAPR, and for BER its theory, errors and bits after them.
        csv, dat = tmp_path / "out.csv", tmp_path / "plot.dat"
        runs = {
            ("abscissa", "value"): ["papr", "--waveform", "ofdm", "--frames", "200"],
            ("abscissa", "value", "theory", "errors", "bits"):
                ["ber", "--waveform", "ofdm", "--ebn0", "4", "8", "--frames", "2"],
        }
        for names, argv in runs.items():
            assert cli.main(argv + ["--out", str(csv), "--emit-plot-data", str(dat)]) == 0
            assert csv.read_text().splitlines()[1] == "# " + ",".join(names)
            assert dat.read_text().splitlines()[0] == "# " + " ".join(names)
            cols = np.loadtxt(dat)
            assert cols.shape[1] == len(names)
            assert np.all(np.diff(cols[:, 0]) > 0)
            np.testing.assert_array_equal(cols, np.loadtxt(csv, delimiter=","))

    def test_console_script_entrypoint(self):
        # The child imports the package this test imported, installed or not.
        package_root = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "wavemod.cli", "ber", "--waveform", "cdma"],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 2, proc.stderr

    def test_threads_env_var(self, monkeypatch):
        from wavemod.sim import n_threads

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setenv("WAVEMOD_THREADS", "7")
        assert n_threads() == 7
        monkeypatch.setenv("WAVEMOD_THREADS", "junk")
        assert n_threads() == 1
        monkeypatch.setenv("WAVEMOD_THREADS", "0")
        assert n_threads() == 1

    def test_threads_clamped_to_cpu_count(self, monkeypatch):
        # n_threads() only computes the count; no pool is started here.
        from wavemod.sim import n_threads

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setenv("WAVEMOD_THREADS", str(10**6))
        assert n_threads() == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # count unknown
        assert n_threads() == 1


class TestRunScenarioDispatch:
    def test_dispatches_by_metric(self):
        curve = run_scenario(
            ScenarioConfig(waveform="ofdm", metric="papr", frames=100)
        )
        assert curve.kind == "CCDF"

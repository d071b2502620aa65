import numpy as np
import oracle
import pytest
from conftest import cp_channel, oqam_columns

from wavemod import (
    TIFS_TAPS,
    build_fbmc_matrices,
    build_gfdm_matrix,
    build_linear_matrices,
    build_oqam_matrices,
    build_receiver,
    complex_awgn,
    gfdm_demodulate,
    gfdm_modulate,
    oqam_demodulate,
    oqam_modulate,
    phydyas,
    rectangular,
)
from wavemod import gfdm as gfdm_mod
from wavemod.gfdm import synthesis_band
from wavemod.sim import ScenarioConfig, WaveformParams, build_adapter


def _random_symbols(rng, n):
    return oracle.qam_map(rng.integers(0, 2, 4 * n), 16)


def _matrix(mats):
    """The core's plain GFDM transmit matrix: the frames of the unit symbols, one per column."""
    return gfdm_modulate(mats, np.eye(mats.frame_len)).T


def _receiver_matrix(rx):
    """The core's receiver as a matrix: its estimates for the unit sample frames, one per column."""
    return gfdm_demodulate(rx, np.eye(rx.size)).T


class TestBuildGfdmMatrix:
    def test_scalar_case(self):
        mats = build_gfdm_matrix(rectangular(1), 1, 1)
        np.testing.assert_allclose(_matrix(mats), [[1.0]])

    def test_rect_single_subsymbol_is_idft(self):
        a = _matrix(build_gfdm_matrix(rectangular(4), 4, 1))
        n = np.arange(4)
        idft = np.exp(2j * np.pi * np.outer(n, n) / 4) / 2.0
        np.testing.assert_allclose(a, idft, atol=1e-12)
        np.testing.assert_allclose(a.conj().T @ a, np.eye(4), atol=1e-12)

    def test_table_profile_shape(self):
        mats = build_gfdm_matrix(phydyas(128, 4), 128, 4)
        assert mats.zak.shape == (4, 128)
        assert _matrix(mats).shape == (512, 512)

    def test_equal_column_energy(self):
        energy = np.sum(np.abs(_matrix(build_gfdm_matrix(phydyas(16, 4), 16, 4))) ** 2, axis=0)
        np.testing.assert_allclose(energy, energy[0], rtol=1e-10)

    def test_column_structure(self):
        # Column k + m*K is the wrapped prototype rolled by m*K samples and
        # modulated to subcarrier k.
        k, m = 8, 2
        p = rectangular(k)
        a = _matrix(build_gfdm_matrix(p, k, m))
        n_tot = k * m
        g = np.zeros(n_tot)
        g[:k] = p
        n = np.arange(n_tot)
        for mm in range(m):
            for kk in range(k):
                want = np.roll(g, mm * k) * np.exp(2j * np.pi * kk * n / k)
                np.testing.assert_allclose(a[:, mm * k + kk], want, atol=1e-12)


class TestGfdmModulate:
    def test_impulse_extracts_column(self):
        mats = build_gfdm_matrix(rectangular(8), 8, 2)
        d = np.zeros(16, dtype=complex)
        d[0] = 1.0
        want = oracle.build_gfdm_matrix(rectangular(8), 8, 2)[:, 0]
        np.testing.assert_allclose(gfdm_modulate(mats, d), want, rtol=0, atol=1e-15)

    def test_zero_input(self):
        mats = build_gfdm_matrix(rectangular(8), 8, 2)
        assert not gfdm_modulate(mats, np.zeros(16)).any()

    def test_matches_double_sum(self):
        k, m = 8, 2
        mats = build_gfdm_matrix(rectangular(k), k, m)
        rng = np.random.default_rng(0)
        d = _random_symbols(rng, k * m)
        x = gfdm_modulate(mats, d)
        g = np.zeros(k * m)
        g[:k] = rectangular(k)
        n = np.arange(k * m)
        brute = np.zeros(k * m, dtype=complex)
        for mm in range(m):
            for kk in range(k):
                brute += d[mm * k + kk] * np.roll(g, mm * k) * np.exp(
                    2j * np.pi * kk * n / k
                )
        np.testing.assert_allclose(x, brute, atol=1e-12)

    def test_circularity_with_rect_prototype(self):
        # Shifting the data by one subsymbol slot circularly shifts the
        # signal by K samples.
        k, m = 8, 4
        mats = build_gfdm_matrix(rectangular(k), k, m)
        rng = np.random.default_rng(3)
        d = _random_symbols(rng, k * m)
        d_shift = np.roll(d, k)
        np.testing.assert_allclose(
            gfdm_modulate(mats, d_shift), np.roll(gfdm_modulate(mats, d), k), atol=1e-12
        )


class TestReceivers:
    def test_zf_inverse(self):
        # The core's ZF applied to the columns of the dense oracle matrix.
        mats = build_gfdm_matrix(rectangular(8), 8, 2)
        rx = build_receiver(mats, "zf")
        err = np.abs(gfdm_demodulate(rx, oracle.build_gfdm_matrix(rectangular(8), 8, 2)) - np.eye(16))
        assert err.max() <= 1e-9

    def test_mf_is_hermitian_transpose(self):
        mats = build_gfdm_matrix(rectangular(8), 8, 2)
        rx = build_receiver(mats, "mf")
        a = oracle.build_gfdm_matrix(rectangular(8), 8, 2)
        np.testing.assert_allclose(_receiver_matrix(rx), a.conj().T, rtol=0, atol=1e-12)

    def test_mmse_low_noise_limit(self):
        mats = build_gfdm_matrix(rectangular(8), 8, 2)
        zf = build_receiver(mats, "zf")
        mmse = build_receiver(mats, "mmse", noise_var=1e-12)
        assert np.abs(_receiver_matrix(mmse) - _receiver_matrix(zf)).max() <= 1e-6

    def test_mf_on_orthogonal_matrix(self):
        mats = build_gfdm_matrix(rectangular(8), 8, 1)
        rx = build_receiver(mats, "mf")
        rng = np.random.default_rng(0)
        d = _random_symbols(rng, 8)
        d_hat = gfdm_demodulate(rx, gfdm_modulate(mats, d))
        np.testing.assert_allclose(d_hat, d, atol=1e-9)

    def test_zf_loopback(self):
        mats = build_gfdm_matrix(rectangular(8), 8, 2)
        rx = build_receiver(mats, "zf")
        rng = np.random.default_rng(1)
        d = _random_symbols(rng, 16)
        np.testing.assert_allclose(gfdm_demodulate(rx, gfdm_modulate(mats, d)), d, atol=1e-9)

    def test_mmse_beats_zf_in_noise(self):
        # M = 3: at even M this prototype's matrix is singular and has no ZF.
        k, m = 8, 3
        mats = build_gfdm_matrix(phydyas(k, 2), k, m)
        noise_var = 10.0 ** (-10.0 / 10.0)  # Es/N0 = 10 dB, Es = 1
        zf = build_receiver(mats, "zf")
        mmse = build_receiver(mats, "mmse", noise_var=noise_var)
        rng = np.random.default_rng(7)
        mse_zf = mse_mmse = 0.0
        for _ in range(1000):
            d = _random_symbols(rng, k * m)
            y = gfdm_modulate(mats, d) + complex_awgn(rng, k * m, noise_var)
            mse_zf += np.mean(np.abs(gfdm_demodulate(zf, y) - d) ** 2)
            mse_mmse += np.mean(np.abs(gfdm_demodulate(mmse, y) - d) ** 2)
        assert mse_mmse <= mse_zf

    def test_zf_rejects_singular_matrix(self):
        # PHYDYAS at even M zeroes a Zak bin; MF and MMSE need no inverse.
        mats = build_gfdm_matrix(phydyas(8, 2), 8, 2)
        assert np.linalg.cond(oracle.build_gfdm_matrix(phydyas(8, 2), 8, 2)) > 1e12
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            build_receiver(mats, "zf")
        build_receiver(mats, "mf")
        build_receiver(mats, "mmse", noise_var=0.1)

    @pytest.mark.parametrize("kind", ["dfe", "ZF", "Mmse"])
    def test_rejects_unknown_kind(self, kind):
        # The kinds are RECEIVERS, spelled as there.
        mats = build_gfdm_matrix(rectangular(4), 4, 1)
        with pytest.raises(ValueError, match="unknown receiver kind"):
            build_receiver(mats, kind)


class TestOqamMatrices:
    def test_quadrature_is_rolled_inphase(self):
        a_i, a_q = oqam_columns(build_oqam_matrices(phydyas(16, 4), 16, 4))
        np.testing.assert_allclose(a_q[:, 0], np.roll(a_i[:, 0], 8))

    def test_table_profile_shapes(self):
        mats = build_oqam_matrices(phydyas(128, 4), 128, 4)
        assert mats.frame_len == mats.support_len == 512
        a_i, a_q = oqam_columns(mats)
        assert a_i.shape == (512, 512)
        assert a_q.shape == (512, 512)
        np.testing.assert_allclose(a_q, np.roll(a_i, 64, axis=0), rtol=0, atol=1e-12)

    def test_two_subcarrier_swap(self):
        a_i, a_q = oqam_columns(build_oqam_matrices(np.array([1.0, 0.0]), 2, 1))
        np.testing.assert_allclose(a_q, a_i[::-1], atol=1e-12)

    def test_quasi_orthogonality(self):
        # Real-domain interference must be far below the useful diagonal:
        # off-diagonal real parts of A_i^H A_i and imaginary parts of
        # A_q^H A_i stay under 1% of the diagonal.
        a_i, a_q = oqam_columns(build_oqam_matrices(phydyas(16, 4), 16, 4))
        g1 = np.real(a_i.conj().T @ a_i)
        g2 = np.imag(a_q.conj().T @ a_i)
        diag = np.diag(g1).copy()
        np.fill_diagonal(g1, 0.0)
        assert np.abs(g1).max() <= 1e-2 * diag.max()
        assert np.abs(g2).max() <= 1e-2 * diag.max()


def _dense_oqam():
    """The oracle's dense circular pair for PHYDYAS(8, 2), K=8, M=2."""
    return oracle.build_oqam_matrices(phydyas(8, 2), 8, 2)


_OQAM_BUILDERS = (build_oqam_matrices, build_linear_matrices, build_fbmc_matrices)


@pytest.mark.parametrize("k,m", [(8, 0), (8, -1), (0, 2), (7, 2)])
@pytest.mark.parametrize("build", (build_gfdm_matrix,) + _OQAM_BUILDERS)
def test_builders_name_the_bad_argument(build, k, m):
    p = phydyas(8, 4)
    if build is build_gfdm_matrix and k == 7:
        assert build(p, k, m).frame_len == 14  # plain GFDM takes an odd K
        return
    with pytest.raises(ValueError, match="subsymbols" if k == 8 else "subcarriers"):
        build(p, k, m)


@pytest.mark.parametrize("k", (2, 4, 6, 8, 10, 16, 32, 64, 128, 256))
@pytest.mark.parametrize(
    "build,reference",
    zip(_OQAM_BUILDERS, (oracle.circular_oqam_set, oracle.linear_oqam_set, oracle.fbmc_oqam_set)),
)
def test_one_builder_matches_the_three_constructions(build, reference, k):
    # Bit for bit, over M up to 16 and every prototype, also where the
    # prototype wraps (len(p) > K*M): the K/2-delayed prototype wrapped
    # additively is the wrapped one rolled by K/2.
    for m in range(1, 17):
        for p in [rectangular(k)] + [phydyas(k, overlap) for overlap in (1, 2, 3, 4)]:
            got, want = build(p, k, m), reference(p, k, m)
            assert np.array_equal(got.band, want.band) and got.gain == want.gain
            assert (got.circular, got.support_len, got.frame_len) == (
                want.circular, want.support_len, want.frame_len
            )


@pytest.mark.parametrize("k", (2, 4, 6, 16, 128, 256))
@pytest.mark.parametrize("build", _OQAM_BUILDERS)
def test_block_major_layout_matches_the_transposes(build, k):
    # The block-major GEMM operands change only strides, so the modem gives
    # the transpose-based modem's bits: at every M, at frame counts that
    # cross the frame block, and where the frame ends inside a block (a
    # linear frame of K*(4 + M) - K/2 + 2 samples at every K but 4, an FBMC
    # burst one sample shorter at every K but 2).
    rng = np.random.default_rng(k)
    for m in range(1, 9):
        mats = build(phydyas(k, 4), k, m)
        n = mats.frame_len
        d = rng.standard_normal((130, k * m)) + 1j * rng.standard_normal((130, k * m))
        y = rng.standard_normal((130, n)) + 1j * rng.standard_normal((130, n))
        for frames in (1, 3, 64, 65, 130):
            assert np.array_equal(
                oqam_modulate(mats, d[:frames]), oracle.oqam_modulate(mats, d[:frames])
            ), (m, frames)
            assert np.array_equal(
                oqam_demodulate(mats, y[:frames]), oracle.oqam_demodulate(mats, y[:frames])
            ), (m, frames)


class TestOqamModem:
    def test_real_data_uses_inphase_matrix(self):
        mats = build_oqam_matrices(phydyas(8, 2), 8, 2)
        d = np.arange(16.0)
        np.testing.assert_allclose(oqam_modulate(mats, d), _dense_oqam()[0] @ d, rtol=0, atol=1e-12)

    def test_imaginary_data_uses_quadrature_matrix(self):
        mats = build_oqam_matrices(phydyas(8, 2), 8, 2)
        d = 1j * np.arange(16.0)
        np.testing.assert_allclose(
            oqam_modulate(mats, d), 1j * (_dense_oqam()[1] @ d.imag), rtol=0, atol=1e-12
        )

    def test_matches_brute_force(self):
        mats = build_oqam_matrices(phydyas(8, 2), 8, 2)
        rng = np.random.default_rng(2)
        d = _random_symbols(rng, 16)
        a_i, a_q = _dense_oqam()
        want = a_i @ d.real + 1j * (a_q @ d.imag)
        np.testing.assert_allclose(oqam_modulate(mats, d), want, atol=1e-12)

    def test_noiseless_loopback(self):
        mats = build_oqam_matrices(phydyas(128, 4), 128, 4)
        rng = np.random.default_rng(4)
        d = _random_symbols(rng, 512)
        d_hat = oqam_demodulate(mats, oqam_modulate(mats, d))
        err = np.mean(np.abs(d_hat - d) ** 2) / np.mean(np.abs(d) ** 2)
        assert 10 * np.log10(err) <= -40.0

    def test_zero_input(self):
        mats = build_oqam_matrices(phydyas(8, 2), 8, 2)
        assert not oqam_demodulate(mats, np.zeros(16, dtype=complex)).any()

    @pytest.mark.parametrize("proto", [phydyas, rectangular])
    @pytest.mark.parametrize("m", [1, 3, 4])
    @pytest.mark.parametrize("k", [2, 6, 16, 128])
    @pytest.mark.parametrize(
        "build", [build_oqam_matrices, build_linear_matrices, build_fbmc_matrices]
    )
    def test_every_pulse_has_the_set_gain(self, build, k, m, proto):
        # The receiver divides both parts of every symbol by the one gain,
        # so every I and Q pulse must carry exactly that energy.
        mats = build(proto(k), k, m)
        for a in oqam_columns(mats):
            energy = np.sum(np.abs(a) ** 2, axis=0)
            np.testing.assert_allclose(energy, mats.gain, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("proto", [phydyas, rectangular])
    @pytest.mark.parametrize("k,m", [(2, 1), (6, 3), (16, 4), (256, 8)])
    @pytest.mark.parametrize(
        "build", [build_oqam_matrices, build_linear_matrices, build_fbmc_matrices]
    )
    def test_fused_band_is_the_branch_sum_and_difference(self, monkeypatch, build, k, m, proto):
        # The fused band is bit for bit (B_I + B_Q)/2 beside (B_I - B_Q)/2.
        branches = []

        def spy(*args):
            branches.append(synthesis_band(*args))
            return branches[-1].copy()

        monkeypatch.setattr(gfdm_mod, "synthesis_band", spy)
        mats = build(proto(k), k, m)
        b_i, b_q = np.split(branches[0], 2, axis=-1)
        assert np.array_equal(mats.band, np.concatenate([b_i + b_q, b_i - b_q], axis=-1) / 2)

    def test_single_symbol_interference(self):
        mats = build_oqam_matrices(phydyas(128, 4), 128, 4)
        d = np.zeros(512, dtype=complex)
        d[0] = 1.0
        d_hat = oqam_demodulate(mats, oqam_modulate(mats, d))
        assert abs(d_hat[0].real - 1.0) <= 1e-2
        cross = np.abs(d_hat.real[1:]).max()
        assert 20 * np.log10(max(cross, 1e-300)) <= -40.0


class TestCyclicPrefix:
    def test_basic(self):
        np.testing.assert_array_equal(oracle.add_cp(np.array([1, 2, 3, 4]), 2), [3, 4, 1, 2, 3, 4])

    def test_zero_length_identity(self):
        x = np.arange(5.0)
        np.testing.assert_array_equal(oracle.add_cp(x, 0), x)
        np.testing.assert_array_equal(oracle.remove_cp(x, 0), x)

    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        np.testing.assert_array_equal(oracle.remove_cp(oracle.add_cp(x, 16), 16), x)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            oracle.add_cp(np.arange(4), 5)

    @pytest.mark.parametrize(
        "waveform,modulate", [("gfdm", gfdm_modulate), ("gfdm_oqam_circular", oqam_modulate)]
    )
    def test_adapter_writes_the_prefix_in_place(self, waveform, modulate):
        wp = WaveformParams(subcarriers=16, subsymbols=3, cp_len=5)
        adapter = build_adapter(ScenarioConfig(waveform=waveform, waveform_params=wp))
        rng = np.random.default_rng(8)
        d = rng.standard_normal((4, 48)) + 1j * rng.standard_normal((4, 48))
        frames = adapter.transmit(d)
        for x, core in zip(frames, modulate(adapter.mats, d)):
            np.testing.assert_array_equal(x, oracle.add_cp(core, 5))


class TestChannelConsistency:
    def test_circulant_matches_circular_convolution(self):
        # The circulant channel matrix acting on a frame must agree with the
        # pipeline's linear channel behind a cyclic prefix.
        rng = np.random.default_rng(6)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        h = oracle.circulant_matrix(TIFS_TAPS, 64)
        np.testing.assert_allclose(h @ x, cp_channel(x, TIFS_TAPS, 16), atol=1e-12)

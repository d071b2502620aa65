import numpy as np
import oracle
import pytest
from conftest import TOL, oqam_columns

from wavemod import (
    build_linear_matrices,
    oqam_demodulate,
    oqam_modulate,
    phydyas,
)


def _support(col, tol=0.0):
    nz = np.flatnonzero(np.abs(col) > tol)
    return (nz[0], nz[-1]) if len(nz) else (None, None)


class TestBuildLinearMatrices:
    def test_table_profile_dimensions(self):
        mats = build_linear_matrices(phydyas(128, 4), 128, 4)
        a_i, a_q = oqam_columns(mats)
        assert a_i.shape == (962, 512)
        assert a_q.shape == (962, 512)
        assert mats.frame_len == 962
        assert mats.support_len == 961
        assert mats.band.shape == (128, 8, 8)  # residues, 128-sample blocks, 2M pulses

    def test_last_column_no_wrap(self):
        mats = build_linear_matrices(phydyas(128, 4), 128, 4)
        first, last = _support(oqam_columns(mats)[1][:, -1])
        assert last == 3 * 128 + 64 + 513 - 1 == 960
        assert last < mats.frame_len

    @pytest.mark.parametrize("k,m", [(4, 2), (16, 4), (128, 4), (2, 1), (6, 3)])
    def test_wrap_freedom_contiguous_support(self, k, m):
        # Every pulse is the prototype's contiguous support, exactly zero
        # elsewhere: in the branch bands recovered from the set's fused band
        # and in the independent dense pair.  The modem adds no wrapped tail:
        # its columns match that pair.  (They are not compared for exact
        # zeros: the fused branches cancel to rounding, not to 0, where one
        # branch has no taps.)  Recovering B_I = B_u + B_v and B_Q = B_u - B_v
        # is exact wherever one branch is zero.
        p = phydyas(k, 4)
        mats = build_linear_matrices(p, k, m)
        b_u, b_v = mats.band[..., :m], mats.band[..., m:]
        branches = (b_u + b_v, b_u - b_v)
        sample = np.arange(k)[:, None] + k * np.arange(mats.band.shape[1])[None, :]
        for branch, delay in enumerate((0, k // 2)):
            for mm in range(m):
                start = mm * k + delay
                taps = branches[branch][:, :, mm]
                inside = (sample >= start) & (sample < start + len(p))
                assert not taps[~inside].any() and np.abs(taps[inside]).min() > 0
        dense = oracle.build_linear_matrices(p, k, m)
        for mat, delay in zip(dense, (0, k // 2)):
            for col in range(mat.shape[1]):
                start = (col // k) * k + delay
                assert not mat[:start, col].any() and not mat[start + len(p):, col].any()
                assert np.abs(mat[start:start + len(p), col]).min() > 0
        for got, want in zip(oqam_columns(mats), dense):
            assert np.abs(got - want).max() / max(1.0, np.abs(want).max()) <= TOL

    def test_quadrature_shift_relation(self):
        # Each quadrature column is the in-phase column delayed by K/2
        # samples, times the per-subcarrier sign picked up by the absolute-
        # index modulating exponential.
        k, m = 16, 2
        a_i, a_q = oqam_columns(build_linear_matrices(phydyas(k, 4), k, m))
        for mm in range(m):
            for kk in range(k):
                col = mm * k + kk
                shifted = np.roll(a_i[:, col], k // 2)
                shifted[: k // 2] = 0.0
                want = shifted * (-1) ** kk
                np.testing.assert_allclose(a_q[:, col], want, atol=1e-12)

    def test_small_even_case(self):
        mats = build_linear_matrices(np.array([1.0, 0.0, 0.0]), 2, 1)
        assert mats.frame_len == 3 + 2
        # tail rows beyond the support stay structurally zero
        a_i, a_q = oqam_columns(mats)
        assert not a_i[mats.support_len:].any()
        assert not a_q[mats.support_len:].any()


class TestLinearModulate:
    def test_real_impulse_extracts_first_column(self):
        mats = build_linear_matrices(phydyas(16, 4), 16, 2)
        d = np.zeros(32, dtype=complex)
        d[0] = 1.0
        want = oracle.build_linear_matrices(phydyas(16, 4), 16, 2)[0][:, 0]
        np.testing.assert_allclose(oqam_modulate(mats, d), want, rtol=0, atol=1e-15)

    def test_energy_additivity(self):
        mats = build_linear_matrices(phydyas(128, 4), 128, 4)
        rng = np.random.default_rng(0)
        d = oracle.qam_map(rng.integers(0, 2, 2048), 16)
        x = oqam_modulate(mats, d)
        col_e = np.sum(np.abs(oqam_columns(mats)[0][:, 0]) ** 2)
        want = np.sum(np.abs(d.real) ** 2 + np.abs(d.imag) ** 2) * col_e
        assert abs(np.sum(np.abs(x) ** 2) - want) / want <= 0.01

    def test_smooth_edges(self):
        mats = build_linear_matrices(phydyas(128, 4), 128, 4)
        rng = np.random.default_rng(1)
        d = oracle.qam_map(rng.integers(0, 2, 2048), 16)
        x = oqam_modulate(mats, d)
        peak = np.abs(x).max()
        assert abs(x[0]) <= 1e-3 * peak
        assert abs(x[-1]) <= 1e-3 * peak

    def test_matches_fbmc_burst(self):
        k, m = 128, 4
        p = phydyas(k, 4)
        mats = build_linear_matrices(p, k, m)
        rng = np.random.default_rng(2)
        d = oracle.qam_map(rng.integers(0, 2, 4 * k * m), 16)
        x_lin = oqam_modulate(mats, d)
        x_fbmc = oracle.fbmc_burst(p, k, m, d)
        assert np.abs(x_lin[: len(x_fbmc)] - x_fbmc).max() <= 1e-10
        assert np.abs(x_lin[len(x_fbmc):]).max() == 0.0


class TestLinearDemodulate:
    def test_noiseless_loopback(self):
        mats = build_linear_matrices(phydyas(128, 4), 128, 4)
        rng = np.random.default_rng(3)
        d = oracle.qam_map(rng.integers(0, 2, 2048), 16)
        d_hat = oqam_demodulate(mats, oqam_modulate(mats, d))
        err = np.mean(np.abs(d_hat - d) ** 2) / np.mean(np.abs(d) ** 2)
        assert 10 * np.log10(err) <= -40.0

    def test_zero_input(self):
        mats = build_linear_matrices(phydyas(16, 4), 16, 2)
        assert not oqam_demodulate(mats, np.zeros(mats.frame_len)).any()

    def test_dimension_check(self):
        mats = build_linear_matrices(phydyas(16, 4), 16, 2)
        with pytest.raises(ValueError):
            oqam_demodulate(mats, np.zeros(10))

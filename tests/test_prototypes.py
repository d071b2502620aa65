import numpy as np
import pytest

from wavemod import linear_pad_length, phydyas, rectangular


GRID = [(k, theta) for k in (4, 16, 128) for theta in (2, 3, 4)]


class TestPhydyas:
    def test_table_profile_length(self):
        p = phydyas(128, 4)
        assert len(p) == 4 * 128 + 1 == 513

    def test_smallest_case_symmetric(self):
        p = phydyas(2, 1)
        assert len(p) == 3
        np.testing.assert_allclose(p, p[::-1])

    @pytest.mark.parametrize("k,theta", GRID)
    def test_real_symmetric_unit_energy(self, k, theta):
        c = phydyas(k, theta)
        assert np.isrealobj(c)
        np.testing.assert_allclose(c, c[::-1], atol=1e-14)
        assert abs(np.sum(c ** 2) - 1.0) <= 1e-12

    def test_half_nyquist(self):
        # Autocorrelation at multiples of K must be negligible relative to
        # the zero-lag energy: the matched filter sees (almost) no ISI.
        k = 16
        c = phydyas(k, 4)
        r0 = np.sum(c ** 2)
        for m in (1, 2, 3):
            rm = np.sum(c[: -m * k] * c[m * k:])
            assert abs(rm) / r0 < 1e-3

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            phydyas(7, 4)
        with pytest.raises(ValueError):
            phydyas(16, 0)
        with pytest.raises(ValueError, match="overlap"):
            phydyas(16, 5)


class TestRectangular:
    def test_single_tap(self):
        np.testing.assert_allclose(rectangular(1), [1.0])

    def test_unit_energy_scaling(self):
        np.testing.assert_allclose(rectangular(4), [0.5] * 4)

    def test_large(self):
        c = rectangular(512)
        assert len(c) == 512
        assert np.ptp(c) == 0.0
        assert abs(np.sum(c ** 2) - 1.0) <= 1e-12


@pytest.mark.parametrize("make", [lambda: phydyas(16, 4), lambda: rectangular(16)], ids=["phydyas", "rectangular"])
def test_prototype_is_a_plain_float_array(make):
    c = make()
    assert type(c) is np.ndarray
    assert c.dtype == np.float64 and c.ndim == 1


class TestLinearPadLength:
    def test_default_profile(self):
        assert linear_pad_length(128, 4) == 449

    def test_smallest(self):
        assert linear_pad_length(2, 1) == 2

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            linear_pad_length(3, 4)

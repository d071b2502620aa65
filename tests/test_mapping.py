import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemod._work import BLOCK
from wavemod.mapping import _axis_levels, _demap_axis, demap_labels, map_packed, packed_labels
from wavemod.sim import _bit_errors, _sent_labels


def _demap_axis_oracle(values, order):
    """Nearest level by brute force over every level; ties to the smaller Gray label."""
    amps, labels, _ = _axis_levels(order)
    dist = np.abs(values[:, None] - amps[None, :])
    dmin = dist.min(axis=1, keepdims=True)
    tol = 1e-12 * (1.0 + np.abs(values[:, None]))
    candidate = np.where(dist <= dmin + tol, labels[None, :], np.iinfo(np.int64).max)
    return candidate.min(axis=1)


def _label_bits(order):
    """(order, log2(order)) bits of every label, MSB first."""
    bps = int(np.log2(order))
    return (np.arange(order)[:, None] >> np.arange(bps - 1, -1, -1)) & 1


def _oracle_labels(symbols, order):
    """The labels whose bits ``oracle.qam_demap`` decides, one per symbol."""
    bps = int(np.log2(order))
    bits = oracle.qam_demap(symbols, order).reshape(len(symbols), bps)
    return bits @ (1 << np.arange(bps - 1, -1, -1))


def _points(order):
    """Every point ``map_packed`` maps, indexed by its label."""
    packed = np.packbits(_label_bits(order).astype(np.uint8))
    np.testing.assert_array_equal(packed_labels(packed, order, order), np.arange(order))
    return map_packed(packed, order, order)


class TestMapPacked:
    def test_qpsk_all_zero_bits(self):
        np.testing.assert_allclose(map_packed(np.zeros(1, dtype=np.uint8), 4, 1), [(1 + 1j) / np.sqrt(2)])

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_unit_average_energy(self, order):
        pts = _points(order)
        assert abs(np.mean(np.abs(pts) ** 2) - 1.0) <= 1e-12

    def test_16qam_grid(self):
        pts = _points(16)
        assert len(set(np.round(pts, 12))) == 16
        grid = np.array([a + 1j * b for a in (-3, -1, 1, 3) for b in (-3, -1, 1, 3)])
        grid = grid / np.sqrt(10)
        assert set(np.round(pts, 12)) == set(np.round(grid, 12))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: map_packed(np.zeros(3, dtype=np.uint8), 8, 8),
            lambda: packed_labels(np.zeros(3, dtype=np.uint8), 8, 8),
            lambda: demap_labels(np.zeros(8, dtype=complex), 8),
        ],
    )
    def test_rejects_unsupported_order(self, call):
        with pytest.raises(ValueError, match="unsupported QAM order 8"):
            call()


class TestDemapLabels:
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_noiseless_roundtrip(self, order):
        n = 10_008 // int(np.log2(order))
        packed = np.random.default_rng(0).integers(0, 256, -(-n * int(np.log2(order)) // 8), dtype=np.uint8)
        d = map_packed(packed, order, n)
        np.testing.assert_array_equal(demap_labels(d, order), packed_labels(packed, order, n))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan)])
    def test_rejects_non_finite_symbols(self, bad):
        # A label taken for a NaN would count as received bits.
        y = np.full(2 * BLOCK + 9, 0.3 + 0.3j)
        y[BLOCK + 4] = bad
        with pytest.raises(ValueError, match=f"symbols must be finite, got .* at index {BLOCK + 4}$"):
            demap_labels(y, 16)

    def test_tie_break_toward_smaller_label(self):
        # A symbol exactly on the boundary between two levels must always
        # resolve to the numerically smaller label.
        pts = _points(16)
        order_by_real = np.argsort(pts.real + 1e-6 * pts.imag)
        # midpoint between two horizontally adjacent points, same imag row
        a, b = order_by_real[0], order_by_real[4]
        mid = (pts[a] + pts[b]) / 2
        assert demap_labels([mid], 16)[0] == min(a, b)

    def test_corner_point_with_offset(self):
        target = (3 + 3j) / np.sqrt(10)
        want = demap_labels([target], 16)
        got = demap_labels([target + 0.01], 16)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_gray_property(self, order):
        # Points at minimum distance differ in exactly one bit.
        pts = _points(order)
        dist = np.abs(pts[:, None] - pts[None, :])
        dmin = dist[~np.eye(order, dtype=bool)].min()
        for i, j in zip(*np.nonzero((dist <= dmin * 1.001) & ~np.eye(order, dtype=bool))):
            assert bin(i ^ j).count("1") == 1, (i, j)

    # Amplitudes stay where the tie tolerance 1e-12*(1+|v|) is far below the
    # level spacing, as every demodulator output does; beyond |v| ~ 1e11 the
    # brute-force tolerance spans several levels at once.
    @settings(max_examples=300, deadline=None)
    @given(
        order=st.sampled_from([4, 16, 64]),
        amplitudes=st.lists(st.floats(-1e6, 1e6), max_size=20),
        midpoints=st.lists(st.tuples(st.integers(0, 6), st.integers(-30, 30)), max_size=20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_axis_matches_brute_force(self, order, amplitudes, midpoints, seed):
        amps, _, _ = _axis_levels(order)
        mids = (amps[:-1] + amps[1:]) / 2.0
        near_ties = [mids[i % len(mids)] + k * 1e-13 for i, k in midpoints]
        values = np.array(amplitudes + near_ties + list(mids), dtype=float)
        np.testing.assert_array_equal(_demap_axis(values, order), _demap_axis_oracle(values, order))
        # The same values against the arithmetic demapper the tables replaced.
        np.testing.assert_array_equal(_demap_axis(values, order), oracle.demap_axis(values, order))
        y = values + 1j * np.random.default_rng(seed).permutation(values)
        np.testing.assert_array_equal(demap_labels(y, order), _oracle_labels(y, order))


# The table-driven mapper against the arithmetic one it replaced (tests/oracle.py).
class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(order=st.sampled_from([4, 16, 64]), bits=st.lists(st.integers(0, 1), max_size=600))
    def test_map_random_bits(self, order, bits):
        bits = bits[: len(bits) - len(bits) % int(np.log2(order))]
        n = len(bits) // int(np.log2(order))
        packed = np.packbits(np.array(bits, dtype=np.uint8))
        np.testing.assert_array_equal(map_packed(packed, order, n), oracle.qam_map(bits, order))

    @settings(max_examples=200, deadline=None)
    @given(order=st.sampled_from([4, 16, 64]), n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
    def test_packed_bytes_map_like_their_bits(self, order, n, seed):
        # Counts that end in a partial byte or 3-byte group, whose unused
        # bits are random, as drawn.
        bps = int(np.log2(order))
        packed = np.random.default_rng(seed).integers(0, 256, -(-n * bps // 8), dtype=np.uint8)
        want = oracle.qam_map(np.unpackbits(packed)[: n * bps], order)
        np.testing.assert_array_equal(map_packed(packed, order, n), want)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_packed_bytes_must_hold_every_symbol(self, order):
        n = 8 * 3 + 1  # one symbol past three bytes' worth
        with pytest.raises(ValueError, match="bytes"):
            map_packed(np.zeros(n * int(np.log2(order)) // 8, dtype=np.uint8), order, n)

    @settings(max_examples=100, deadline=None)
    @given(
        order=st.sampled_from([4, 16, 64]),
        seed=st.integers(0, 2**32 - 1),
        sigma=st.floats(0.0, 2.0),
    )
    def test_demap_noisy_symbols(self, order, seed, sigma):
        rng = np.random.default_rng(seed)
        d = oracle.qam_map(rng.integers(0, 2, 300 * int(np.log2(order))), order)
        y = d + sigma * (rng.standard_normal(d.size) + 1j * rng.standard_normal(d.size))
        np.testing.assert_array_equal(demap_labels(y, order), _oracle_labels(y, order))

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_blocks_and_out_match_reference(self, order):
        # Map and demap run BLOCK symbols at a time; three blocks and a rest.
        bps = int(np.log2(order))
        rng = np.random.default_rng(order)
        bits = rng.integers(0, 2, (3 * BLOCK + 5) * bps)
        d = np.zeros(3 * BLOCK + 5, dtype=complex)
        assert map_packed(np.packbits(bits), order, d.size, out=d) is d
        np.testing.assert_array_equal(d, oracle.qam_map(bits, order))
        y = d + 0.3 * (rng.standard_normal(d.size) + 1j * rng.standard_normal(d.size))
        labels = np.zeros(d.size, dtype=np.uint8)
        assert demap_labels(y, order, out=labels) is labels
        np.testing.assert_array_equal(labels, _oracle_labels(y, order))


class TestLabelCount:
    """Bit errors as the set bits of sent label XOR decided label, against unpacked bits."""

    @settings(max_examples=200, deadline=None)
    @given(
        order=st.sampled_from([4, 16, 64]),
        n=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
        sigma=st.floats(0.0, 1.5),
        ties=st.lists(
            st.tuples(st.integers(0, 79), st.integers(0, 6), st.integers(-3, 3)), max_size=12
        ),
    )
    def test_label_count_matches_bit_count(self, order, n, seed, sigma, ties):
        # Counts that end in a partial byte or 3-byte group; some symbol parts
        # sit on a midpoint between levels or inside the tie band around one.
        bps = int(np.log2(order))
        rng = np.random.default_rng(seed)
        packed = rng.integers(0, 256, -(-n * bps // 8), dtype=np.uint8)
        d = map_packed(packed, order, n)
        y = d + sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        amps, _, _ = _axis_levels(order)
        mids = (amps[:-1] + amps[1:]) / 2.0
        parts = y.view(float)
        for at, mid, k in ties:
            if n:
                parts[at % (2 * n)] = mids[mid % len(mids)] + k * 1e-13
        bits = oracle.qam_demap(y, order)
        want = np.count_nonzero(np.unpackbits(packed, count=n * bps) != bits)
        assert _bit_errors(_sent_labels(packed, order, n), y, order) == want
        np.testing.assert_array_equal(demap_labels(y, order), _oracle_labels(y, order))
        np.testing.assert_array_equal(_points(order)[packed_labels(packed, order, n)], d)

    def test_count_refuses_bytes_that_do_not_match_the_symbols(self):
        with pytest.raises(ValueError, match="2 bytes drawn for 20 received bits"):
            _sent_labels(np.zeros(2, dtype=np.uint8), 16, 5)

    def test_non_finite_symbol_is_named(self):
        y = np.full(BLOCK + 9, 0.3 + 0.3j)
        y[BLOCK // 2 + 3] = complex(np.inf, 0.0)
        with pytest.raises(ValueError, match=f"at index {BLOCK // 2 + 3}"):
            demap_labels(y, 64)

# %%
# From circular to linear filtering: the transmit matrices
# ========================================================
#
# A GFDM frame is x = A d, where each column of A is the prototype filter
# shifted to a subcarrier frequency and a subsymbol slot.  In the classic
# modem the shifts are circular, so the filter tails wrap around the frame
# edges.  Zero-padding the prototype removes the wrap: the columns of the
# extended matrices have contiguous support and the frame edges decay
# smoothly — that is the Linear GFDM configuration, and its output is
# sample-identical to an FBMC-OQAM burst.
#
# The library never stores A: one builder describes all three OQAM sets by
# the same two polyphase rows (the prototype's and the prototype delayed by
# K/2), and the modem applies them with FFTs.  The modems take and return
# one frame per row, so the matrices shown here are the transposed frames of
# the unit symbols.  Every claim printed below is also asserted.

import numpy as np

from wavemod import (
    build_fbmc_matrices,
    build_gfdm_matrix,
    build_linear_matrices,
    build_oqam_matrices,
    gfdm_modulate,
    oqam_demodulate,
    oqam_modulate,
    phydyas,
)
from wavemod.mapping import map_packed

K, M = 128, 4
p = phydyas(K, 4)


def oqam_pair(mats):
    """(A_i, A_q): the frames of a unit real and a unit imaginary symbol, per column."""
    eye = np.eye(mats.n_symbols)
    return oqam_modulate(mats, eye).T, -1j * oqam_modulate(mats, 1j * eye).T


# %%
# Circular OQAM matrices: N x N, hard wrap at the frame edges.

circ = build_oqam_matrices(p, K, M)
circ_i, circ_q = oqam_pair(circ)
print("circular A_i shape:", circ_i.shape)
rolled = np.allclose(circ_q, np.roll(circ_i, K // 2, axis=0))
print("A_q is A_i rolled by K/2 samples:", rolled)
assert circ_i.shape == (K * M, K * M) and rolled
first_row_power = np.sum(np.abs(circ_i[0]) ** 2)
print(f"power in first row (wrapped tails): {first_row_power:.3f}")

# %%
# Linear matrices: taller (962 x 512 for the default profile), no wrap.

lin = build_linear_matrices(p, K, M)
lin_i, _ = oqam_pair(lin)
print("\nlinear A_i shape:", lin_i.shape)
print("signal support ends at sample:", lin.support_len)
edge_power = np.sum(np.abs(lin_i[0]) ** 2) + np.sum(np.abs(lin_i[-1]) ** 2)
print(f"power in first+last rows: {edge_power:.2e}  (smooth edges)")
assert lin_i.shape == (962, 512) and edge_power < 1e-6

# %%
# The headline equivalence: modulating the same data through the linear
# matrices gives the FBMC-OQAM burst, built here from its definition as the
# double sum of shifted, modulated synthesis pulses: the prototype delayed
# by m*K (plus K/2 for the quadrature pulse), modulated over the absolute
# sample index and rotated by the OQAM quarter turn j^k.

rng = np.random.default_rng(0)
d = map_packed(np.packbits(rng.integers(0, 2, 4 * K * M)), 16, K * M)


def synthesis_pulse(k, m, part, length):
    offset = m * K + (K // 2 if part == "Q" else 0)
    pulse = np.zeros(length, dtype=complex)
    pulse[offset:offset + len(p)] = p
    return pulse * np.exp(2j * np.pi * k * np.arange(length) / K) * 1j**k


x_lin = oqam_modulate(lin, d)
nb = lin.support_len  # the FBMC burst length
x_fbmc = np.zeros(nb, dtype=complex)
for m in range(M):
    for k in range(K):
        s = d[m * K + k]
        x_fbmc += s.real * synthesis_pulse(k, m, "I", nb)
        x_fbmc += 1j * s.imag * synthesis_pulse(k, m, "Q", nb)
max_diff = np.abs(x_lin[:nb] - x_fbmc).max()
print("\nmax |linear - fbmc|:", max_diff)
print("linear tail past the burst is zero:", not x_lin[nb:].any())
assert max_diff < 1e-10 and not x_lin[nb:].any()

# %%
# So the FBMC modem is the linear pair cut to its support: same modem core
# (oqam_modulate / oqam_demodulate), frames of support_len samples.

fbmc = build_fbmc_matrices(p, K, M)
fbmc_i = oqam_pair(fbmc)[0]
print("\nFBMC A_i shape:", fbmc_i.shape, "frame_len == nb:", fbmc.frame_len == nb)
assert fbmc_i.shape == (nb, K * M) and fbmc.frame_len == nb
d_hat = oqam_demodulate(fbmc, oqam_modulate(fbmc, d))
err_db = 10 * np.log10(np.mean(np.abs(d_hat - d) ** 2) / np.mean(np.abs(d) ** 2))
print(f"noiseless FBMC loopback error: {err_db:.0f} dB")

# %%
# Contrast with the circular modem: same data, visibly different edges.

x_circ = oqam_modulate(circ, d)
print("\nframe edge magnitudes (relative to the frame peak):")
print(f"  circular: |x[0]| = {abs(x_circ[0]) / np.abs(x_circ).max():.3f}")
print(f"  linear:   |x[0]| = {abs(x_lin[0]) / np.abs(x_lin).max():.2e}")

# %%
# A plain GFDM sanity check: with a rectangular prototype and one subsymbol
# the transmit matrix is just the unitary inverse DFT, i.e. OFDM.

from wavemod import rectangular

rect_case = gfdm_modulate(build_gfdm_matrix(rectangular(4), 4, 1), np.eye(4)).T
idft = np.exp(2j * np.pi * np.outer(np.arange(4), np.arange(4)) / 4) / 2.0
is_idft = np.allclose(rect_case, idft)
print("\nGFDM(rect, M=1) equals the unitary IDFT:", is_idft)
assert is_idft

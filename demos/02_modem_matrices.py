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

import numpy as np

from wavemod import (
    build_fbmc_matrices,
    build_gfdm_matrix,
    build_linear_matrices,
    build_oqam_matrices,
    burst_length,
    oqam_demodulate,
    oqam_modulate,
    phydyas,
    qam_map,
    synthesis_pulse,
)

K, M = 128, 4
p = phydyas(K, 4)

# %%
# Circular OQAM matrices: N x N, hard wrap at the frame edges.

circ = build_oqam_matrices(p, K, M)
print("circular A_i shape:", circ.a_i.shape)
print("A_q is A_i rolled by K/2 samples:",
      np.allclose(circ.a_q, np.roll(circ.a_i, K // 2, axis=0)))
first_row_power = np.sum(np.abs(circ.a_i[0]) ** 2)
print(f"power in first row (wrapped tails): {first_row_power:.3f}")

# %%
# Linear matrices: taller (962 x 512 for the default profile), no wrap.

lin = build_linear_matrices(p, K, M)
print("\nlinear A_i shape:", lin.a_i.shape)
print("signal support ends at sample:", lin.support_len)
edge_power = np.sum(np.abs(lin.a_i[0]) ** 2) + np.sum(np.abs(lin.a_i[-1]) ** 2)
print(f"power in first+last rows: {edge_power:.2e}  (smooth edges)")

# %%
# The headline equivalence: modulating the same data through the linear
# matrices gives the FBMC-OQAM burst, built here from its definition as the
# double sum of shifted, modulated synthesis pulses.

rng = np.random.default_rng(0)
d = qam_map(rng.integers(0, 2, 4 * K * M), 16)

x_lin = oqam_modulate(lin, d)
nb = burst_length(p, K, M)
x_fbmc = np.zeros(nb, dtype=complex)
for m in range(M):
    for k in range(K):
        s = d[m * K + k]
        x_fbmc += s.real * synthesis_pulse(k, m, "I", p, K, nb)
        x_fbmc += 1j * s.imag * synthesis_pulse(k, m, "Q", p, K, nb)
print("\nmax |linear - fbmc|:", np.abs(x_lin[:nb] - x_fbmc).max())
print("linear tail past the burst is zero:", not x_lin[nb:].any())

# %%
# So the FBMC modem is the linear pair cut to its support: same modem core
# (oqam_modulate / oqam_demodulate), frames of burst_length samples.

fbmc = build_fbmc_matrices(p, K, M)
print("\nFBMC A_i shape:", fbmc.a_i.shape)
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

rect_case = build_gfdm_matrix(rectangular(4), 4, 1)
idft = np.exp(2j * np.pi * np.outer(np.arange(4), np.arange(4)) / 4) / 2.0
print("\nGFDM(rect, M=1) equals the unitary IDFT:",
      np.allclose(rect_case.a, idft))

# %%
# Prototype filters: the pulse shapes behind every waveform in this library
# =========================================================================
#
# All the multicarrier modems here are built from a single real-valued pulse,
# the prototype filter.  OFDM uses a plain rectangle; the filter-bank
# waveforms use the PHYDYAS frequency-sampling design, whose squared
# magnitude satisfies the Nyquist criterion so that matched filtering sees
# (almost) no inter-symbol interference.

import numpy as np

from wavemod import linear_pad_length, phydyas, rectangular

K = 128       # subcarriers
THETA = 4     # overlapping factor
M = 4         # subsymbols per frame

# %%
# Build the two filters used by the default configurations.

p_rect = rectangular(K)
p_phy = phydyas(K, THETA)

print("rectangular length:", len(p_rect))
print("phydyas length:    ", len(p_phy), f"(= {THETA}*{K}+1)")
print("phydyas energy:    ", np.sum(p_phy ** 2))
print("phydyas symmetric: ", np.allclose(p_phy, p_phy[::-1]))

# %%
# The half-Nyquist property: the autocorrelation of the pulse at multiples
# of K samples is essentially zero, so symbols spaced K apart do not
# interfere after matched filtering.

r0 = np.sum(p_phy ** 2)
print("\nautocorrelation at lag m*K (relative to lag 0):")
for m in range(1, THETA):
    rm = np.sum(p_phy[: -m * K] * p_phy[m * K:])
    print(f"  m={m}: {rm / r0:+.2e}")

# %%
# Zero padding is the one-line trick that turns the circular GFDM modem into
# a linear filter bank: append enough zeros that no circular shift of the
# prototype ever wraps around the frame boundary.

pad = linear_pad_length(K, M)
padded = np.pad(p_phy, (0, pad))
print("\npad length L_Z:", pad, f"(= {K}*{M} - {K}/2 + 1)")
print("extended length:", len(padded), f"(= {len(p_phy)} + {pad})")

# %%
# A quick look at the spectrum: the PHYDYAS stopband is what buys the
# filter-bank waveforms their out-of-band suppression.

for name, p in (("rect", p_rect), ("phydyas", p_phy)):
    spec = np.abs(np.fft.fft(p, 8192)) ** 2
    spec /= spec.max()
    # power beyond two subcarrier spacings from the center
    f = np.fft.fftfreq(8192)
    out = spec[np.abs(f) > 2.0 / K].max()
    print(f"{name:8s} worst sidelobe beyond 2/K: {10 * np.log10(out):7.1f} dB")

"""Closed forms the benchmark checks wavemod's outputs against.

Everything here is derived apart from ``wavemod`` and needs only the standard
library: Gray-labelled 16-QAM over AWGN, its average over a flat Rayleigh
fade, the variance of the per-frame bit error rate over that fade, and the
binomial spreads of counted proportions.
"""

import math

# Exact Gray 16-QAM bit error probability over AWGN:
#   P_b = 3/4 Q(a) + 1/2 Q(3a) - 1/4 Q(5a),  a = sqrt(0.8 Eb/N0),
# listed as (weight, multiple of a).
QAM16_TERMS = ((0.75, 1.0), (0.5, 3.0), (-0.25, 5.0))


def qfunc(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0, 1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _a(ebn0_db: float) -> float:
    return math.sqrt(0.8 * 10.0 ** (ebn0_db / 10.0))


def awgn_ber(ebn0_db: float) -> float:
    """Gray 16-QAM bit error probability at Eb/N0 in dB over AWGN."""
    a = _a(ebn0_db)
    return sum(w * qfunc(m * a) for w, m in QAM16_TERMS)


def _fade_q(c: float, mean: float) -> float:
    """E[Q(c sqrt(x))] for an exponential fade power x of the given mean."""
    return 0.5 * (1.0 - 1.0 / math.sqrt(1.0 + 2.0 / (c * c * mean)))


def _fade_qq(c1: float, c2: float, mean: float) -> float:
    """E[Q(c1 sqrt(x)) Q(c2 sqrt(x))] for an exponential fade power x.

    Write the product as P(U > c1 r, V > c2 r) for independent standard
    normals U, V and r = sqrt(x); in polar coordinates of (U, V) the radial
    integral is elementary and the angular one splits at tan(t) = c2 / c1
    into two integrals of 1 / (1 + k sin^2 t).
    """
    k1 = 2.0 / (c1 * c1 * mean)
    k2 = 2.0 / (c2 * c2 * mean)
    s1 = math.sqrt(1.0 + k1)
    s2 = math.sqrt(1.0 + k2)
    angular = math.atan(s1 * c1 / c2) / s1 + math.atan(s2 * c2 / c1) / s2
    return 0.25 - angular / (2.0 * math.pi)


def rayleigh_ber(ebn0_db: float, mean_power: float) -> float:
    """Mean 16-QAM bit error rate over a flat Rayleigh fade of this mean power."""
    a = _a(ebn0_db)
    return sum(w * _fade_q(m * a, mean_power) for w, m in QAM16_TERMS)


def rayleigh_ber_var(ebn0_db: float, mean_power: float) -> float:
    """Variance over the exponential fade of the per-frame bit error probability."""
    a = _a(ebn0_db)
    second = sum(
        wi * wj * _fade_qq(mi * a, mj * a, mean_power)
        for wi, mi in QAM16_TERMS
        for wj, mj in QAM16_TERMS
    )
    return second - rayleigh_ber(ebn0_db, mean_power) ** 2


def rayleigh_frame_sigma(
    ebn0_db: float, mean_power: float, frames: int, bits_per_frame: int
) -> float:
    """Standard deviation of the BER counted over ``frames`` block-faded frames.

    Each frame draws one fade and then counts its bits binomially, so the
    per-frame variance is the fade variance of the error probability plus
    the mean binomial variance E[p (1 - p)] / bits_per_frame.
    """
    mean = rayleigh_ber(ebn0_db, mean_power)
    var = rayleigh_ber_var(ebn0_db, mean_power)
    binomial = (mean - (var + mean * mean)) / bits_per_frame
    return math.sqrt((var + binomial) / frames)


def binomial_sigma(p: float, n: int) -> float:
    """Standard deviation of a proportion counted over n independent trials."""
    return math.sqrt(p * (1.0 - p) / n)


def diff_sigma(p: float, n1: int, n2: int) -> float:
    """Standard deviation of the difference of two independent proportions
    that share the probability p, counted over n1 and n2 trials."""
    return math.sqrt(p * (1.0 - p) * (1.0 / n1 + 1.0 / n2))

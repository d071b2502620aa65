"""Tests of the benchmark's own reference computations; none imports wavemod.

Run with: python3 -m pytest perfbench
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import tracing
import workloads

_erfc = np.vectorize(math.erfc)


def _q(x):
    return 0.5 * _erfc(np.asarray(x) / math.sqrt(2.0))


def _ber_given_fade(x, ebn0_db):
    """AWGN 16-QAM BER at fade power x, from the Q-series (vectorized)."""
    a = math.sqrt(0.8 * 10 ** (ebn0_db / 10))
    return sum(w * _q(m * a * np.sqrt(x)) for w, m in ref.QAM16_TERMS)


def _exp_average(f, mean):
    """E[f(x)] for x ~ Exp(mean), by the trapezoid rule on u = 1 - exp(-x/mean)."""
    u = np.linspace(0.0, 1.0, 400_001)[:-1]
    x = -mean * np.log1p(-u)
    return np.trapezoid(f(x), u)


@pytest.mark.parametrize("ebn0_db", [0.0, 4.0, 8.0, 12.0])
def test_awgn_ber_matches_integrated_gray_decisions(ebn0_db):
    # One axis of Gray 16-QAM: levels 3s, s, -s, -3s carry labels 00, 01, 11, 10.
    s = 1.0 / math.sqrt(10.0)  # unit average symbol energy
    levels = np.array([3.0, 1.0, -1.0, -3.0]) * s
    labels = np.array([0b00, 0b01, 0b11, 0b10])
    sigma = math.sqrt(1.0 / (8.0 * 10 ** (ebn0_db / 10)))  # Eb = 1/4, per-axis N0/2
    # Nearest-level decision regions of the received value.
    edges = [np.inf, 2 * s, 0.0, -2 * s, -np.inf]
    ber = 0.0
    for level, label in zip(levels, labels):
        for j, decided in enumerate(labels):
            lo = max(edges[j + 1] - level, -16 * sigma)
            hi = min(edges[j] - level, 16 * sigma)
            if lo >= hi:
                continue
            n = np.linspace(lo, hi, 20_001)
            pdf = np.exp(-0.5 * (n / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
            ber += np.trapezoid(pdf, n) * bin(decided ^ label).count("1") / 2.0 / 4.0
    assert ref.awgn_ber(ebn0_db) == pytest.approx(ber, rel=1e-6)


@pytest.mark.parametrize("ebn0_db,mean", [(8.0, 0.5), (4.0, 1.0), (12.0, 0.5)])
def test_rayleigh_mean_matches_integration(ebn0_db, mean):
    want = _exp_average(lambda x: _ber_given_fade(x, ebn0_db), mean)
    assert ref.rayleigh_ber(ebn0_db, mean) == pytest.approx(want, rel=1e-5)


@pytest.mark.parametrize("ebn0_db,mean", [(8.0, 0.5), (4.0, 1.0), (12.0, 0.5)])
def test_rayleigh_variance_matches_integration(ebn0_db, mean):
    second = _exp_average(lambda x: _ber_given_fade(x, ebn0_db) ** 2, mean)
    want = second - ref.rayleigh_ber(ebn0_db, mean) ** 2
    assert ref.rayleigh_ber_var(ebn0_db, mean) == pytest.approx(want, rel=1e-4)


@pytest.mark.parametrize("c1,c2", [(1.0, 3.0), (2.5, 0.7), (1.3, 1.3)])
def test_fade_product_matches_integration(c1, c2):
    want = _exp_average(lambda x: _q(c1 * np.sqrt(x)) * _q(c2 * np.sqrt(x)), 0.8)
    assert ref._fade_qq(c1, c2, 0.8) == pytest.approx(want, rel=1e-5)


def test_frame_sigma_matches_monte_carlo():
    ebn0_db, mean, frames, bits = 8.0, 0.5, 50, 2048
    rng = np.random.default_rng(1)
    trials = 4000
    fades = rng.exponential(mean, size=(trials, frames))
    errors = rng.binomial(bits, _ber_given_fade(fades, ebn0_db))
    ber = errors.sum(axis=1) / (frames * bits)
    assert ber.mean() == pytest.approx(ref.rayleigh_ber(ebn0_db, mean), rel=0.01)
    assert ber.std() == pytest.approx(ref.rayleigh_frame_sigma(ebn0_db, mean, frames, bits), rel=0.05)


@pytest.mark.parametrize("p,n", [(0.2, 4096), (0.0047, 4096), (0.009, 262_144)])
def test_binomial_bounds_match_monte_carlo(p, n):
    rng = np.random.default_rng(2)
    a = rng.binomial(n, p, size=20_000) / n
    b = rng.binomial(2 * n, p, size=20_000) / (2 * n)
    assert a.std() == pytest.approx(ref.binomial_sigma(p, n), rel=0.03)
    assert (a - b).std() == pytest.approx(ref.diff_sigma(p, n, 2 * n), rel=0.03)


def test_self_times_add_up_to_root_wall():
    spans = [
        ["other_s", 0.0, 10.0, -1],
        ["tx_s.fbmc", 1.0, 4.0, 0],
        ["draw_s", 4.0, 6.0, 0],
        ["draw_s", 4.5, 5.0, 2],
        ["other_s", 20.0, 21.0, -1],
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {"other_s": 6.0, "tx_s.fbmc": 3.0, "draw_s": 2.0}
    assert sum(selfs.values()) == tracing.root_wall(spans) == 11.0


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_metrics()

"""The FFT modem core against the dense-matrix oracles, on property-based inputs."""

from functools import partial

import numpy as np
import oracle
from conftest import TOL
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavemod import (
    build_fbmc_matrices,
    build_gfdm_matrix,
    build_linear_matrices,
    build_oqam_matrices,
    build_receiver,
    gfdm_demodulate,
    gfdm_modulate,
    oqam_demodulate,
    oqam_modulate,
    phydyas,
    rectangular,
)

FRAMES = 3

_shapes = dict(
    k=st.integers(1, 32).map(lambda h: 2 * h),
    m=st.integers(1, 8),
    overlap=st.integers(1, 4),
    rect=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


def _prototype(k, overlap, rect):
    return rectangular(k) if rect else phydyas(k, overlap)


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _close(got, want):
    """Max difference, relative to the larger of 1 and the oracle's largest output."""
    return np.abs(got - want).max() / max(1.0, np.abs(want).max())


def _dense_oqam(kind, p, k, m):
    if kind == "circular":
        return oracle.build_oqam_matrices(p, k, m)
    a_i, a_q = oracle.build_linear_matrices(p, k, m)
    if kind == "cut":
        n = oracle.burst_length(p, k, m)
        return a_i[:n], a_q[:n]
    return a_i, a_q


_BUILDERS = {
    "circular": build_oqam_matrices,
    "linear": build_linear_matrices,
    "cut": build_fbmc_matrices,
}


# The edges of the (K/2 - n) mirror, run on every pass for every builder:
# K = 2 (the mirror is a swap), K = 6 (K/2 odd), one subsymbol, the rect
# prototype.
_MIRROR_EDGES = (
    dict(k=2, m=3, overlap=2, rect=False),
    dict(k=6, m=2, overlap=4, rect=False),
    dict(k=16, m=1, overlap=4, rect=False),
    dict(k=10, m=3, overlap=1, rect=True),
    dict(k=2, m=1, overlap=1, rect=True),
)


def _pin_mirror_edges(test):
    for kind in sorted(_BUILDERS):
        for seed, shape in enumerate(_MIRROR_EDGES):
            test = example(kind=kind, seed=seed, **shape)(test)
    return test


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(_BUILDERS)), **_shapes)
@_pin_mirror_edges
def test_oqam_core_matches_dense_pair(kind, k, m, overlap, rect, seed):
    p = _prototype(k, overlap, rect)
    mats = _BUILDERS[kind](p, k, m)
    a_i, a_q = _dense_oqam(kind, p, k, m)
    assert a_i.shape == (mats.frame_len, k * m)
    rng = np.random.default_rng(seed)

    d = _complex(rng, FRAMES, k * m)
    want = d.real @ a_i.T + 1j * (d.imag @ a_q.T)
    assert _close(oqam_modulate(mats, d), want) <= TOL
    assert _close(oqam_modulate(mats, d[0]), want[0]) <= TOL

    y = _complex(rng, FRAMES, mats.frame_len)
    gain_i = np.sum(np.abs(a_i) ** 2, axis=0)
    gain_q = np.sum(np.abs(a_q) ** 2, axis=0)
    want = (y @ a_i.conj()).real / gain_i + 1j * (y @ a_q.conj()).imag / gain_q
    assert _close(oqam_demodulate(mats, y), want) <= TOL


@settings(max_examples=40, deadline=None)
@given(
    modem=st.sampled_from(("gfdm_modulate", "gfdm_demodulate", "oqam_modulate", "oqam_demodulate")),
    kind=st.sampled_from(sorted(_BUILDERS)),
    frames=st.sampled_from((1, 3, 70)),
    **_shapes,
)
def test_frames_call_matches_row_calls(modem, kind, frames, k, m, overlap, rect, seed):
    # Every modem takes (frames, n) rows and returns one output row per
    # frame, the row a 1-D call returns; 70 frames span two transform blocks.
    p = _prototype(k, overlap, rect)
    if modem == "gfdm_modulate":
        call, n = partial(gfdm_modulate, build_gfdm_matrix(p, k, m)), k * m
    elif modem == "gfdm_demodulate":
        call, n = partial(gfdm_demodulate, build_receiver(build_gfdm_matrix(p, k, m), "mf")), k * m
    else:
        mats = _BUILDERS[kind](p, k, m)
        modulate = modem == "oqam_modulate"
        call = partial(oqam_modulate if modulate else oqam_demodulate, mats)
        n = mats.n_symbols if modulate else mats.frame_len
    rows = _complex(np.random.default_rng(seed), frames, n)
    got, want = call(rows), np.array([call(row) for row in rows])
    assert got.shape == want.shape and _close(got, want) <= TOL


@settings(max_examples=30, deadline=None)
@given(**_shapes)
def test_linear_tail_is_exactly_zero(k, m, overlap, rect, seed):
    # Neither branch has a tap at or past support_len, so the fused band's
    # rows there are exact zeros and so are the samples.
    mats = build_linear_matrices(_prototype(k, overlap, rect), k, m)
    d = _complex(np.random.default_rng(seed), FRAMES, k * m)
    x = oqam_modulate(mats, d)
    assert x.shape == (FRAMES, mats.frame_len) and mats.frame_len > mats.support_len
    assert not x[:, mats.support_len:].any()


@settings(max_examples=30, deadline=None)
@given(noise_var=st.floats(1e-3, 1.0), **_shapes)
def test_plain_gfdm_core_matches_dense_matrix(noise_var, k, m, overlap, rect, seed):
    p = _prototype(k, overlap, rect)
    mats = build_gfdm_matrix(p, k, m)
    a = oracle.build_gfdm_matrix(p, k, m)
    rng = np.random.default_rng(seed)

    d = _complex(rng, FRAMES, k * m)
    assert _close(gfdm_modulate(mats, d), d @ a.T) <= TOL

    y = _complex(rng, FRAMES, k * m)
    for kind in ("mf", "mmse"):
        rx = build_receiver(mats, kind, noise_var=noise_var)
        assert _close(gfdm_demodulate(rx, y), y @ oracle.build_receiver(a, kind, noise_var).T) <= TOL
    # ZF exists exactly where the matrix is invertible; there it inverts the
    # dense matrix, which the core's own ZF check reports as singular otherwise.
    try:
        zf = build_receiver(mats, "zf")
    except np.linalg.LinAlgError:
        assert np.linalg.cond(a) > 1e12
    else:
        assert _close(gfdm_demodulate(zf, a.T), np.eye(k * m)) <= TOL

"""Seed-0 outputs against the committed ``golden_seed0.json`` (written by ``golden.py``).

Counts must match exactly.  PSD values match to 1e-9 dB wherever either side
is above -60 dB: FFT rounding may differ between numpy builds far below the
plateau.
"""

import json

import golden
import numpy as np
import pytest

_PSD_FLOOR_DB = -60.0
_PSD_TOL_DB = 1e-9


@pytest.fixture(scope="module")
def pair():
    return json.loads(golden.PATH.read_text()), golden.sweep()


def test_rng_scheme_and_settings(pair):
    want, got = pair
    assert got["rng_scheme"] == want["rng_scheme"]
    assert got["settings"] == want["settings"]


@pytest.mark.parametrize("section", ["ber", "ber_tifs_by_order", "papr"])
def test_counts_exact(pair, section):
    want, got = pair
    assert got[section] == want[section]


def test_psd_values(pair):
    want, got = pair
    assert got["psd"].keys() == want["psd"].keys()
    for waveform, ref in want["psd"].items():
        ref_db, new_db = np.array(ref), np.array(got["psd"][waveform])
        assert new_db.shape == ref_db.shape, waveform
        shown = (ref_db > _PSD_FLOOR_DB) | (new_db > _PSD_FLOOR_DB)
        worst = np.max(np.abs(new_db - ref_db)[shown])
        assert worst <= _PSD_TOL_DB, (waveform, worst)

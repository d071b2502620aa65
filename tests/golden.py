"""Seed-0 characterization sweep behind ``golden_seed0.json``.

``sweep()`` runs, for each of the five waveforms at default parameters:
BER error and bit counts on every channel at 4, 8 and 12 dB (16-QAM, and
4- and 64-QAM on TIFS), PAPR exceedance counts and the Welch PSD.
``test_golden.py`` compares a fresh sweep with the committed file.  Write the
file only when outputs change on purpose, and say so in CHANGES.md:

    PYTHONPATH=src python tests/golden.py
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from wavemod.sim import CHANNELS, RNG_SCHEME, WAVEFORMS, ScenarioConfig, run_ber, run_papr, run_psd

PATH = Path(__file__).with_name("golden_seed0.json")
SETTINGS = {
    "seed": 0,
    "ebn0_grid_db": [4.0, 8.0, 12.0],
    "ber_frames": 128,
    "papr_frames": 512,
    "psd_frames": 300,
}


def _ber(waveform: str, channel: str, order: int) -> dict:
    config = ScenarioConfig(
        waveform=waveform,
        channel=channel,
        ebn0_grid_db=tuple(SETTINGS["ebn0_grid_db"]),
        frames=SETTINGS["ber_frames"],
        seed=SETTINGS["seed"],
        error_target=None,
    )
    config = replace(config, waveform_params=replace(config.waveform_params, qam_order=order))
    curve = run_ber(config)
    return {
        "errors": [int(e) for e in curve.extra["errors"]],
        "bits": [int(b) for b in curve.extra["bits"]],
    }


def sweep() -> dict:
    seed = SETTINGS["seed"]
    out = {"rng_scheme": RNG_SCHEME, "settings": SETTINGS}
    out["ber"] = {w: {c: _ber(w, c, 16) for c in CHANNELS} for w in WAVEFORMS}
    out["ber_tifs_by_order"] = {
        str(order): {w: _ber(w, "tifs", order) for w in WAVEFORMS} for order in (4, 64)
    }
    out["papr"] = {}
    for w in WAVEFORMS:
        frames = SETTINGS["papr_frames"]
        curve = run_papr(ScenarioConfig(waveform=w, metric="papr", frames=frames, seed=seed))
        exceed = np.rint(curve.values * frames).astype(int)
        out["papr"][w] = {"thresholds_db": curve.abscissa.tolist(), "exceed": exceed.tolist()}
    out["psd"] = {}
    for w in WAVEFORMS:
        frames = SETTINGS["psd_frames"]
        curve = run_psd(ScenarioConfig(waveform=w, metric="psd", frames=frames, seed=seed))
        out["psd"][w] = curve.values.tolist()
    return out


def _dump(obj, indent: str = "") -> str:
    """JSON with one line per leaf list, so a changed count shows as a short diff."""
    if not isinstance(obj, dict):
        return json.dumps(obj)
    inner = indent + " "
    items = [f"{inner}{json.dumps(k)}: {_dump(v, inner)}" for k, v in obj.items()]
    return "{\n" + ",\n".join(items) + "\n" + indent + "}"


if __name__ == "__main__":
    PATH.write_text(_dump(sweep()) + "\n")
    print(f"wrote {PATH}")

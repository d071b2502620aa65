"""Whether two checkouts give the same BER counts, PAPR CCDFs, PSD values and CLI files.

Runs one grid of scenarios from each tree's ``src/wavemod``, in a fresh
interpreter per tree, and compares every output exactly: BER error and bit
counts and the ``theory`` column, PAPR CCDF values and PSD values bit for
bit.  The grid is wider than
the seed-0 golden file: seeds 0 to 3; the five waveforms; default K = 128,
M = 4, and M = 1, K = 96 / M = 3 and K = 64 / M = 2 / overlap 3; a sub-band
allocation; 4- and 64-QAM; every channel at 4, 8 and 12 dB; the corrected
TVFS gains; the plain GFDM MF and MMSE receivers; no cyclic prefix on the
circular waveforms; frame counts that end on a short chunk.  On seeds 0 and
1 it also runs K = 256 / M = 8, whose K*M = 2,048 past 512 takes 16-frame
chunks, with frame counts of its own that span three chunks.  Then one BER,
two PAPR and one PSD run go through ``wavemod.cli.main`` with ``--out`` and
``--emit-plot-data``, and the two files' bytes are compared; one of them
gives no ``--channel``, ``--frames`` or ``--seed``, so it runs on the
defaults.  It prints how
many outputs each tree gave and how many differ, with the first
configuration, in grid order, whose outputs differ, or that none does.

    python3 tools/same_outputs.py TREE_A TREE_B

Every run pins one BLAS/OpenMP thread and one wavemod worker.  Exit status
0 means identical outputs, 1 a difference.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "WAVEMOD_THREADS": "1",
}
WAVEFORMS = ("ofdm", "gfdm", "gfdm_oqam_circular", "linear_gfdm", "fbmc")
CIRCULAR = ("ofdm", "gfdm", "gfdm_oqam_circular")  # the waveforms that send a cyclic prefix
CHANNELS = ("awgn", "tifs", "tvfs")
SEEDS = (0, 1, 2, 3)
# Parameter sets by name; OFDM takes n_fft = K*M and M = 1 in their place.
PARAMS = {
    "default": {},
    "M=1": {"subsymbols": 1},
    "K=96,M=3": {"subcarriers": 96, "subsymbols": 3},
    "K=64,M=2,overlap=3": {"subcarriers": 64, "subsymbols": 2, "overlap": 3},
    "sub-band": {"active": tuple(range(5, 40)) + tuple(range(70, 90))},
}
BER_FRAMES = 100  # a 64-frame chunk and a 36-frame one
PAPR_FRAMES = 300  # a 256-frame chunk and a 44-frame one
PSD_FRAMES = (70, 200)
# A grid past K*M = 512, where a chunk is 16 frames (64 for PAPR), on the
# first seeds only: BER and PSD run 16 + 16 + 8 frames, PAPR 64 + 64 + 22.
LARGE = {"subcarriers": 256, "subsymbols": 8}
LARGE_SEEDS = (0, 1)
LARGE_BER_FRAMES, LARGE_PAPR_FRAMES, LARGE_PSD_FRAMES = 40, 150, (40,)
# CLI runs whose --out and --emit-plot-data files are compared byte for byte.
CLI_RUNS = (
    "ber --waveform linear_gfdm --channel tvfs --ebn0 4 8 --frames 100",
    "papr --waveform gfdm --frames 300",
    "psd --waveform fbmc --frames 200",
    "papr --waveform gfdm_oqam_circular",  # default channel, frames and seed
)


def _params(sim, waveform: str, name: str, **extra):
    p = {**PARAMS[name], **extra}
    if waveform == "ofdm":
        k, m = p.pop("subcarriers", 128), p.pop("subsymbols", 4)
        p["n_fft"] = k * m
        if "active" in p:
            p["active"] = tuple(4 * b for b in p["active"])
    return sim.WaveformParams(**p)


def grid(sim):
    """Yield (label, config) over the grid, in comparison order."""
    for seed in SEEDS:

        def ber(waveform, channel, wp, frames=BER_FRAMES, **extra):
            return sim.ScenarioConfig(
                waveform=waveform, channel=channel, metric="ber", ebn0_grid_db=(4.0, 8.0, 12.0),
                frames=frames, seed=seed, error_target=None, waveform_params=wp, **extra,
            )

        def papr_psd(waveform, label, wp, papr_frames=PAPR_FRAMES, psd_frames=PSD_FRAMES):
            yield f"papr {waveform} {label} seed={seed}", sim.ScenarioConfig(
                waveform=waveform, metric="papr", frames=papr_frames, seed=seed, waveform_params=wp
            )
            for frames in psd_frames:
                yield f"psd {waveform} {label} {frames} frames seed={seed}", sim.ScenarioConfig(
                    waveform=waveform, metric="psd", frames=frames, seed=seed, waveform_params=wp
                )

        for waveform in WAVEFORMS:
            for name in PARAMS:
                wp = _params(sim, waveform, name)
                for channel in CHANNELS:
                    yield f"ber {waveform} {name} {channel} seed={seed}", ber(waveform, channel, wp)
                yield from papr_psd(waveform, name, wp)
            for order in (4, 64):
                wp = _params(sim, waveform, "default", qam_order=order)
                yield f"ber {waveform} {order}-QAM tifs seed={seed}", ber(waveform, "tifs", wp)
            wp = _params(sim, waveform, "default")
            corrected = ber(waveform, "tvfs", wp, tvfs_corrected=True)
            yield f"ber {waveform} corrected tvfs seed={seed}", corrected
            if waveform == "gfdm":
                for receiver in ("mf", "mmse"):
                    wp = _params(sim, waveform, "default", receiver=receiver)
                    yield f"ber {waveform} {receiver} awgn seed={seed}", ber(waveform, "awgn", wp)
            if waveform in CIRCULAR:
                wp = _params(sim, waveform, "default", cp_len=0)
                yield f"ber {waveform} cp_len=0 awgn seed={seed}", ber(waveform, "awgn", wp)
                yield from papr_psd(waveform, "cp_len=0", wp)
            if seed in LARGE_SEEDS:
                wp = _params(sim, waveform, "default", **LARGE)
                for channel in CHANNELS:
                    config = ber(waveform, channel, wp, frames=LARGE_BER_FRAMES)
                    yield f"ber {waveform} K=256,M=8 {channel} seed={seed}", config
                yield from papr_psd(waveform, "K=256,M=8", wp, LARGE_PAPR_FRAMES, LARGE_PSD_FRAMES)


def cli_files(cli, argv) -> list:
    """Exit code and the hex bytes of the --out and --emit-plot-data files of one CLI run."""
    with tempfile.TemporaryDirectory() as tmp:
        out, plot = Path(tmp, "out.csv"), Path(tmp, "plot.dat")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", str(out), "--emit-plot-data", str(plot)])
        return [code] + [path.read_bytes().hex() if path.exists() else None for path in (out, plot)]


def outputs(tree: Path) -> dict:
    """Every grid output of ``tree``, floats as hex strings so equality is bitwise."""
    sys.path.insert(0, str(tree / "src"))
    from wavemod import cli, sim

    out = {}
    for label, config in grid(sim):
        curve = sim.run_scenario(config)
        if config.metric == "ber":
            out[label] = [[int(e) for e in curve.extra["errors"]], [int(b) for b in curve.extra["bits"]],
                          [float(t).hex() for t in curve.extra["theory"]]]
        else:
            out[label] = [float(v).hex() for v in curve.values]
    for argv in CLI_RUNS:
        out["cli " + argv] = cli_files(cli, argv.split())
    return out


def run_tree(tree: Path) -> dict:
    cmd = [sys.executable, __file__, "--worker", str(tree)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env={**os.environ, **THREAD_ENV})
    if proc.returncode != 0:
        raise SystemExit(f"run from {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="*", type=Path, help="tree A and tree B")
    ap.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker is not None:
        print(json.dumps(outputs(args.worker.resolve())))
        return 0
    if len(args.trees) != 2:
        ap.error("give two trees: A and B")
    a, b = (run_tree(t.resolve()) for t in args.trees)
    kinds = {kind: sum(label.startswith(kind + " ") for label in a) for kind in ("ber", "papr", "psd", "cli")}
    print(f"A {args.trees[0]}: {len(a)} configurations; B {args.trees[1]}: {len(b)}")
    print("grid: " + ", ".join(f"{n} {kind}" for kind, n in kinds.items()))
    differ = [label for label in a if a[label] != b.get(label)]
    if differ:
        first = differ[0]
        print(f"{len(differ)} of {len(a)} configurations differ; first difference: {first}")
        print(f"  A {str(a[first])[:200]}\n  B {str(b.get(first))[:200]}")
        return 1
    if a.keys() != b.keys():
        print(f"B runs configurations A does not: {sorted(b.keys() - a.keys())[:3]}")
        return 1
    print("identical: every BER count and theory value, PAPR CCDF and PSD value, and the CLI files' bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())

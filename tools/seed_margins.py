"""Acceptance tests 2 and 7 over many seeds, for one checkout.

Imports ``TREE/src/wavemod`` and, at each seed, runs the BER scenarios of
``tests/test_acceptance.py``:

- test 2: ofdm, fbmc and linear_gfdm on AWGN at 4, 8 and 12 dB, 489 frames
  each; its margin is the worst |BER - closed form| / sigma (it passes at 3);
- test 7: the same three waveforms at TIFS 4 and 8 dB and TVFS 8 and 12 dB;
  each point's margin is the largest pairwise BER difference over its 3-sigma
  bound (it passes at 1), printed with the Linear GFDM minus FBMC error count.

One line per seed, then the median and maximum of every column, so two
RNG schemes or two trees can be compared seed by seed.

    python3 tools/seed_margins.py TREE [--seeds 1 20]
"""

import argparse
import statistics
import sys
from pathlib import Path

# The acceptance suite's BER setup (tests/test_api.py checks that they agree),
# kept here because the tool imports another tree's wavemod.
FRAMES = 489  # 489 * 2048 bits > 1e6 bits per point
WAVEFORMS = ("ofdm", "fbmc", "linear_gfdm")
TEST2_GRID = (4.0, 8.0, 12.0)
TEST7_POINTS = {"tifs": (4.0, 8.0), "tvfs": (8.0, 12.0)}


def _curves(sim, channel, grid, seed):
    return {
        wf: sim.run_ber(
            sim.ScenarioConfig(
                waveform=wf, channel=channel, metric="ber", ebn0_grid_db=grid,
                frames=FRAMES, seed=seed, error_target=None,
            )
        )
        for wf in WAVEFORMS
    }


def test2_worst_z(sim, seed: int) -> float:
    worst = 0.0
    for curve in _curves(sim, "awgn", TEST2_GRID, seed).values():
        for ber, p, bits in zip(curve.values, curve.extra["theory"], curve.extra["bits"]):
            worst = max(worst, abs(ber - p) / (p * (1 - p) / bits) ** 0.5)
    return worst


def test7_margin(sim, channel: str, ebn0: float, seed: int) -> tuple[float, int]:
    """(max pairwise BER difference over 3 sigma, linear_gfdm minus fbmc errors) at one point."""
    curves = _curves(sim, channel, (ebn0,), seed)
    bers = [curves[wf].values[0] for wf in WAVEFORMS]
    pbar = sum(bers) / len(bers)
    joint = 3.0 * (2.0 * pbar * (1.0 - pbar) / (FRAMES * 2048)) ** 0.5
    lin_minus_fbmc = int(curves["linear_gfdm"].extra["errors"][0] - curves["fbmc"].extra["errors"][0])
    return (max(bers) - min(bers)) / joint, lin_minus_fbmc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree", type=Path, help="checkout whose src/wavemod is run")
    ap.add_argument("--seeds", type=int, nargs=2, default=(1, 20), metavar=("FIRST", "LAST"))
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    from wavemod import sim

    points = [(channel, ebn0) for channel, grid in TEST7_POINTS.items() for ebn0 in grid]
    names = ["t2 worst z"] + [f"t7 {c} {e:g}dB" for c, e in points]
    print(f"{args.tree} rng={sim.RNG_SCHEME}; test 7 columns: diff/3sigma (linear-fbmc errors)")
    print("seed  " + "  ".join(f"{n:>16}" for n in names))
    columns = [[] for _ in names]
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        columns[0].append(test2_worst_z(sim, seed))
        cells = [f"{columns[0][-1]:16.2f}"]
        for i, (channel, ebn0) in enumerate(points, 1):
            margin, diff = test7_margin(sim, channel, ebn0, seed)
            columns[i].append(margin)
            cells.append(f"{margin:9.2f} ({diff:+4d})")
        print(f"{seed:4d}  " + "  ".join(cells), flush=True)
    for label, stat in (("median", statistics.median), ("max", max)):
        print(f"{label:>6}" + "".join(f"  {stat(col):16.2f}" for col in columns))
    failed = sum(z > 3.0 for z in columns[0]) + sum(m > 1.0 for col in columns[1:] for m in col)
    print(f"verdicts failed: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Alternating A/B rounds of one perfbench workload for two checkouts.

Each run is a fresh interpreter that imports one checkout's ``src/wavemod``
and ``perfbench/workloads.py``, runs the workload's scenarios once to warm
up, then ``--rounds`` times, and reports the frames per second of its best
round.  Runs alternate between the two trees, A first in even pairs and B
first in odd ones, so drift on a shared machine falls on both.  The summary
gives each tree's median and quartiles over the pairs and the number of
pairs B won, then checks B against the rule a claimed gain must meet: B wins
at least 9 of every 10 pairs, a tie counting for neither tree, and B's
median lies above A's by more than A's quartile spread.

    python3 tools/ab_rounds.py PARENT_TREE CHANGED_TREE --workload papr_psd --pairs 10

Every run pins one BLAS/OpenMP thread and one wavemod worker, as
``perfbench/run.py`` does.  Nothing under ``perfbench/`` is written.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "WAVEMOD_THREADS": "1",
}


def measure(tree: Path, workload: str, rounds: int, seed: int) -> float:
    """Best-round frames per second of ``workload`` run from ``tree`` (this interpreter)."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads  # noqa: E402  (the tree's own, after the path is set)
    from wavemod import sim

    work = workloads.WORKLOADS[workload]
    configs = [(getattr(sim, f"run_{s.run}"), s.config(sim, seed)) for s in work.scenarios]
    best = float("inf")
    for r in range(rounds + 1):
        t0 = time.perf_counter()
        for run, config in configs:
            run(config)
        if r:  # round 0 warms the caches and work areas
            best = min(best, time.perf_counter() - t0)
    return work.frames_per_round / best


def run_tree(tree: Path, args) -> float:
    cmd = [
        sys.executable, __file__, "--worker", str(tree), "--workload", args.workload,
        "--rounds", str(args.rounds), "--seed", str(args.seed),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, env={**os.environ, **THREAD_ENV})
    if proc.returncode != 0:
        raise SystemExit(f"run from {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["frames_per_s"]


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile of ``values``."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def summary(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"median {med:,.0f}  quartiles {q1:,.0f} .. {q3:,.0f}"


def claim_rule(a: list[float], b: list[float]) -> str:
    """Whether B's gain over A meets the rule a claimed gain must: one line."""
    wins = sum(y > x for x, y in zip(a, b))  # a tie counts for neither tree
    q1, med_a, q3 = quartiles(a)
    gap = statistics.median(b) - med_a
    return (
        f"claim rule: B won {wins}/{len(a)} pairs, at least 9/10: "
        f"{'yes' if 10 * wins >= 9 * len(a) else 'no'}; median gap {gap:+,.0f} "
        f"above A's quartile spread {q3 - q1:,.0f}: {'yes' if gap > q3 - q1 else 'no'}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="*", type=Path, help="tree A (baseline) and tree B")
    ap.add_argument("--workload", default="papr_psd")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--rounds", type=int, default=5, help="timed rounds per run")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker is not None:
        print(json.dumps({"frames_per_s": measure(args.worker, args.workload, args.rounds, args.seed)}))
        return 0
    if len(args.trees) != 2:
        ap.error("give two trees: A (baseline) and B")
    trees = [t.resolve() for t in args.trees]
    results = {0: [], 1: []}
    for i in range(args.pairs):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            results[side].append(run_tree(trees[side], args))
        a, b = results[0][-1], results[1][-1]
        print(f"pair {i + 1}: A {a:,.0f}  B {b:,.0f}  B/A {b / a:.3f}", flush=True)
    wins = sum(b > a for a, b in zip(results[0], results[1]))
    print(f"A {trees[0]}: {summary(results[0])} frames/s")
    print(f"B {trees[1]}: {summary(results[1])} frames/s")
    ratio = statistics.median(results[1]) / statistics.median(results[0])
    print(f"B won {wins}/{args.pairs} pairs; median B/A {ratio:.3f}")
    print(claim_rule(results[0], results[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

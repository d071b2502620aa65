"""Alternating A/B runs of the benchmark for two checkouts, judged as the benchmark judges them.

Each run is the tree's own ``perfbench/run.py --workload W --seed S --seconds T``
(``BENCHMARK.json``'s command, started in the tree), read from its last two
stdout lines, ``{"info": ...}`` and the result; one that exits non-zero or
reports ``correct: false`` or ``failed > 0`` stops the tool.  A runs first in
even pairs and B in odd ones, so drift on a shared machine falls on both.  Each
pair prints B/A per metric and both runs' rounds, since ``run.py`` keeps every
round's outputs and ``peak_rss_mb`` grows with the rounds a faster tree fits.
Each workload and end-to-end metric then gets both trees' medians and quartiles,
``claim_rule`` (lower-is-better values negated) and ``bound_verdict``.  The last
stdout line is one JSON object: every run's metrics and rounds by tree and
workload, the seed, seconds and pairs, and the first run's ``info``.  ``run.py``
writes ``perfbench/results/`` in its tree, so compare copies, not a work tree:

    python3 tools/ab_rounds.py PARENT_TREE CHANGED_TREE --workload papr_psd --pairs 10
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def benchmark() -> dict:
    """``BENCHMARK.json``: the run command, workloads, end-to-end metrics and run length."""
    return json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def run_tree(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run from ``tree``: its ``info``, and its metric values with ``rounds``."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run([*command, *args], cwd=tree, capture_output=True, text=True)
    where = f"{workload} run from {tree}"
    if proc.returncode != 0:
        raise SystemExit(f"{where} exited {proc.returncode}:\n{proc.stderr}")
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    info, result = json.loads(info_line)["info"], json.loads(result_line)
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{where}: correct {result['correct']}, failed {result['failed']}:\n{proc.stderr}")
    return info, {name: m["value"] for name, m in result["metrics"].items()} | {"rounds": info["rounds"]}


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile of ``values``."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def summary(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"median {med:.6g}, quartiles {q1:.6g} .. {q3:.6g} (spread {(q3 - q1) / med:.1%})"


def claim_rule(a: list[float], b: list[float]) -> str:
    """One line: does B's gain over A meet the claim rule?  B wins at least 9 of every 10
    pairs, a tie counting for neither tree, and its median tops A's by more than A's quartile spread."""
    wins = sum(y > x for x, y in zip(a, b))
    q1, med_a, q3 = quartiles(a)
    gap, spread = (statistics.median(b) - med_a) / abs(med_a), (q3 - q1) / abs(med_a)
    return (
        f"claim rule: B won {wins}/{len(a)} pairs, at least 9/10: "
        f"{'yes' if 10 * wins >= 9 * len(a) else 'no'}; median gap {gap:+.1%} "
        f"above A's quartile spread {spread:.1%}: {'yes' if gap > spread else 'no'}"
    )


def bound_verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """One line: B's median change from A's, ``within`` or ``worse`` than ``bound``, or
    ``unresolved`` when A's quartile spread exceeds it, unless every B run beats every A run."""
    sign = 1 if better == "higher" else -1
    q1, med_a, q3 = quartiles(a)
    change = statistics.median(b) / med_a - 1
    if (q3 - q1) / med_a > bound and min(sign * y for y in b) <= max(sign * x for x in a):
        verdict = "unresolved"
    else:
        verdict = "worse" if sign * change < -bound else "within"
    return f"bound: {change:+.1%} against {-sign * bound:+.0%}: {verdict}"


def main(argv=None) -> int:
    bench = benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs=2, type=Path, help="tree A (baseline) and tree B")
    ap.add_argument("--workload", action="append", choices=names, help="repeatable; default: every workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    trees = dict(zip("AB", (t.resolve() for t in args.trees)))
    runs, info = {"A": {}, "B": {}}, None
    for w in args.workload or names:
        for i in range(args.pairs):
            for side in "AB" if i % 2 == 0 else "BA":
                run_info, values = run_tree(trees[side], bench["command"], w, args.seed, args.seconds)
                info = info or run_info
                runs[side].setdefault(w, []).append(values)
            a, b = runs["A"][w][-1], runs["B"][w][-1]
            ratios = "  ".join(f"{m['name']} B/A {b[m['name']] / a[m['name']]:.3f}" for m in bench["end_to_end"])
            print(f"{w} pair {i + 1}: {ratios}  rounds A {a['rounds']} B {b['rounds']}", flush=True)
        for m in bench["end_to_end"]:
            a, b = ([r[m["name"]] for r in runs[side][w]] for side in "AB")
            sign = 1 if m["better"] == "higher" else -1
            print(f"{w} {m['name']}: A {summary(a)}; B {summary(b)}")
            print(f"  {claim_rule([sign * x for x in a], [sign * y for y in b])}")
            print(f"  {bound_verdict(a, b, m['better'], m['bound'])}", flush=True)
    print(json.dumps({"seed": args.seed, "seconds": args.seconds, "pairs": args.pairs, "info": info, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

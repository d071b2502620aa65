"""Benchmark of wavemod's three Monte Carlo instruments: PAPR CCDF, Welch PSD, BER.

Runs one workload (see ``workloads.py``) through ``sim.run_papr``,
``sim.run_psd`` and ``sim.run_ber`` in whole rounds until ``--seconds`` have
passed, checks every round's outputs, and prints one JSON result as the last
line of standard output.

  --trace 0  end-to-end metrics: frames_per_s, setup_s, peak_rss_mb
  --trace 1  per-layer metrics from spans around the library's public calls,
             rounds alternating with untraced ones to measure the overhead

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
"""

import os

# One BLAS/OpenMP thread and one wavemod worker, set before numpy loads: on a
# small shared machine a multi-threaded run measures the scheduler.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "WAVEMOD_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
RESULTS_DIR = HERE / "results"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def probe_setup(workload, seed) -> float:
    """Set-up time of the workload, measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed)],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_round(workload, sim, seed, traced: bool) -> dict:
    """One call per scenario.

    Untraced rounds wrap only the set-up calls, whose time is taken out of
    the wall time to give the simulate time.
    """
    stages = tuple(tracing.STAGES) if traced else ("build_s",)
    tracer = tracing.Tracer(stages)
    out, failed, frames = {}, 0, 0
    with tracer:
        for s in workload.scenarios:
            config = s.config(sim, seed)
            try:
                out[s.label] = tracer.root(s.waveform, getattr(sim, f"run_{s.run}"), config)
            except Exception:  # a failing call is counted, and the run goes on
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            frames += s.frames_simulated
    wall = tracing.root_wall(tracer.spans)
    selfs = tracing.self_times(tracer.spans)
    build = sum(v for k, v in selfs.items() if k.startswith("build_s."))
    return {
        "traced": traced,
        "out": out,
        "failed": failed,
        "frames": frames,
        "wall_s": wall,
        "sim_s": wall - build,
        "self_s": selfs,
        "span_counts": tracing.call_counts(tracer.spans),
        "spans": tracer.spans,
        "absent": tracer.absent,
        "missing": tracer.missing,
    }


def frames_per_s(rounds) -> float:
    """Frames simulated per second of simulate time, over all the rounds.

    On a shared machine other tenants slow every core for seconds to
    minutes at a time; summing over the whole run averages over those
    spells, which measured steadier than the median or the fastest round.
    """
    return sum(r["frames"] for r in rounds) / sum(r["sim_s"] for r in rounds)


def build_memory(workload, sim, gfdm, seed) -> dict:
    """tracemalloc peak of each waveform's set-up calls, in MB."""
    peaks = {}
    for s in workload.scenarios:
        tracemalloc.start()
        try:
            workloads.build_setup(sim, gfdm, s, seed)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        peaks[s.waveform] = max(peaks.get(s.waveform, 0.0), peak)
    return peaks


def per_layer(workload, rounds, import_s, build_mb) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    n = len(traced)
    values = {"import_s": import_s}
    for r in traced:
        total = sum(r["self_s"].values())
        if abs(total - r["wall_s"]) > 1e-9 * max(1.0, r["wall_s"]):
            raise RuntimeError(f"stage self times sum to {total}, traced wall is {r['wall_s']}")
        for name, v in r["self_s"].items():
            values[name] = values.get(name, 0.0) + v / n
        for stage, count_name in tracing.COUNTED.items():
            calls = sum(c for k, c in r["span_counts"].items() if k.split(".")[0] == stage)
            values[count_name] = values.get(count_name, 0.0) + calls / n
    for wf, mb in build_mb.items():
        values[f"build_mb.{wf}"] = mb
    rx_frames = sum(s.frames_simulated for s in workload.scenarios if s.run == "ber")
    values["rx_calls_per_frame"] = values.get("rx_calls", 0.0) / rx_frames if rx_frames else 0.0
    values["traced_wall_s"] = sum(r["wall_s"] for r in traced) / n
    values["trace_overhead_pct"] = 100.0 * (frames_per_s(plain) / frames_per_s(traced) - 1.0)
    return values


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy = sys.modules.get("scipy")
    wavemod = sys.modules.get("wavemod")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": getattr(scipy, "__version__", None),
        "wavemod": getattr(wavemod, "__version__", None),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (workloads.SRC_DIR / "wavemod" / "__init__.py").is_file():
        print(f"run.py: no wavemod sources under {workloads.SRC_DIR}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    setup = [] if args.trace else [probe_setup(workload, args.seed) for _ in range(SETUP_REPEATS)]

    sys.path.insert(0, str(workloads.SRC_DIR))
    t0 = time.perf_counter()
    from wavemod import gfdm, sim

    import_s = time.perf_counter() - t0
    if sim.n_threads() != 1:
        print("run.py: wavemod does not run single-threaded", file=sys.stderr)
        return 2

    rounds = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(workload, sim, args.seed, traced))
        enough = len(rounds) >= 2 if args.trace else True
        if enough and time.perf_counter() - start >= args.seconds:
            break

    checks = []
    first = rounds[0]["out"]
    for i, r in enumerate(rounds):
        if r["failed"] == 0:
            checks += [(f"round {i}: {name}", ok, detail) for name, ok, detail in workloads.check(workload, r["out"])]
        for label, curve in r["out"].items():
            same = label in first and workloads.same_output(first[label], curve)
            checks.append((f"round {i}: {label} repeats round 0", same, ""))
    correct = all(ok for _, ok, _ in checks)
    attempted = len(rounds) * len(workload.scenarios)
    failed = sum(r["failed"] for r in rounds)

    if args.trace:
        values = per_layer(workload, rounds, import_s, build_memory(workload, sim, gfdm, args.seed))
        metrics = {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in tracing.per_layer_metrics()
        }
    else:
        values = {
            "frames_per_s": frames_per_s(rounds),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in workloads.END_TO_END}

    last = next((r for r in reversed(rounds) if r["traced"]), rounds[-1])
    info = environment(args)
    info.update(
        rounds=len(rounds),
        frames_per_round=workload.frames_per_round,
        round_wall_s=[r["wall_s"] for r in rounds],
        round_sim_s=[r["sim_s"] for r in rounds],
        setup_samples_s=setup,
        absent_stages=last["absent"],
        missing_functions=last["missing"],
        checks_passed=sum(bool(ok) for _, ok, _ in checks),
        checks_total=len(checks),
    )
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    checks_out = [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks]
    Path(f"{stem}.json").write_text(
        json.dumps({"info": info, "checks": checks_out, "result": result}, indent=1)
    )
    if args.trace:
        spans = [s + [i] for i, r in enumerate(rounds) if r["traced"] for s in r["spans"]]
        Path(f"{stem}.spans.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "round"], "spans": spans})
        )
    for name, ok, detail in checks:
        if not ok:
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

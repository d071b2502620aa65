"""Time one workload's set-up in a fresh interpreter and print it as JSON.

The clock starts after the harness's own imports (numpy, no scipy) and
stops after ``import wavemod`` plus every ``sim.build_adapter`` and
``gfdm.build_receiver`` call the workload's scenarios make, one scenario
after another as the run makes them.  ``run.py`` starts this script several
times per run.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import sys
import time

import numpy  # the harness's own import, outside the clock

import workloads

if __name__ == "__main__":
    workload = workloads.WORKLOADS[sys.argv[1]]
    seed = int(sys.argv[2])
    if "scipy" in sys.modules:
        sys.exit("setup_probe: scipy was imported before the clock started")
    sys.path.insert(0, str(workloads.SRC_DIR))
    t0 = time.perf_counter()
    from wavemod import gfdm, sim

    for scenario in workload.scenarios:
        workloads.build_setup(sim, gfdm, scenario, seed)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed}))

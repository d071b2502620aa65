"""Spans around wavemod's public calls, recorded from outside the library.

``STAGES`` is the single stage -> function table.  Functions are named where
they are defined; :class:`Tracer` rebinds every name in the loaded ``wavemod``
modules that refers to the same function object, so a call is caught whether
its caller looks the function up through a module (``linear_mod.
linear_modulate``) or through a name it imported (``sim.qam_map``).  A
function that no longer exists is listed as missing, and a stage none of whose
functions exist is reported as absent rather than failing the run.
"""

import functools
import importlib
import sys
import time

# stage metric -> functions, as "module.name" at their definition.
STAGES = {
    "build_s": ("wavemod.sim.build_adapter", "wavemod.gfdm.build_receiver"),
    "draw_s": (
        "wavemod.sim._draw_chunk",
        "wavemod.sim.frame_rng",
        "wavemod.channel.complex_awgn",
        "wavemod.channel.draw_tvfs",
    ),
    "map_s": ("wavemod.mapping.qam_map",),
    "demap_s": ("wavemod.mapping.qam_demap",),
    "tx_s": (
        "wavemod.linear.linear_modulate",
        "wavemod.fbmc.fbmc_modulate",
        "wavemod.gfdm.oqam_modulate",
        "wavemod.gfdm.gfdm_modulate",
        "wavemod.ofdm.ofdm_modulate",
    ),
    "channel_s": ("wavemod.sim._convolve_rows",),
    "equalize_s": ("wavemod.channel.fd_zf_equalize",),
    "rx_s": (
        "wavemod.linear.linear_demodulate",
        "wavemod.fbmc.fbmc_demodulate",
        "wavemod.gfdm.gfdm_demodulate",
        "wavemod.gfdm.oqam_demodulate",
        "wavemod.ofdm.ofdm_demodulate",
    ),
    "count_s": ("wavemod.metrics.ber_count",),
    "papr_s": ("wavemod.metrics.papr_batch", "wavemod.metrics.papr_ccdf"),
    "welch_s": ("wavemod.metrics.welch_psd",),
}
# Stages reported per waveform as "<stage>.<waveform>".
PER_WAVEFORM = ("build_s", "tx_s", "rx_s")
# Stages whose call counts are reported as "<name>" next to their time.
COUNTED = {"channel_s": "channel_calls", "equalize_s": "equalize_calls", "rx_s": "rx_calls"}
# Self time of the harness's own span around each sim.run_* call: the chunk
# loop, scatter, PSD overlap-add and thread pool, everything not named above.
ROOT = "other_s"

WAVEFORMS = ("ofdm", "gfdm", "gfdm_oqam_circular", "linear_gfdm", "fbmc")


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = [("import_s", "s")]
    out += [(f"build_s.{w}", "s") for w in WAVEFORMS]
    out += [(f"build_mb.{w}", "MB") for w in WAVEFORMS]
    out += [("draw_s", "s"), ("map_s", "s"), ("demap_s", "s")]
    out += [(f"tx_s.{w}", "s") for w in WAVEFORMS]
    out += [("channel_s", "s"), ("channel_calls", "count")]
    out += [("equalize_s", "s"), ("equalize_calls", "count")]
    out += [(f"rx_s.{w}", "s") for w in WAVEFORMS]
    out += [("rx_calls", "count"), ("rx_calls_per_frame", "calls/frame")]
    out += [("count_s", "s"), ("papr_s", "s"), ("welch_s", "s"), (ROOT, "s")]
    out += [("traced_wall_s", "s"), ("trace_overhead_pct", "%")]
    return out


def _resolve(path: str):
    module_name, _, attr = path.rpartition(".")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, attr, None)


class Tracer:
    """Records one span per wrapped call: (name, start, end, parent index).

    Spans go to one list shared by all threads.  Parents are taken from a
    single stack, which is right only while one thread runs wavemod code at
    a time; the benchmark pins ``WAVEMOD_THREADS=1`` for that reason.
    """

    def __init__(self, stages=tuple(STAGES)):
        self.stages = tuple(stages)
        self.spans = []
        self.missing = []  # functions of the table that no longer exist
        self.absent = []  # stages none of whose functions exist
        self._stack = []
        self._waveform = ""
        self._patches = []

    def __enter__(self):
        targets = {}
        for stage in self.stages:
            found = False
            for path in STAGES[stage]:
                fn = _resolve(path)
                if fn is None:
                    self.missing.append(path)
                else:
                    targets[id(fn)] = self._wrap(stage, fn)  # fn stays alive in the wrapper
                    found = True
            if not found:
                self.absent.append(stage)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("wavemod"):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()
        return False

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, stage, fn):
        per_waveform = stage in PER_WAVEFORM

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = f"{stage}.{self._waveform}" if per_waveform else stage
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def root(self, waveform, fn, *args):
        """Call ``fn(*args)`` under a root span, labelling spans by waveform."""
        self._waveform = waveform
        index = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(index)


def self_times(spans) -> dict[str, float]:
    """Per-name self time: each span's duration minus its children's.

    Children of one span run one after another on the traced thread, so the
    interval they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for (name, start, end, _), child in zip(spans, covered):
        out[name] = out.get(name, 0.0) + (end - start) - child
    return out


def call_counts(spans) -> dict[str, int]:
    out = {}
    for name, *_ in spans:
        out[name] = out.get(name, 0) + 1
    return out


def root_wall(spans) -> float:
    return sum(end - start for _, start, end, parent in spans if parent < 0)

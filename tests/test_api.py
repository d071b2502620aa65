"""Guards on the package surface: the public names and the benchmark's stage table."""

import importlib.util
from pathlib import Path

import wavemod

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_names_resolve_once():
    names = wavemod.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(wavemod, n)] == []


def test_every_traced_stage_resolves():
    # A stage none of whose functions exists would vanish from traced runs.
    tracing = _load_tracing()
    with tracing.Tracer() as tracer:
        pass
    assert tracer.absent == []

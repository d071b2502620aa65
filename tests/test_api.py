"""Guards on the package surface: the public names, the benchmark's stage table, the A/B
tool's runs and verdicts, the seed-margin tool's acceptance setup, the source-size tool's
line count, the demos and README examples (run end to end), dead imports and private
names, and the import footprint."""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import wavemod

_ROOT = Path(__file__).resolve().parents[1]
_TRACING = _ROOT / "perfbench" / "tracing.py"
_AB_ROUNDS = _ROOT / "tools" / "ab_rounds.py"
_SRC_SIZE = _ROOT / "tools" / "src_size.py"
_SEED_MARGINS = _ROOT / "tools" / "seed_margins.py"
_BENCHMARK = json.loads((_ROOT / "BENCHMARK.json").read_text())


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load(_TRACING, "perfbench_tracing")


def test_public_names_resolve_once():
    names = wavemod.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(wavemod, n)] == []


def test_mapping_offers_only_the_packed_bit_api():
    # One bit format: the pipeline maps packed bytes and demaps to labels, so
    # an unpacked-bit twin of either direction has no caller; the tests'
    # arithmetic mapper is tests/oracle.py's.
    public = {n for n, v in vars(wavemod.mapping).items() if callable(v) and not n.startswith("_")}
    assert public == {"map_packed", "packed_labels", "demap_labels"}


def test_cyclic_prefix_helpers_are_test_oracles():
    # The adapter writes each cyclic prefix in place; no production path
    # prefixes a frame by concatenation.
    assert not {"add_cp", "remove_cp"} & set(wavemod.__all__)
    assert not hasattr(wavemod.gfdm, "add_cp") and not hasattr(wavemod.gfdm, "remove_cp")


def test_work_areas_belong_to_the_pipeline_and_the_modem():
    # Only sim and gfdm take buffers from a work area, each under its own
    # prefix, so a call into another module cannot overwrite a live buffer.
    users = {}
    for path in sorted((_ROOT / "src" / "wavemod").glob("*.py")):
        text = path.read_text()
        if "_work.area()" in text or "_work.borrowed()" in text:
            users[path.stem] = set(re.findall(r'\.get\(\s*"(\w+)\.', text))
    assert users == {"sim": {"sim"}, "gfdm": {"gfdm"}}


def test_every_traced_stage_resolves():
    # A stage none of whose functions exists would vanish from traced runs.
    # Five stages name only functions the pipeline never runs, and read
    # zero until the benchmark's stage table drops them: map_s and demap_s
    # the unpacked-bit qam_map and qam_demap (runs map packed bytes with
    # map_packed and count errors on demap_labels' labels, so traced runs
    # read both stages as zero before the two left the package), channel_s
    # the channel convolution (zero forcing inverts the channel, so the
    # simulator equalizes the noise alone), count_s and welch_s the
    # one-call bit count and PSD, test helpers that left the package (BER
    # chunks count label bits in sim, PSD runs stream WelchAccumulator).
    tracing = _load_tracing()
    with tracing.Tracer() as tracer:
        pass
    assert tracer.absent == ["map_s", "demap_s", "channel_s", "count_s", "welch_s"]


@pytest.mark.parametrize(
    "b_over_a, wins, verdict",
    [
        ([20] * 9 + [0], 9, "9/10: yes; median gap +18.2% above A's quartile spread 5.3%: yes"),
        ([20] * 8 + [0, 0], 8, "9/10: no; median gap +17.2% above A's quartile spread 5.3%: yes"),
        ([5] * 10, 10, "9/10: yes; median gap +4.8% above A's quartile spread 5.3%: no"),
    ],
)
def test_ab_rounds_claim_rule(b_over_a, wins, verdict):
    # A tie counts for neither tree; the gap must exceed A's quartile spread,
    # 5.5 here (quartiles 101.75 and 107.25), 5.3% of A's median 104.5.
    a = [100.0 + i for i in range(10)]
    line = _load(_AB_ROUNDS, "ab_rounds").claim_rule(a, [x + d for x, d in zip(a, b_over_a)])
    assert f"B won {wins}/10 pairs" in line
    assert line.endswith(verdict)


_NARROW = [100.0 + i for i in range(10)]  # quartile spread 5.3% of the median
_WIDE = [60.0, 80.0, 100.0, 120.0, 140.0]  # quartile spread 60% of the median


@pytest.mark.parametrize(
    "better, a, b, verdict",
    [
        ("higher", _NARROW, [0.9 * x for x in _NARROW], "-10.0% against -25%: within"),
        ("higher", _NARROW, [0.7 * x for x in _NARROW], "-30.0% against -25%: worse"),
        ("higher", _WIDE, _WIDE, "+0.0% against -25%: unresolved"),
        ("higher", _WIDE, [150.0] * 5, "+50.0% against -25%: within"),
        ("lower", _NARROW, [1.1 * x for x in _NARROW], "+10.0% against +25%: within"),
        ("lower", _NARROW, [1.3 * x for x in _NARROW], "+30.0% against +25%: worse"),
        ("lower", _WIDE, _WIDE, "+0.0% against +25%: unresolved"),
        ("lower", _WIDE, [50.0] * 5, "-50.0% against +25%: within"),
    ],
)
def test_ab_rounds_bound_verdict(better, a, b, verdict):
    # A spread wider than the bound leaves the verdict open unless every B
    # run beats every A run.
    assert _load(_AB_ROUNDS, "ab_rounds").bound_verdict(a, b, better, 0.25) == f"bound: {verdict}"


_STUB_VALUES = {"frames_per_s": 1000.0, "setup_s": 0.02, "peak_rss_mb": 50.0}
_STUB_COMMAND = [sys.executable, "perfbench/run.py"]


def _stub_tree(root: Path, exit_code: int = 0, **result) -> Path:
    """A tree whose ``perfbench/run.py`` prints a progress line, an ``info`` line
    echoing its arguments and a correct result, amended by ``result``."""
    metrics = {m["name"]: {"value": _STUB_VALUES[m["name"]], "unit": m["unit"]}
               for m in _BENCHMARK["end_to_end"]}
    line = json.dumps({"correct": True, "attempted": 7, "failed": 0, "metrics": metrics} | result)
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        "import json, sys\nprint('progress')\n"
        "print(json.dumps({'info': {'rounds': 7, 'argv': sys.argv[1:]}}))\n"
        f"print({line!r})\nsys.exit({exit_code})\n"
    )
    return root


def test_ab_rounds_run_tree_reads_the_last_two_lines(tmp_path):
    tree = _stub_tree(tmp_path / "tree")
    ab = _load(_AB_ROUNDS, "ab_rounds")
    info, values = ab.run_tree(tree, _STUB_COMMAND, "ber_tvfs", 3, 1.5)
    assert info["argv"] == ["--workload", "ber_tvfs", "--seed", "3", "--seconds", "1.5"]
    assert values == _STUB_VALUES | {"rounds": 7}


@pytest.mark.parametrize(
    "exit_code, result, reason",
    [(0, {"correct": False}, "correct False"), (0, {"failed": 1}, "failed 1"), (1, {}, "exited 1")],
)
def test_ab_rounds_refuses_a_failed_run(tmp_path, exit_code, result, reason):
    tree = _stub_tree(tmp_path / "tree", exit_code, **result)
    ab = _load(_AB_ROUNDS, "ab_rounds")
    with pytest.raises(SystemExit) as stop:
        ab.run_tree(tree, _STUB_COMMAND, "ber_tvfs", 0, 1.0)
    assert f"ber_tvfs run from {tree}" in str(stop.value.code)
    assert reason in str(stop.value.code)


def test_ab_rounds_judges_every_workload_and_metric_of_the_benchmark(tmp_path, monkeypatch, capsys):
    # Workloads, metrics, directions, bounds and the run length are
    # BENCHMARK.json's; only the interpreter is pinned to this one.
    ab = _load(_AB_ROUNDS, "ab_rounds")
    monkeypatch.setattr(ab, "benchmark", lambda: _BENCHMARK | {"command": _STUB_COMMAND})
    trees = [str(_stub_tree(tmp_path / side)) for side in "AB"]
    assert ab.main([*trees, "--pairs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [w["name"] for w in _BENCHMARK["workloads"]]
    for w in names:
        ratios = "  ".join(f"{m['name']} B/A 1.000" for m in _BENCHMARK["end_to_end"])
        assert f"{w} pair 1: {ratios}  rounds A 7 B 7" in lines
        for m in _BENCHMARK["end_to_end"]:
            at = next(i for i, line in enumerate(lines) if line.startswith(f"{w} {m['name']}: A median"))
            assert lines[at + 1].startswith("  claim rule: B won 0/1 pairs")
            sign = "-" if m["better"] == "higher" else "+"
            assert lines[at + 2] == f"  bound: +0.0% against {sign}{m['bound']:.0%}: within"
    record = json.loads(lines[-1])
    assert (record["seed"], record["seconds"], record["pairs"]) == (0, _BENCHMARK["run_seconds"], 1)
    assert record["info"]["argv"][-2] == "--seconds"
    assert float(record["info"]["argv"][-1]) == _BENCHMARK["run_seconds"]
    for side in "AB":
        assert list(record["runs"][side]) == names
        assert all(runs == [_STUB_VALUES | {"rounds": 7}] for runs in record["runs"][side].values())


def test_seed_margins_runs_the_acceptance_ber_setup():
    # The tool imports another tree's wavemod, so it keeps its own copies.
    tool = _load(_SEED_MARGINS, "seed_margins")
    acceptance = _load(_ROOT / "tests" / "test_acceptance.py", "acceptance")
    assert (tool.FRAMES, tool.WAVEFORMS, tool.TEST2_GRID, tool.TEST7_POINTS) == (
        acceptance.BER_FRAMES, acceptance.BER_WAVEFORMS, acceptance.TEST2_GRID, acceptance.TEST7_POINTS,
    )


def test_src_size_counts_code_lines_only(tmp_path):
    # Docstring, blank, comment and string-continuation lines are not code;
    # the last row counts __all__'s names, 0 in a tree without one.
    src_size = _load(_SRC_SIZE, "src_size")
    source = '"""Doc.\n\nMore."""\n\n# note\nx = (1,\n     2)  # why\ns = """a\nb"""\n'
    assert src_size.code_lines(source) == 3
    for tree, extra in (("a", ""), ("b", "y = x\n")):
        (tmp_path / tree / "src" / "wavemod").mkdir(parents=True)
        (tmp_path / tree / "src" / "wavemod" / "m.py").write_text(source + extra)
    # Never imported: the import would raise.
    (tmp_path / "b" / "src" / "wavemod" / "__init__.py").write_text(
        'raise ImportError\n__all__ = [\n    "x",\n    "y",\n]\n'
    )
    rows = src_size.report([tmp_path / "a"])
    assert [row.split() for row in rows[-2:]] == [["total", "9", "3"], ["__all__", "0"]]
    rows = src_size.report([tmp_path / "a", tmp_path / "b"])
    assert rows[-2].split() == ["total", "9", "15", "+6", "3", "9", "+6"]
    assert rows[-1].split() == ["__all__", "0", "2", "+2"]
    assert src_size.public_names(_ROOT) == len(wavemod.__all__)


def _scripts() -> dict[str, str]:
    """Source of every README ``python`` block and every demo, by origin."""
    readme = (_ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    sources = {f"README.md block {i}": block for i, block in enumerate(blocks)}
    return sources | {path.name: path.read_text() for path in sorted((_ROOT / "demos").glob("*.py"))}


def _env_with_src() -> dict:
    paths = [str(_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


_SCRIPTS = _scripts()


@pytest.mark.parametrize("origin", sorted(_SCRIPTS))
def test_demos_and_readme_run(origin, tmp_path):
    # Each runs top to bottom and asserts what it prints, so a deleted public
    # name or a claim that stops holding fails here.
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPTS[origin]],
        cwd=tmp_path, env=_env_with_src(), capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr


def test_import_loads_no_scipy():
    # scipy's import alone took over a second of every run's set-up; keep it out.
    probe = (
        "import sys, wavemod, wavemod.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=_env_with_src(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def _probe(source: str, **env) -> dict:
    """The JSON object a fresh interpreter running ``source`` prints last."""
    out = subprocess.run(
        [sys.executable, "-c", source], env=_env_with_src() | env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


# numpy's RNG and the thread pool's module (with ``logging``) took about half
# of set-up; whether ``import numpy`` loads them depends on numpy's version.
_SET_UP_PROBE = """
import json, sys
import numpy
lazy = ("numpy.random", "concurrent.futures")
loaded = lambda: [m in sys.modules for m in lazy]
stages = {"numpy": loaded()}
import wavemod, wavemod.cli
from wavemod import gfdm, sim
for waveform in sim.WAVEFORMS:
    adapter = sim.build_adapter(sim.ScenarioConfig(waveform=waveform))
    if waveform == "gfdm":
        gfdm.build_receiver(adapter.mats, "zf")
stages["built"] = loaded()
sim.run_ber(sim.ScenarioConfig(waveform="gfdm", channel="tvfs", frames=64, ebn0_grid_db=(8.0,)))
stages["ran"] = loaded()
print(json.dumps(stages))
"""


def test_set_up_loads_no_rng_or_thread_pool():
    stages = _probe(_SET_UP_PROBE, WAVEMOD_THREADS="1")
    assert stages["built"] == stages["numpy"]  # neither newly loaded by import or build
    assert stages["ran"][1] == stages["numpy"][1]  # one thread starts no pool
    assert stages["ran"][0]  # the run drew


_THREADED_PROBE = """
import json, os, sys
import numpy
preloaded = "numpy.random" in sys.modules
from wavemod import sim
os.cpu_count = lambda: 4  # keep 3 threads on any machine
config = sim.ScenarioConfig(
    waveform="gfdm", channel="tvfs", frames=200, ebn0_grid_db=(4.0, 8.0), error_target=None
)
counts = []
for threads in ("3", "1"):
    os.environ["WAVEMOD_THREADS"] = threads
    curve = sim.run_ber(config)
    counts.append([curve.extra["errors"].tolist(), curve.extra["bits"].tolist()])
print(json.dumps({"preloaded": preloaded, "counts": counts}))
"""


def test_lazy_imports_first_happen_on_pool_threads():
    # The process's first draws, and so numpy's RNG import, run on three pool
    # threads at once over four chunks; one thread then gives the same counts.
    result = _probe(_THREADED_PROBE)
    if result["preloaded"]:
        pytest.skip("this numpy loads numpy.random with numpy")
    threaded, single = result["counts"]
    assert threaded == single
    assert single[1] == [200 * 128 * 4 * 4] * 2


def _unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports and never reads; names in ``__all__`` count as read."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = sorted((_ROOT / "src" / "wavemod").glob("*.py")) + sorted((_ROOT / "tests").glob("*.py"))
    assert modules
    assert [entry for path in modules for entry in _unused_imports(path)] == []


def _names_read(node) -> list[str]:
    """Every name under ``node`` that code can read: plain names, attributes, imported names."""
    names = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.append(n.id)
        elif isinstance(n, ast.Attribute):
            names.append(n.attr)
        elif isinstance(n, ast.alias):
            names.append(n.name)
    return names


def test_no_unused_private_definitions():
    # A module-level _private function or class that nothing in the package
    # reads outside its own body is dead code, even when tests call it.
    paths = sorted((_ROOT / "src" / "wavemod").glob("*.py"))
    trees = {path.name: ast.parse(path.read_text()) for path in paths}
    read = Counter(name for tree in trees.values() for name in _names_read(tree))
    unused = [
        f"{module}:{node.lineno}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
        and read[node.name] == _names_read(node).count(node.name)
    ]
    assert trees
    assert unused == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _foreign_private_reads(path: Path) -> list[str]:
    """Private names of other wavemod modules that ``path`` reads.

    Both ``from .x import _name`` and ``alias._name``, ``alias`` being a name
    bound to a wavemod module (``from . import gfdm as gfdm_mod``).  A module
    may import a private module (``from . import _work``) and read its
    public names.
    """
    tree = ast.parse(path.read_text())
    modules, found = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = (node.level == 1 and node.module is None) or node.module == "wavemod"
        ours = node.level > 0 or (node.module or "").startswith("wavemod.")
        for alias in node.names:
            if package:
                modules.add(alias.asname or alias.name)
            elif ours and _private(alias.name):
                found.append(f"{path.name}:{node.lineno}: from .{node.module} import {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_guard_finds_foreign_private_reads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import _work, gfdm as g\nfrom .sim import _grid, run_ber\n"
        "n = g._FRAME_BLOCK + g.__name__.count(_work.area().__doc__)\n"
    )
    assert _foreign_private_reads(probe) == [
        "probe.py:2: from .sim import _grid",
        "probe.py:3: g._FRAME_BLOCK",
    ]


def test_no_module_reads_another_modules_private_names():
    # A private name is its module's own; a module that needs another's
    # (the GEMM's frame block, say) has taken over a job that module owns.
    paths = sorted((_ROOT / "src" / "wavemod").glob("*.py"))
    assert paths
    assert [entry for path in paths for entry in _foreign_private_reads(path)] == []

"""Guards on the package surface: the public names, the benchmark's stage table, the A/B
tool's claim rule, the demos and README examples (run end to end), dead imports and the
import footprint."""

import ast
import importlib.util
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
    # Three stages name only functions the pipeline never runs, and read
    # zero until the benchmark's stage table drops them: channel_s the
    # channel convolution (zero forcing inverts the channel, so the
    # simulator equalizes the noise alone), count_s and welch_s the
    # one-call bit count and PSD, test helpers that left the package (BER
    # chunks count label bits in sim, PSD runs stream WelchAccumulator).
    tracing = _load_tracing()
    with tracing.Tracer() as tracer:
        pass
    assert tracer.absent == ["channel_s", "count_s", "welch_s"]


@pytest.mark.parametrize(
    "b_over_a, wins, verdict",
    [
        ([20] * 9 + [0], 9, "9/10: yes; median gap +19 above A's quartile spread 6: yes"),
        ([20] * 8 + [0, 0], 8, "9/10: no; median gap +18 above A's quartile spread 6: yes"),
        ([5] * 10, 10, "9/10: yes; median gap +5 above A's quartile spread 6: no"),
    ],
)
def test_ab_rounds_claim_rule(b_over_a, wins, verdict):
    # A tie counts for neither tree; the gap must exceed A's quartile spread,
    # 5.5 here (quartiles 101.75 and 107.25).
    a = [100.0 + i for i in range(10)]
    line = _load(_AB_ROUNDS, "ab_rounds").claim_rule(a, [x + d for x, d in zip(a, b_over_a)])
    assert f"B won {wins}/10 pairs" in line
    assert line.endswith(verdict)


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

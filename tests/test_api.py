"""Guards on the package surface: the public names, the benchmark's stage table, the names the
demos and README import, dead imports and the import footprint."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import wavemod

_ROOT = Path(__file__).resolve().parents[1]
_TRACING = _ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    # The channel stage names only the channel convolution, which the
    # simulator no longer runs (zero forcing inverts the channel, so it
    # equalizes the noise alone): that one stage reads zero until the
    # benchmark's stage table drops it.
    tracing = _load_tracing()
    with tracing.Tracer() as tracer:
        pass
    assert tracer.absent == ["channel_s"]


def _wavemod_imports(source: str) -> list[tuple[str, str | None]]:
    """(module, name) of every name ``source`` imports from wavemod or its submodules.

    ``import wavemod.x`` gives (``wavemod.x``, None).
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "wavemod":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "wavemod"]
    return found


def _resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(mod, name):
        return True
    return importlib.util.find_spec(f"{module}.{name}") is not None


def test_demo_and_readme_imports_resolve():
    # Deleting a public name must not silently break a demo or a README
    # example.  Their imports are read, not run: no simulation starts.
    readme = (_ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    sources = {f"README.md block {i}": block for i, block in enumerate(blocks)}
    sources |= {path.name: path.read_text() for path in sorted((_ROOT / "demos").glob("*.py"))}
    imports = {origin: _wavemod_imports(text) for origin, text in sources.items()}
    assert blocks and all(imports.values())
    broken = [
        f"{origin}: {module}{'.' + name if name else ''}"
        for origin, found in imports.items()
        for module, name in found
        if not _resolves(module, name)
    ]
    assert broken == []


def test_import_loads_no_scipy():
    # scipy's import alone took over a second of every run's set-up; keep it out.
    paths = [str(_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    probe = (
        "import sys, wavemod, wavemod.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
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

"""Size of ``src/wavemod``: each module's ``wc -l`` and code lines, for one tree or two.

A code line is one on which a token other than a string or a comment
starts; docstrings, comments and blank lines do not count, and neither do
the lines a multi-line statement's string continues on.  A last row counts
the names in the package's ``__all__``, read from ``__init__.py`` with
``ast``, without importing it, so a trimmed public surface shows next to
the lines.

    python3 tools/src_size.py                  # this checkout
    python3 tools/src_size.py TREE             # another checkout
    python3 tools/src_size.py TREE_A TREE_B    # both, and B - A

With two trees each row shows A, B and their difference; a module in one
tree only counts as 0 lines in the other, and a tree without ``__all__``
as 0 names.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that mark layout, not code.
_LAYOUT = {
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}
_TEXT = {tokenize.STRING, tokenize.COMMENT} | {
    getattr(tokenize, name) for name in ("FSTRING_START", "FSTRING_MIDDLE", "FSTRING_END")
    if hasattr(tokenize, name)
}


def code_lines(source: str) -> int:
    """Lines of ``source`` on which a token other than a string or comment starts."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return len({tok.start[0] for tok in tokens if tok.type not in _LAYOUT | _TEXT})


def sizes(tree: Path) -> dict[str, tuple[int, int]]:
    """(``wc -l``, code lines) of each module of ``tree``'s ``src/wavemod``, by file name."""
    out = {}
    for path in sorted((tree / "src" / "wavemod").glob("*.py")):
        text = path.read_text()
        out[path.name] = (text.count("\n"), code_lines(text))
    return out


def public_names(tree: Path) -> int:
    """Length of the ``__all__`` list that ``tree``'s ``src/wavemod/__init__.py`` assigns, or 0."""
    init = tree / "src" / "wavemod" / "__init__.py"
    body = ast.parse(init.read_text()).body if init.exists() else []
    for node in body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return len(ast.literal_eval(node.value))
    return 0


def report(trees: list[Path]) -> list[str]:
    """The table's lines: one row per module, the totals, then the ``__all__`` count."""
    tables = [sizes(tree) for tree in trees]
    if not any(tables):
        raise SystemExit(f"no src/wavemod modules under {', '.join(map(str, trees))}")
    names = sorted(set().union(*tables))
    rows = [(name, [table.get(name, (0, 0)) for table in tables]) for name in names]
    rows.append(("total", [tuple(map(sum, zip(*table.values()))) or (0, 0) for table in tables]))
    if len(trees) == 1:
        lines = [f"{'module':<14}{'wc -l':>8}{'code':>8}"]
        lines += [f"{name:<14}{wc:>8}{code:>8}" for name, [(wc, code)] in rows]
        lines.append(f"{'__all__':<14}{public_names(trees[0]):>16}")
        return lines
    lines = [f"A {trees[0]}", f"B {trees[1]}",
             f"{'module':<14}{'wc -l A':>9}{'B':>7}{'B - A':>7}{'code A':>9}{'B':>7}{'B - A':>7}"]
    for name, [(wc_a, code_a), (wc_b, code_b)] in rows:
        lines.append(
            f"{name:<14}{wc_a:>9}{wc_b:>7}{wc_b - wc_a:>+7}{code_a:>9}{code_b:>7}{code_b - code_a:>+7}"
        )
    all_a, all_b = map(public_names, trees)
    lines.append(f"{'__all__':<14}{'':>23}{all_a:>9}{all_b:>7}{all_b - all_a:>+7}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="*", type=Path, help="zero, one or two checkouts")
    args = ap.parse_args(argv)
    if len(args.trees) > 2:
        ap.error("give at most two trees")
    trees = args.trees or [Path(__file__).resolve().parents[1]]
    print("\n".join(report(trees)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Every top-level function and class in the package is run by a command
or by the benchmark.

A name that only the tests reach is test code living in the library:
it belongs in tests/oracles.py (or nowhere).  The guard parses each
module of src/fqdyn/ except __init__.py, whose re-exports are not a use,
and fails for a top-level def or class named in no other top-level
statement of the package and nowhere in perfbench/.  A name counts where
it appears as a Name, an Attribute, or a word in a string constant that
is not a docstring; the string case covers getattr targets.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fqdyn"
BENCH = ROOT / "perfbench"
WORD = re.compile(r"\w+")


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            doc = first.value if isinstance(first, ast.Expr) else None
            if isinstance(doc, ast.Constant) and isinstance(doc.value, str):
                out.add(id(doc))
    return out


def _named(node: ast.AST, docstrings: set[int]) -> set[str]:
    """Every name node mentions: Names, Attributes and words of strings."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in docstrings:
            out.update(WORD.findall(n.value))
    return out


def unused_defs(modules, elsewhere) -> list[str]:
    """Top-level defs of modules named in no other top-level statement of
    modules and nowhere in the files elsewhere."""
    defs: list[tuple[str, ast.stmt]] = []
    uses: list[tuple[ast.stmt, set[str]]] = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docs = _docstrings(tree)
        for stmt in tree.body:
            uses.append((stmt, _named(stmt, docs)))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((f"{path.stem}.{stmt.name}", stmt))
    outside: set[str] = set()
    for path in elsewhere:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        outside |= _named(tree, _docstrings(tree))
    return [
        qualified
        for qualified, stmt in defs
        if stmt.name not in outside and not any(stmt.name in names for s, names in uses if s is not stmt)
    ]


def test_every_def_is_run_by_a_command_or_the_benchmark():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert unused_defs(modules, sorted(BENCH.glob("*.py"))) == []


def test_guard_sees_test_only_code(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        '"""helper is named in this docstring only."""\n\n'
        "def helper(x):\n    return helper(x - 1) if x else 0\n\n"
        "def called(x):\n    return x\n\n"
        "def looked_up(x):\n    return x\n\n"
        "def run(x):\n    return called(x)\n\n"
        "class Orphan:\n    pass\n",
        encoding="utf-8",
    )
    bench = tmp_path / "bench.py"
    bench.write_text('import lib\n\nlib.run(1)\ngetattr(lib, "looked_up")\n', encoding="utf-8")
    assert unused_defs([lib], [bench]) == ["lib.helper", "lib.Orphan"]

"""Every top-level function and class in the package, and every method of
a top-level class, is run by a command or by the benchmark.

A name that only the tests reach is test code living in the library:
it belongs in tests/oracles.py (or nowhere).  The guard parses each
module of src/fqdyn/ except __init__.py, whose re-exports are not a use,
and fails for a top-level def or class, or a non-dunder method of a
top-level class, named nowhere in the package outside its own definition
and nowhere in perfbench/.  A name counts where it appears as a Name, an
Attribute, or a word in a string constant that is not a docstring; the
string case covers getattr targets.  A method is only ever reached as an
Attribute or by getattr, so a bare Name (the builtin pow, say) does not
count for a method.
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


def _named(node: ast.AST, docstrings: set[int], bare: bool = True) -> set[str]:
    """Every name node mentions: Attributes, words of strings and, with
    bare, Names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and bare:
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in docstrings:
            out.update(WORD.findall(n.value))
    return out


def _methods(cls: ast.ClassDef) -> list[ast.stmt]:
    return [
        node
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def unused_defs(modules, elsewhere) -> list[str]:
    """Top-level defs, and methods of top-level classes, of modules named
    nowhere in modules outside their own definition and nowhere in the
    files elsewhere; a bare Name is no use of a method."""
    defs: list[tuple[str, ast.stmt, bool]] = []  # (qualified name, node, is a method)
    parts: list[tuple[ast.stmt, ast.AST, dict[bool, set[str]]]] = []  # (top-level statement, part, names)
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docs = _docstrings(tree)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((f"{path.stem}.{stmt.name}", stmt, False))
            methods = _methods(stmt) if isinstance(stmt, ast.ClassDef) else []
            defs += [(f"{path.stem}.{stmt.name}.{m.name}", m, True) for m in methods]
            parts += [(stmt, n, {b: _named(n, docs, b) for b in (True, False)}) for n in ast.iter_child_nodes(stmt)]
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in elsewhere]
    outside = {b: set().union(*(_named(t, _docstrings(t), b) for t in trees)) for b in (True, False)}
    return [
        qualified
        for qualified, node, method in defs
        if node.name not in outside[not method]
        and not any(node.name in names[not method] for top, part, names in parts if node not in (top, part))
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
        "class Orphan:\n    pass\n\n"
        "class Holder:\n"
        "    def __init__(self):\n        self.first()\n\n"
        "    def first(self):\n        return self.second()\n\n"
        "    def second(self):\n        return pow(2, 1)\n\n"  # the builtin: no use of Holder.pow
        "    def benched(self):\n        return 3\n\n"
        "    def recursive(self, x):\n        return self.recursive(x - 1) if x else 0\n\n"
        "    def pow(self, x):\n        return x * x\n",
        encoding="utf-8",
    )
    bench = tmp_path / "bench.py"
    bench.write_text(
        'import lib\n\nlib.run(1)\ngetattr(lib, "looked_up")\nlib.Holder().benched()\n', encoding="utf-8"
    )
    assert unused_defs([lib], [bench]) == ["lib.helper", "lib.Orphan", "lib.Holder.recursive", "lib.Holder.pow"]

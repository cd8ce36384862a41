"""No two top-level functions or methods of top-level classes in the
package share their arguments and body.

A copied helper drifts from its original; shared code belongs in one
place and is imported, or, for a method, inherited.  Docstrings are
ignored, so a copy cannot hide behind a different description.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fqdyn"


def _fingerprint(fn: ast.FunctionDef) -> str:
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        if isinstance(body[0].value.value, str):
            body = body[1:]
    return ast.dump(fn.args) + "".join(ast.dump(stmt) for stmt in body)


def duplicate_groups(paths) -> list[list[str]]:
    seen: dict[str, list[str]] = defaultdict(list)
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                seen[_fingerprint(node)].append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        seen[_fingerprint(method)].append(f"{path.stem}.{node.name}.{method.name}")
    return [names for names in seen.values() if len(names) > 1]


def test_no_copied_functions():
    assert duplicate_groups(sorted(PACKAGE.glob("*.py"))) == []


def test_guard_sees_copies_under_other_names(tmp_path):
    a = tmp_path / "a.py"
    b = tmp_path / "b.py"
    a.write_text('def f(x):\n    """One."""\n    return x + 1\n', encoding="utf-8")
    b.write_text('def g(x):\n    """Two."""\n    return x + 1\n\ndef h(y):\n    return y + 1\n', encoding="utf-8")
    assert duplicate_groups([a, b]) == [["a.f", "b.g"]]


def test_guard_sees_copied_methods(tmp_path):
    a = tmp_path / "a.py"
    b = tmp_path / "b.py"
    a.write_text(
        "class A:\n    @property\n    def bad(self):\n        return [c for c in self.rows if c.fail]\n",
        encoding="utf-8",
    )
    b.write_text(
        "class B:\n    def worse(self):\n        return [c for c in self.rows if c.fail]\n\n"
        "    def fine(self):\n        return self.rows\n",
        encoding="utf-8",
    )
    assert duplicate_groups([a, b]) == [["a.A.bad", "b.B.worse"]]

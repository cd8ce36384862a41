"""Every theory row in the package is built by census.compare.

A second builder would bring back a second rule for what passes: no
code other than compare calls TheoryComparison(...), and the retired
per-case builders are not defined again.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fqdyn"
RULE = "compare"
RETIRED = {"exact_comparison", "z_comparison", "_poly_lower"}


def _builds_row(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    return (fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)) == "TheoryComparison"


def rule_breaks(paths) -> list[str]:
    breaks = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        allowed = {id(n) for d in defs if d.name == RULE for n in ast.walk(d)}
        breaks += [f"{path.stem}.{d.name} defined" for d in defs if d.name in RETIRED]
        breaks += [
            f"{path.stem}:{n.lineno} builds a TheoryComparison"
            for n in ast.walk(tree)
            if _builds_row(n) and id(n) not in allowed
        ]
    return breaks


def test_one_function_builds_every_row():
    assert rule_breaks(sorted(PACKAGE.glob("*.py"))) == []


def test_guard_sees_a_second_builder(tmp_path):
    a = tmp_path / "a.py"
    a.write_text(
        "def compare(x):\n    return TheoryComparison(x)\n\n"
        "def other(x):\n    return census.TheoryComparison(x)\n\n"
        "def z_comparison(x):\n    return compare(x)\n",
        encoding="utf-8",
    )
    assert rule_breaks([a]) == ["a.z_comparison defined", "a:5 builds a TheoryComparison"]

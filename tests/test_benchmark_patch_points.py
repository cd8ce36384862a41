"""The package keeps every name the benchmark patches.

perfbench/traced.py times the layers of a run by swapping module
attributes for timed wrappers: the fmaps functions named in its DECODERS
tuple (looked up on fqdyn.census), the entry points keyed in ENTRIES
(on fqdyn.cli), and each (module, "name", wrapper) target it lists.  It
finds them with getattr, so a clean-up that drops such an import, say an
fmaps function census.py no longer calls, would break only the
benchmark; this test fails first.
"""

from __future__ import annotations

import ast
from pathlib import Path

from fqdyn import baseline, census, cli

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"
MODULES = {"census": census, "cli": cli, "baseline": baseline}
# the module whose attributes each name table of traced.py lists
TABLES = {"DECODERS": "census", "ENTRIES": "cli"}


def patch_points() -> set[tuple[str, str]]:
    """(module, attribute) of every patch target traced.py names literally."""
    points = set()
    for node in ast.walk(ast.parse(TRACED.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name) and node.targets[0].id in TABLES:
            names = node.value.keys if isinstance(node.value, ast.Dict) else node.value.elts
            points |= {(TABLES[node.targets[0].id], n.value) for n in names}
        elif isinstance(node, ast.Tuple) and len(node.elts) == 3:
            owner, name = node.elts[:2]
            owner = getattr(owner, "id", None) or getattr(owner, "attr", None)
            if owner in MODULES and isinstance(name, ast.Constant) and isinstance(name.value, str):
                points.add((owner, name.value))
    return points


def test_the_parse_finds_the_census_patch_points():
    points = patch_points()
    want = ("poly_exactly_at", "poly_at_most_at", "monic_poly_at", "poly_gcd", "canonicalize_rational")
    assert {("census", name) for name in (*want, "build_graph", "cycle_census")} <= points
    assert {("baseline", "cycle_census"), ("cli", "make_field"), ("cli", "rat_census")} <= points


def test_every_patched_name_exists():
    assert [f"{module}.{name}" for module, name in sorted(patch_points()) if not hasattr(MODULES[module], name)] == []

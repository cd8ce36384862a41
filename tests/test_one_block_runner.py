"""Every run of the package goes through one of two blocks.

run_blocks is the one block runner, and it runs one of two blocks, each
returning a Counter: the exhaustive census's slot walk
(census._census_block), and the per-index tally that serves drawn
censuses, rho walks, both baselines and the prov checks
(census._per_index_block).  A block of its own would bring back its own
copy of the rule that draws index i from per_index_rng(seed, i), which
keeps drawn reports the same for any --jobs, or its own result type
beside the Counter.  So no other function is passed to run_blocks, and
the retired blocks are not defined again.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fqdyn"
BLOCKS = {"_census_block", "_per_index_block"}
RETIRED = {"_rho_block", "_graph_block", "_prov_checks"}


def _name(node: ast.AST) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def blocks_run(paths) -> list[tuple[str, str | None]]:
    """(where, block name) of every run_blocks call; None for a block
    that is no plain name, such as a lambda."""
    calls = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _name(node.func) == "run_blocks":
                calls.append((f"{path.stem}:{node.lineno}", _name(node.args[0]) if node.args else None))
    return calls


def rule_breaks(paths) -> list[str]:
    calls = blocks_run(paths)
    breaks = [f"{where} runs {block or 'an unnamed block'}" for where, block in calls if block not in BLOCKS]
    for path in paths:
        breaks += [
            f"{path.stem}.{node.name} defined"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in RETIRED
        ]
    return sorted(breaks)


def test_every_run_uses_a_shared_block():
    paths = sorted(PACKAGE.glob("*.py"))
    assert rule_breaks(paths) == []
    # and each of the two serves some run, so the guard reads real calls
    assert {block for _, block in blocks_run(paths)} == BLOCKS


def test_guard_sees_a_block_of_its_own(tmp_path):
    a = tmp_path / "a.py"
    a.write_text(
        "def _rho_block(ctx, lo, hi):\n    return lo\n\n"
        "def run(ctx):\n"
        "    run_blocks(_per_index_block, [], 1)\n"
        "    census.run_blocks(_rho_block, [], 1)\n"
        "    return run_blocks(lambda lo, hi: hi, [], 1)\n",
        encoding="utf-8",
    )
    assert rule_breaks([a]) == ["a._rho_block defined", "a:6 runs _rho_block", "a:7 runs an unnamed block"]

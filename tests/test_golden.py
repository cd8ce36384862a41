"""Pinned CLI outputs: every report below must come out byte for byte as
stored under tests/golden/, at --jobs 1 and at --jobs 2.

A golden file changes only when a fix changes what a report says; the
reason goes into CHANGES.md.  To rewrite the files from the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

from pathlib import Path

import pytest

from fqdyn import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (argv without --jobs/--output, expected exit code); the file
# suffix follows --format
COMMANDS = {
    "census-poly-f2-d2": (["census", "--p", "2", "--d", "2"], 0),
    "census-poly-f5-d2-csv": (["census", "--p", "5", "--d", "2", "--format", "csv"], 0),
    "census-poly-f3-d0": (["census", "--p", "3", "--d", "0"], 0),
    "census-poly-f3-d2": (["census", "--p", "3", "--d", "2"], 0),
    "census-poly-f4-d2": (["census", "--p", "2", "--n", "2", "--d", "2"], 0),
    "census-poly-f4-d3-csv": (["census", "--p", "2", "--n", "2", "--d", "3", "--format", "csv"], 0),
    "census-rat-f3-d1": (["census", "--family", "rat", "--p", "3", "--d", "1"], 0),
    "census-rat-f2-d0": (["census", "--family", "rat", "--p", "2", "--d", "0"], 0),
    "census-rat-f4-d1": (["census", "--family", "rat", "--p", "2", "--n", "2", "--d", "1"], 0),
    "census-rat-f3-d2-csv": (["census", "--family", "rat", "--p", "3", "--d", "2", "--format", "csv"], 0),
    "sampled-poly-f7-d2": (["census", "--p", "7", "--d", "2", "--samples", "60", "--seed", "3"], 0),
    "sampled-poly-f5-d1-csv": (
        ["census", "--p", "5", "--d", "1", "--samples", "40", "--seed", "1", "--format", "csv"],
        0,
    ),
    "sampled-poly-f3-d3": (["census", "--p", "3", "--d", "3", "--samples", "30", "--seed", "0"], 0),
    "sampled-rat-f5-d2": (["census", "--family", "rat", "--p", "5", "--d", "2", "--samples", "50", "--seed", "2"], 0),
    "full-poly-f3-d2": (["census", "--p", "3", "--d", "2", "--full-support"], 0),
    "full-rat-f2-d0": (["census", "--family", "rat", "--p", "2", "--d", "0", "--full-support"], 0),
    "full-rat-f3-d1-csv": (
        ["census", "--family", "rat", "--p", "3", "--d", "1", "--full-support", "--format", "csv"],
        0,
    ),
    "verify-lemma-polys": (["verify", "lemma-polys", "--p", "3", "--dmax", "2"], 0),
    "verify-rat-count": (["verify", "rat-count", "--p", "2", "--dmax", "2"], 0),
    "verify-prov": (["verify", "prov", "--p", "5", "--instances", "12", "--seed", "4"], 0),
    "verify-cycle-bounds": (["verify", "cycle-bounds", "--p", "3", "--dmax", "2"], 0),
    "baseline-random-4": (["baseline", "random", "--size", "4"], 0),
    "baseline-random-4-csv": (["baseline", "random", "--size", "4", "--format", "csv"], 0),
    "baseline-random-sampled": (["baseline", "random", "--size", "40", "--samples", "80", "--seed", "1"], 0),
    "baseline-random-sampled-csv": (
        ["baseline", "random", "--size", "40", "--samples", "80", "--seed", "1", "--format", "csv"],
        0,
    ),
    "baseline-quadratic-2-3": (["baseline", "quadratic", "--m", "2", "--t", "3"], 0),
    "baseline-quadratic-2-3-csv": (["baseline", "quadratic", "--m", "2", "--t", "3", "--format", "csv"], 0),
    "baseline-quadratic-sampled": (
        ["baseline", "quadratic", "--m", "2", "--t", "10", "--samples", "60", "--seed", "2"],
        0,
    ),
    "baseline-quadratic-sampled-csv": (
        ["baseline", "quadratic", "--m", "2", "--t", "10", "--samples", "60", "--seed", "2", "--format", "csv"],
        0,
    ),
    "theory-f7-d2": (["theory", "--p", "7", "--d", "2"], 0),
    "theory-f4-d3": (["theory", "--p", "2", "--n", "2", "--d", "3", "--kmax", "5"], 0),
    "rho-poly": (["rho", "--p", "101", "--d", "2", "--samples", "40", "--seed", "5"], 0),
    "rho-rat": (["rho", "--family", "rat", "--p", "31", "--d", "2", "--samples", "40", "--seed", "6"], 0),
}


def golden_path(name: str) -> Path:
    argv = COMMANDS[name][0]
    return GOLDEN / f"{name}.{'csv' if 'csv' in argv else 'json'}"


def run_command(name: str, jobs: int, out: Path) -> tuple[int, str]:
    argv = COMMANDS[name][0]
    if argv[0] != "theory":  # the only command without a worker pool
        argv = [*argv, "--jobs", str(jobs)]
    code = cli.run([*argv, "--output", str(out)])
    return code, out.read_text(encoding="utf-8")


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name, jobs, tmp_path):
    code, text = run_command(name, jobs, tmp_path / "out")
    assert code == COMMANDS[name][1]
    assert text == golden_path(name).read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (_, expected) in sorted(COMMANDS.items()):
            code, text = run_command(name, 1, Path(tmp) / "out")
            golden_path(name).write_text(text, encoding="utf-8")
            print(f"{name}: exit {code}{'' if code == expected else f' (table says {expected})'}")

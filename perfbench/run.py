#!/usr/bin/env python3
"""fqdyn census benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the package is used from `src/`.
With --trace 0 the benchmark times the real CLI, `python -m fqdyn ...`,
in subprocesses for about S seconds and reports the end-to-end metrics.
With --trace 1 it replays the workload in process with spans around the
calls into each module and reports the per-layer metrics (see traced.py).
`--workload all` does both for every workload.  Every CLI report is
checked against pinned references (references.json) or closed forms.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it give every metric by name with its unit,
its quartiles, the run metadata and any observation.  The exit code is 0
when every check passed, 1 when one failed, 2 when nothing could run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from statistics import median

from traced import PER_LAYER_UNITS, replay
from workloads import WORKLOADS, Workload, check_report, failed_comparisons, load_references, map_count

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "evals_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# each timed run follows one set-up call, so that setup_s samples the same
# stretch of machine time as the runs; at least MIN_RUNS of each
MIN_RUNS = 3
DEADLINE_S = 170.0  # the whole benchmark process must end within 180 s
CALL_TIMEOUT_S = 120.0
WARMUP_ARGV = ("theory", "--p", "2", "--d", "1")


@dataclass(frozen=True)
class CliRun:
    exit_code: int
    wall_s: float
    cpu_s: float  # user + system over the CLI process and its workers
    rss_mb: float  # largest resident set in that process tree
    stdout: str
    stderr: str


class Launcher:
    """Runs `python -m fqdyn` from src/ and measures the process tree."""

    def __init__(self, tmp: Path, deadline: float) -> None:
        self.tmp = tmp
        self.deadline = deadline
        # no budget override; byte-compiled modules are cached, as for users
        drop = ("FQDYN_BUDGET", "PYTHONDONTWRITEBYTECODE")
        self.env = {k: v for k, v in os.environ.items() if k not in drop}
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def __call__(self, argv: list[str]) -> CliRun:
        timeout = min(CALL_TIMEOUT_S, self.deadline - perf_counter())
        if timeout <= 0:
            raise TimeoutError("benchmark deadline reached")
        out, err = self.tmp / "stdout", self.tmp / "stderr"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = perf_counter()
            # own process group, so a timeout also stops the CLI's workers
            proc = subprocess.Popen(
                [sys.executable, "-m", "fqdyn", *argv],
                stdout=fo,
                stderr=fe,
                cwd=ROOT,
                env=self.env,
                start_new_session=True,
            )
            timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                # wait4 reports the child's usage including its reaped workers
                _, status, usage = os.wait4(proc.pid, 0)
                wall = perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                timer.join()
        return CliRun(
            exit_code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024,
            stdout=out.read_text(encoding="utf-8", errors="replace"),
            stderr=err.read_text(encoding="utf-8", errors="replace"),
        )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them; a single
    value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Outcome:
    """Check counts and report lines of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.lines: list[str] = []

    def check(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.lines.append(f"FAILED {label}: {'; '.join(problems)}")


def measure(w: Workload, seed: int, seconds: float, launch: Launcher, refs: dict, out: Outcome) -> dict:
    """End-to-end metrics: medians over repeated CLI runs of the workload."""
    launch(list(WARMUP_ARGV))  # byte-compiles the package once, untimed
    attempted0, failed0 = out.attempted, out.failed
    setups: list[float] = []
    runs: list[CliRun] = []
    evals: list[float] = []
    observed: set[tuple[int, int]] = set()

    def set_up() -> None:
        r = launch(list(w.setup))
        out.check("setup call", [] if r.exit_code == 0 else [f"exit code {r.exit_code}: {r.stderr.strip()}"])
        setups.append(r.wall_s)

    start = perf_counter()
    pairs: list[float] = []  # wall time of each set-up call and timed run
    # stop before the next pair would end past `seconds`
    while len(runs) < MIN_RUNS or perf_counter() - start + median(pairs) <= seconds:
        t0 = perf_counter()
        set_up()
        r = launch(w.argv(seed))
        pairs.append(perf_counter() - t0)
        problems = check_report(w, seed, r.exit_code, r.stdout, refs)
        if runs and r.stdout != runs[0].stdout:
            problems.append("report differs from the first run's")
        if problems and r.stderr.strip():
            problems.append(r.stderr.strip().splitlines()[-1])
        out.check(f"run {len(runs) + 1}", problems)
        runs.append(r)
        try:
            report = json.loads(r.stdout)["report"]
            evals.append(map_count(report) * w.vertices_per_map / r.wall_s)
            observed.add((r.exit_code, failed_comparisons(report)))
        except (ValueError, KeyError, TypeError):
            evals.append(0.0)
    for exit_code, bad in sorted(observed):
        if exit_code != 0 or bad:
            out.lines.append(f"observation: exit code {exit_code}, {bad} theory comparisons not passed")

    samples = {
        "wall_s": [r.wall_s for r in runs],
        "cpu_s": [r.cpu_s for r in runs],
        "evals_per_s": evals,
        "setup_s": setups,
        "peak_rss_mb": [r.rss_mb for r in runs],
    }
    for name, values in samples.items():
        q1, q2, q3 = quartiles(values)
        out.lines.append(
            f"{w.name} {name} = {q2:.6g} {END_TO_END_UNITS[name]} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"
        )
    attempted, failed = out.attempted - attempted0, out.failed - failed0
    out.lines.append(f"{w.name} failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} CLI calls)")
    metrics = {name: median(values) for name, values in samples.items()}
    metrics["ok_ratio"] = 1 - failed / attempted
    return metrics


def run_traced(w: Workload, seed: int, tmp: Path, launch: Launcher, refs: dict, out: Outcome) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    metrics, checks, info = replay(w, seed, tmp, refs, launch)
    for label, problems in checks:
        out.check(label, problems)
    out.lines += [f"{w.name} {line}" for line in info]
    out.lines += [f"{w.name} {name} = {v:.6g} {PER_LAYER_UNITS[name]}" for name, v in metrics.items()]
    return metrics


def metadata() -> dict:
    """Context for the figures; not gated."""
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_lines": src_lines,
    }


def _result(out: Outcome, metrics: dict, units: dict) -> dict:
    return {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "fqdyn" / "__init__.py").is_file():
        print(f"error: no fqdyn package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    refs = load_references()
    out = Outcome()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp_name:
        tmp = Path(tmp_name)
        launch = Launcher(tmp, deadline)
        try:
            if args.workload == "all":
                result = _all(args.seed, args.seconds, tmp, launch, refs, out)
            else:
                w = WORKLOADS[args.workload]
                if args.trace:
                    metrics = run_traced(w, args.seed, tmp, launch, refs, out)
                    result = _result(out, metrics, PER_LAYER_UNITS)
                else:
                    metrics = measure(w, args.seed, args.seconds, launch, refs, out)
                    result = _result(out, metrics, END_TO_END_UNITS)
        except TimeoutError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    for line in out.lines:
        print(line)
    print("meta " + json.dumps(metadata(), sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _all(seed: int, seconds: float, tmp: Path, launch: Launcher, refs: dict, out: Outcome) -> dict:
    """Every workload untraced, then the traced run of every workload."""
    metrics, units = {}, {}
    for w in WORKLOADS.values():
        launch.deadline = perf_counter() + DEADLINE_S
        for name, v in measure(w, seed, seconds, launch, refs, out).items():
            metrics[f"{w.name}/{name}"], units[f"{w.name}/{name}"] = v, END_TO_END_UNITS[name]
    for w in WORKLOADS.values():
        launch.deadline = perf_counter() + DEADLINE_S
        for name, v in run_traced(w, seed, tmp, launch, refs, out).items():
            metrics[f"{w.name}/{name}"], units[f"{w.name}/{name}"] = v, PER_LAYER_UNITS[name]
    return _result(out, metrics, units)


if __name__ == "__main__":
    sys.exit(main())

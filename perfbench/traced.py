"""Traced replay of one workload, in process, for the per-layer metrics.

The workload's CLI call runs three times through `fqdyn.cli.run`:

1. at --jobs 1 with spans only around the calls the CLI makes into other
   modules (field construction, the census entry point, rendering);
2. the same at --jobs 2, for the parallel efficiency;
3. at --jobs 1 with spans also around every call the census makes into
   `fmaps` (index decoding, gcd) and `fgraph` (graph build, cycle scan).

Runs 1 and 2 carry too few spans to slow the census, so the entry-point
times come from them; run 3 gives the breakdown.  The three reports must
be byte-identical, which checks that neither the worker count nor the
tracing changes the output.  Exhaustive workloads then iterate the public
enumerator over the same space, counting raw candidates and accepted maps
against their closed forms.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter
from typing import Callable

from spans import Tracer, layer_times, patched
from statistics import median
from workloads import JOBS, Workload, check_report, map_count

PER_LAYER_UNITS = {
    "ffield.make_field_s": "s",
    "ffield.table_entries": "count",
    "fmaps.enumerate_s": "s",
    "fmaps.raw_pairs": "count",
    "fmaps.maps_accepted": "count",
    "fmaps.accept_ratio": "ratio",
    "fgraph.build_graph_s": "s",
    "fgraph.cycle_census_s": "s",
    "fgraph.vertices": "count",
    "baseline.sample_s": "s",
    "census.run_s": "s",
    "census.self_s": "s",
    "census.run_jobs2_s": "s",
    "census.parallel_efficiency": "ratio",
    "reportio.render_s": "s",
    "cli.startup_s": "s",
}

# the census entry points, looked up where the CLI calls them
ENTRIES = {
    "poly_census": "census.poly_census",
    "rat_census": "census.rat_census",
    "sampled_census": "census.sampled_census",
    "baseline_census": "baseline.baseline_census",
}
# fmaps functions the census calls per enumeration index
DECODERS = ("poly_exactly_at", "poly_at_most_at", "monic_poly_at", "poly_gcd", "canonicalize_rational")
STARTUP_ARGV = ("theory", "--p", "2", "--d", "1")
STARTUP_REPEATS = 5


class _Replay:
    def __init__(self, w: Workload, seed: int, tmp: Path, refs: dict) -> None:
        from fqdyn import baseline, census, cli

        self.w, self.seed, self.tmp, self.refs = w, seed, tmp, refs
        self.baseline, self.census, self.cli = baseline, census, cli
        self.checks: list[tuple[str, list[str]]] = []
        self.ctx = None
        self.report = None
        self.vertices = 0

    def _keep_ctx(self, args, ctx) -> None:
        self.ctx = ctx

    def _keep_report(self, args, report) -> None:
        self.report = report

    def _count_vertices(self, args, stats) -> None:
        self.vertices += args[0].size

    def run(self, jobs: int, deep: bool) -> tuple[Tracer, str]:
        cli, census = self.cli, self.census
        tracer = Tracer()
        targets = [
            (cli, "make_field", tracer.wrap("ffield.make_field", cli.make_field, self._keep_ctx)),
            (cli, "render_json", tracer.wrap("reportio.render_json", cli.render_json)),
        ]
        targets += [
            (cli, attr, tracer.wrap(name, getattr(cli, attr), self._keep_report))
            for attr, name in ENTRIES.items()
        ]
        if deep:
            scan = tracer.wrap("fgraph.cycle_census", census.cycle_census, self._count_vertices)
            targets += [
                (census, "build_graph", tracer.wrap("fgraph.build_graph", census.build_graph)),
                (census, "cycle_census", scan),
                (self.baseline, "cycle_census", scan),
            ]
            targets += [
                (census, attr, tracer.wrap(f"fmaps.{attr}", getattr(census, attr))) for attr in DECODERS
            ]
        out = self.tmp / f"traced-jobs{jobs}{'-deep' if deep else ''}.json"
        with patched(targets), tracer.span("cli.run"):
            exit_code = cli.run([*self.w.argv(self.seed, jobs), "--output", str(out)])
        text = out.read_text(encoding="utf-8")
        self.check(f"report at --jobs {jobs}", check_report(self.w, self.seed, exit_code, text, self.refs))
        return tracer, text

    def check(self, label: str, problems: list[str]) -> None:
        self.checks.append((label, problems))

    def count_enumeration(self) -> dict:
        """Iterate the public enumerator over the workload's whole space."""
        from fqdyn import fmaps

        w = self.w
        gen, decoder = (
            ("enumerate_polys", "poly_exactly_at")
            if w.family == "poly"
            else ("enumerate_rationals", "poly_at_most_at")
        )
        raw = [0]
        decode = getattr(fmaps, decoder)

        def counted(*args):
            raw[0] += 1
            return decode(*args)

        with patched([(fmaps, decoder, counted)]):
            t0 = perf_counter()
            accepted = sum(1 for _ in getattr(fmaps, gen)(self.ctx, w.d, "exactly"))
            elapsed = perf_counter() - t0
        expected = w.expected_counts()
        problems = [
            f"{key} = {got}, closed form {expected[key]}"
            for key, got in (("raw_pairs", raw[0]), ("maps_accepted", accepted))
            if got != expected[key]
        ]
        if w.family == "rational":
            from fqdyn.theory import rat_count

            if accepted != rat_count(w.q, w.d, "exactly"):
                problems.append(f"maps_accepted = {accepted}, rat_count {rat_count(w.q, w.d, 'exactly')}")
        self.check("enumeration counts", problems)
        return {"fmaps.enumerate_s": elapsed, "fmaps.raw_pairs": raw[0], "fmaps.maps_accepted": accepted}

    def sample(self) -> float:
        """sample_random_map at the workload's size, once per sample."""
        size, draws = self.w.vertices_per_map, self.w.samples
        t0 = perf_counter()
        for i in range(draws):
            self.baseline.sample_random_map(size, self.seed * draws + i)
        return perf_counter() - t0


def _entry(times: dict) -> dict:
    fired = [times[name] for name in ENTRIES.values() if name in times]
    if len(fired) != 1:
        raise RuntimeError(f"expected one census entry point per run, saw {len(fired)}")
    return fired[0]


def _get(times: dict, name: str, key: str = "total_s") -> float:
    return times[name][key] if name in times else 0.0


def replay(w: Workload, seed: int, tmp: Path, refs: dict, launch: Callable) -> tuple[dict, list, list[str]]:
    """Per-layer metrics, checks [(label, problems)] and info lines.

    launch(argv) runs the CLI in a subprocess and returns a result with
    wall_s and exit_code.
    """
    r = _Replay(w, seed, tmp, refs)
    shallow, text1 = r.run(1, deep=False)
    jobs2, text2 = r.run(JOBS, deep=False)
    deep, text3 = r.run(1, deep=True)
    r.check("--jobs 1 and --jobs 2 reports byte-identical", [] if text1 == text2 else ["reports differ"])
    r.check("reports byte-identical with deep tracing", [] if text1 == text3 else ["reports differ"])

    t1 = layer_times(shallow.spans())
    t3 = layer_times(deep.spans())
    entry1, entry3 = _entry(t1), _entry(t3)
    run_s = entry1["total_s"]
    run_jobs2_s = _entry(layer_times(jobs2.spans()))["total_s"]

    t0 = perf_counter()
    r.cli.render_csv(r.report)
    render_s = _get(t1, "reportio.render_json") + perf_counter() - t0

    maps = map_count(r.report.to_jsonable())
    scans = _get(t3, "fgraph.cycle_census", "count")
    r.check(
        "scanned graphs and vertices match the report",
        []
        if scans == maps and r.vertices == maps * w.vertices_per_map
        else [f"{scans} scans, {r.vertices} vertices for {maps} maps"],
    )

    metrics = {
        "ffield.make_field_s": _get(t1, "ffield.make_field"),
        "ffield.table_entries": sum(
            len(getattr(r.ctx, t, None) or ()) for t in ("exp_table", "log_table", "zech_table")
        ),
        "fmaps.enumerate_s": 0.0,
        "fmaps.raw_pairs": 0,
        "fmaps.maps_accepted": 0,
        "fgraph.build_graph_s": _get(t3, "fgraph.build_graph"),
        "fgraph.cycle_census_s": _get(t3, "fgraph.cycle_census"),
        "fgraph.vertices": r.vertices,
        "baseline.sample_s": r.sample() if w.family is None else 0.0,
        "census.run_s": run_s,
        "census.self_s": entry3["self_s"],
        "census.run_jobs2_s": run_jobs2_s,
        "census.parallel_efficiency": run_s / (JOBS * run_jobs2_s),
        "reportio.render_s": render_s,
    }
    if w.family is not None and w.samples is None:
        metrics.update(r.count_enumeration())
    raw = metrics["fmaps.raw_pairs"]
    metrics["fmaps.accept_ratio"] = metrics["fmaps.maps_accepted"] / raw if raw else 0.0

    startup = []
    for _ in range(STARTUP_REPEATS):
        call = launch(list(STARTUP_ARGV))
        r.check("trivial CLI call", [] if call.exit_code == 0 else [f"exit code {call.exit_code}"])
        startup.append(call.wall_s)
    metrics["cli.startup_s"] = median(startup)

    info = [
        f"tracing overhead: deep-traced entry {entry3['total_s']:.3f} s vs {run_s:.3f} s untraced inside",
        f"deep run spans: {sum(row['count'] for row in t3.values())}",
    ]
    return {name: metrics[name] for name in PER_LAYER_UNITS}, r.checks, info

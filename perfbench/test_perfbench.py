"""Tests of the benchmark's own logic: order statistics, report checks and
span self-time arithmetic.  Run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import copy
import json
import statistics

import pytest

from run import quartiles
from spans import Tracer, layer_times, patched
from workloads import WORKLOADS, check_report, load_references


def test_quartiles_match_statistics_and_center_on_the_median():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles(values)[1] == statistics.median(values) == 4.0
    assert quartiles([3.0, 1.0]) == tuple(statistics.quantiles([3.0, 1.0], n=4))
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_layer_times_subtracts_direct_children_only():
    spans = [
        ("cli.run", 0, 100, -1),
        ("census.run", 10, 90, 0),
        ("fgraph.build_graph", 20, 40, 1),
        ("fgraph.cycle_census", 40, 70, 1),
        ("fgraph.build_graph", 75, 80, 1),
        ("reportio.render_json", 92, 99, 0),
    ]
    t = layer_times(spans)
    assert t["cli.run"]["self_s"] == pytest.approx((100 - 80 - 7) / 1e9)
    assert t["census.run"]["total_s"] == pytest.approx(80 / 1e9)
    assert t["census.run"]["self_s"] == pytest.approx((80 - 20 - 30 - 5) / 1e9)
    assert t["fgraph.build_graph"]["count"] == 2
    assert t["fgraph.build_graph"]["self_s"] == pytest.approx(25 / 1e9)
    # self times partition the top-level span
    assert sum(row["self_s"] for row in t.values()) == pytest.approx(t["cli.run"]["total_s"])


def test_tracer_records_parents_and_restores_patches():
    class Mod:
        @staticmethod
        def leaf(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Mod.leaf(x) * 2

    tracer = Tracer()
    seen = []
    original = Mod.leaf
    targets = [
        (Mod, "leaf", tracer.wrap("m.leaf", Mod.leaf, lambda args, r: seen.append((args, r)))),
        (Mod, "outer", tracer.wrap("m.outer", Mod.outer)),
    ]
    with patched(targets), tracer.span("top"):
        assert Mod.outer(1) == 4
    assert Mod.leaf is original
    assert seen == [((1,), 2)]
    spans = list(tracer.spans())
    assert [(s[0], s[3]) for s in spans] == [("top", -1), ("m.outer", 0), ("m.leaf", 1)]
    assert all(start <= end for _, start, end, _ in spans)


def _poly_exhaustive_report(refs: dict) -> str:
    payload = copy.deepcopy(refs["poly-exhaustive"]["pinned"]["*"])
    payload["theory_comparison"] = [{"name": "poly_avg_k_exact", "k": 1, "status": "pass"}]
    return json.dumps({"report": payload})


def test_check_report_accepts_the_pinned_payload():
    refs = load_references()
    w = WORKLOADS["poly-exhaustive"]
    assert check_report(w, 7, 0, _poly_exhaustive_report(refs), refs) == []


@pytest.mark.parametrize(
    "corrupt, exit_code",
    [
        (lambda r: r["avg_components"].update(num=str(int(r["avg_components"]["num"]) + 1)), 0),
        (lambda r: r.update(map_count=r["map_count"] - 1), 0),
        (lambda r: r["theory_comparison"][0].update(status="fail"), 0),
        (lambda r: None, 1),
    ],
)
def test_check_report_counts_a_corrupted_report_as_failed(corrupt, exit_code):
    refs = load_references()
    w = WORKLOADS["poly-exhaustive"]
    doc = json.loads(_poly_exhaustive_report(refs))
    corrupt(doc["report"])
    assert check_report(w, 0, exit_code, json.dumps(doc), refs)
    assert check_report(w, 0, 0, "not json", refs)


def test_sampled_check_uses_pinned_seed_then_closed_form():
    refs = load_references()
    w = WORKLOADS["bigfield-sampled"]
    pinned = copy.deepcopy(refs[w.name]["pinned"]["0"])
    text = json.dumps({"report": pinned})
    # the known defect: exit 1 is allowed on this workload
    assert check_report(w, 0, 1, text, refs) == []
    assert check_report(w, 0, 2, text, refs)
    # the same payload under an unpinned seed fails only its seed echo
    unpinned = 10**9
    problems = check_report(w, unpinned, 0, text, refs)
    assert problems == ["sample count or seed echo is wrong"]
    pinned["seed"] = unpinned
    assert check_report(w, unpinned, 0, json.dumps({"report": pinned}), refs) == []
    pinned["avg_k_cycles"]["1"] = {"num": "50", "den": "1"}
    assert check_report(w, unpinned, 0, json.dumps({"report": pinned}), refs)


def test_closed_form_counts():
    assert WORKLOADS["rat-exhaustive"].expected_counts() == {"raw_pairs": 19551, "maps_accepted": 16464}
    assert WORKLOADS["poly-exhaustive"].expected_counts() == {"raw_pairs": 52488, "maps_accepted": 52488}

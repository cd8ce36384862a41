"""Acceptance gate: twelve criteria, one test and one printed verdict
line each.

Each criterion is checked with exact arithmetic wherever the statement
is exact; the two stochastic criteria (10 and 12) use the pinned
five-sigma band and the pinned [0.5 sqrt(q), 3 sqrt(q)] band at seed 0.
Verdict lines go to stdout, so they appear in captured output on
failure and under pytest -s; the per-test PASSED/FAILED line from
pytest -v mirrors them.
"""

import json
import os
import math
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb

from fqdyn.baseline import baseline_census
from fqdyn.census import (
    cycle_totals_at_most,
    enumerate_S,
    poly_census,
    random_constraint_instance,
    rat_census,
    rho_experiment,
    solution_count_case,
)
from fqdyn.ffield import make_field
from fqdyn.fgraph import cycle_census
from fqdyn.fmaps import enumerate_rationals, poly_mul
from fqdyn.seeding import per_index_rng
from fqdyn.theory import (
    poly_avg_k,
    poly_component_bounds,
    poly_cycle_sum,
    poly_periodic_lower,
    quad_graph_stats,
    random_map_stats,
    rat_avg_k_bounds,
    rat_count,
    rat_k_cycle_total_bounds,
    rat_periodic_lower,
)
from oracles import enumerate_quadratic_graphs

JOBS = os.cpu_count() or 1


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed{tail}"


@lru_cache(maxsize=None)
def field(p: int, n: int = 1):
    return make_field(p, n)


@lru_cache(maxsize=None)
def pcensus(p: int, n: int, d: int):
    return poly_census(field(p, n), d)


@lru_cache(maxsize=None)
def rcensus(p: int, n: int, d: int):
    return rat_census(field(p, n), d)


FIELDS_Q2345 = [(2, 1), (3, 1), (2, 2), (5, 1)]  # q = 2, 3, 4, 5
FIELDS_Q235 = [(2, 1), (3, 1), (5, 1)]
FIELDS_Q357 = [(3, 1), (5, 1), (7, 1)]


def test_criterion_01_poly_cycle_totals_exact():
    checked = 0
    for p, n in FIELDS_Q2345:
        ctx = field(p, n)
        for d, (totals, count) in enumerate(cycle_totals_at_most(ctx, 3, "poly")):
            assert count == ctx.q ** (d + 1)
            for k in range(1, d + 2):
                assert totals.get(k, 0) == poly_cycle_sum(ctx.q, d, k), (ctx.q, d, k)
                checked += 1
    verdict(1, "poly k-cycle totals equal closed form", True, f"{checked} (q,d,k) cells")


def test_criterion_02_poly_avg_k_exact():
    checked = 0
    for p, n in FIELDS_Q2345:
        q = field(p, n).q
        for d in range(4):
            rep = pcensus(p, n, d)
            # k <= d (both sides are zero when k > q), plus the (0,1) cell
            ks = range(1, d + 1) if d >= 1 else (1,)
            for k in ks:
                assert rep.avg_k_cycles.get(k, Fraction(0)) == poly_avg_k(q, d, k), (q, d, k)
                checked += 1
    verdict(2, "poly per-k averages equal closed form", True, f"{checked} exact equalities")


def test_criterion_03_poly_component_lower_tightness():
    tight = pcensus(2, 1, 2)
    b2 = poly_component_bounds(2, 2)
    assert tight.avg_components == Fraction(5, 4) == b2.lower
    assert b2.lower_is_tight
    loose = pcensus(5, 1, 2)
    b5 = poly_component_bounds(5, 2)
    assert loose.avg_components > b5.lower
    verdict(
        3,
        "component lower bound tight at d >= q, strict below",
        True,
        f"5/4 == 5/4 at q=2; {loose.avg_components} > {b5.lower} at q=5",
    )


def test_criterion_04_rational_map_counts():
    checked = 0
    for p, n in FIELDS_Q235:
        ctx = field(p, n)
        for d in range(3):
            for mode in ("at_most", "exactly"):
                observed = sum(1 for _ in enumerate_rationals(ctx, d, mode))
                assert observed == rat_count(ctx.q, d, mode), (ctx.q, d, mode)
                checked += 1
    verdict(4, "rational map counts equal closed forms", True, f"{checked} (q,d,mode) cells")


def test_criterion_05_k_cycle_total_sandwich():
    checked = 0
    for p, n in [(3, 1), (5, 1)]:
        ctx = field(p, n)
        q = ctx.q
        rows = cycle_totals_at_most(ctx, 2, "rational")
        for d in (1, 2):
            totals, _ = rows[d]
            for k in range(1, d + 2):
                if q <= k + 1:
                    continue
                b = rat_k_cycle_total_bounds(q, d, k)
                obs = totals.get(k, 0)
                assert b.lower < obs < b.upper, (q, d, k, obs, b)
                checked += 1
    verdict(5, "k-cycle totals strictly inside sandwich", True, f"{checked} strict double inequalities")


def test_criterion_06_rational_avg_k_bounds():
    checked = 0
    for p, n in FIELDS_Q357:
        q = field(p, n).q
        for d in (1, 2):
            rep = rcensus(p, n, d)
            for k in range(1, d + 1):
                b = rat_avg_k_bounds(q, d, k)
                avg = rep.avg_k_cycles.get(k, Fraction(0))
                assert b.lower < avg < b.upper, (q, d, k)
                checked += 1
            top = rat_avg_k_bounds(q, d, d + 1)
            avg = rep.avg_k_cycles.get(d + 1, Fraction(0))
            assert avg < top.upper, (q, d)
            checked += 1
    verdict(6, "rational per-k averages within bounds", True, f"{checked} bound checks incl k=d+1")


def test_criterion_07_periodic_point_lower_bounds():
    checked = 0
    for p, n in FIELDS_Q2345:
        q = field(p, n).q
        for d in range(4):
            rep = pcensus(p, n, d)
            assert rep.avg_periodic >= poly_periodic_lower(q, d), ("poly", q, d)
            checked += 1
    for p, n in FIELDS_Q357:
        q = field(p, n).q
        for d in (1, 2):
            rep = rcensus(p, n, d)
            assert rep.avg_periodic >= rat_periodic_lower(q, d), ("rat", q, d)
            checked += 1
    verdict(7, "average periodic points meet lower bounds", True, f"{checked} (family,q,d) cells")


def test_criterion_08_interpolation_case_table():
    instances = 0
    by_case = {"exactly": 0, "at_most_one": 0}
    for p, n in FIELDS_Q235:
        ctx = field(p, n)
        for i in range(70):
            rng = per_index_rng(8, i)
            g0, g1, betas, gammas = random_constraint_instance(ctx, rng)
            assert len(poly_mul(ctx, g0, g1)) - 1 <= 5
            case, e = solution_count_case(ctx, g0, g1, betas)
            count = enumerate_S(ctx, g0, g1, betas, gammas)
            if case == "exactly":
                assert count == ctx.q**e, (ctx.q, g0, g1, betas, gammas)
            else:
                assert count <= 1, (ctx.q, g0, g1, betas, gammas)
            by_case[case] += 1
            instances += 1
    assert instances >= 200
    assert by_case["exactly"] > 0 and by_case["at_most_one"] > 0
    verdict(8, "interpolation-family counts match case table", True, f"{by_case} over {instances} instances")


def test_criterion_09_quadratic_graph_averages():
    for (m, t), want in [((2, 2), Fraction(5, 3)), ((2, 3), Fraction(11, 5))]:
        graphs = list(enumerate_quadratic_graphs(m, t))
        avg = Fraction(sum(sum(cycle_census(g)) for g in graphs), len(graphs))
        assert avg == want
        assert avg == quad_graph_stats(m, t).avg_periodic
        # summation form, written out independently
        s = sum(m**k * comb(m * t - k, t - k) for k in range(t + 1))
        assert avg == Fraction(s, comb(m * t, t)) - 1
        # closed form specific to m = 2
        assert avg == Fraction(4**t, comb(2 * t, t)) - 1
    rep13 = baseline_census("quadratic", m=1, t=3)
    assert rep13.avg_periodic == 3
    verdict(9, "quadratic-graph averages equal all three forms", True, "5/3, 11/5, and 3 exact")


def test_criterion_10_random_baseline():
    rep = baseline_census("random", n=4)
    th = random_map_stats(4)
    assert rep.avg_components == Fraction(195, 128) == th.components_exact
    assert rep.avg_periodic == th.periodic_exact
    sampled = baseline_census("random", n=1000, samples=10**4, seed=0, jobs=JOBS)
    th1000 = random_map_stats(1000)
    zc = float(sampled.avg_components - th1000.components_exact) / sampled.stderr_components
    zp = float(sampled.avg_periodic - th1000.periodic_exact) / sampled.stderr_periodic
    assert abs(zc) <= 5 and abs(zp) <= 5, (zc, zp)
    verdict(10, "random baseline exact at n=4, 5-sigma at n=1000", True, f"z_components={zc:+.2f}, z_periodic={zp:+.2f}")


def test_criterion_11_parallel_byte_identity():
    outputs = set()
    for jobs in ("1", "2", "8"):
        proc = subprocess.run(
            [sys.executable, "-m", "fqdyn", "census", "--family", "poly",
             "--p", "5", "--n", "1", "--d", "2", "--jobs", jobs, "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    doc = json.loads(next(iter(outputs)))
    assert doc["report"]["avg_components"] == {"num": "8", "den": "5"}
    verdict(11, "census JSON byte-identical across jobs {1,2,8}", True, f"{len(next(iter(outputs)))} bytes")


def test_criterion_12_rho_diagnostic_band():
    p = 10007
    summary = rho_experiment(field(p), 2, "poly", 1000, seed=0, jobs=JOBS)
    mean = float(summary.mean_rho)
    low, high = 0.5 * math.sqrt(p), 3.0 * math.sqrt(p)
    # the CLI treats a miss as non-gating unless --strict-rho is passed;
    # here the band itself is the criterion
    assert low <= mean <= high, (low, mean, high)
    assert sum(summary.histogram.values()) == 1000
    verdict(12, "mean rho length inside diagnostic band", True, f"{mean:.2f} in [{low:.1f}, {high:.1f}]")

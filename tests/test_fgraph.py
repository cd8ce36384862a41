"""Cycle census, the sums derived from cycle types, and rho walks
against naive oracles."""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from fqdyn.census import cycle_sums
from fqdyn.ffield import make_field
from fqdyn.fgraph import FunctionalGraph, brent_rho, build_graph, cycle_census
from fqdyn.fmaps import CONSTANT_INFINITY, canonicalize_rational, enumerate_polys, enumerate_rationals

from oracles import (
    oracle_components,
    oracle_cycle_lengths,
    oracle_cycle_type,
    oracle_periodic_points,
    oracle_rho,
    per_map_sums,
)

F3 = make_field(3)
F5 = make_field(5)


def test_build_graph_examples():
    g = build_graph(F5, (0, 0, 1))  # x^2
    assert g.size == 5 and g.succ == (0, 1, 4, 4, 1)
    r = canonicalize_rational(F3, (1,), (0, 1))  # 1/x
    gr = build_graph(F3, r)
    assert gr.size == 4 and gr.succ == (3, 1, 2, 0)
    gi = build_graph(F5, CONSTANT_INFINITY)
    assert gi.succ == (5, 5, 5, 5, 5, 5)


def test_cycle_census_examples():
    t = cycle_census(build_graph(F5, (0, 0, 1)))
    assert t == (1, 1)
    assert len(t) == 2
    assert sum(t) == 2
    assert Counter(t) == {1: 2}

    t = cycle_census(build_graph(F3, (1, 1)))  # x + 1, one 3-cycle
    assert t == (3,)
    assert len(t) == 1
    assert sum(t) == 3
    assert Counter(t) == {3: 1}

    t = cycle_census(build_graph(F5, (2,)))  # constant
    assert t == (1,)
    assert len(t) == 1
    assert sum(t) == 1
    assert Counter(t) == {1: 1}


def test_rho_length_examples():
    sq = build_graph(F5, (0, 0, 1)).succ
    const = build_graph(F5, (2,)).succ
    # (succ, start, (tail, cycle)): 3 -> 4 -> 1 -> 1 gives tail 2, cycle 1
    cases = [(sq, 3, (2, 1)), (sq, 0, (0, 1)), (const, 0, (1, 1)), (const, 2, (0, 1))]
    for succ, start, expected in cases:
        assert oracle_rho(list(succ), start) == expected
        assert brent_rho(lambda v: succ[v], start) == expected


def test_stats_internal_invariants_exhaustive_small():
    # every polynomial map for q <= 5, d <= 2, and every rational map at q = 3, d = 1
    for ctx in (make_field(2), F3, make_field(2, 2), F5):
        for d in (0, 1, 2):
            for f in enumerate_polys(ctx, d, "exactly"):
                t = cycle_census(build_graph(ctx, f))
                assert list(t) == sorted(t) and t and min(t) >= 1
                assert len(t) == sum(Counter(t).values())
                assert sum(k * c for k, c in Counter(t).items()) == sum(t)
    for r in enumerate_rationals(F3, 1, "at_most"):
        t = cycle_census(build_graph(F3, r))
        assert list(t) == sorted(t) and t and min(t) >= 1
        assert len(t) == sum(Counter(t).values())


def test_census_matches_oracles_exhaustive():
    for ctx in (F3, F5):
        for f in enumerate_polys(ctx, 2, "exactly"):
            g = build_graph(ctx, f)
            t = cycle_census(g)
            succ = list(g.succ)
            lengths = oracle_cycle_lengths(succ)
            assert t == oracle_cycle_type(lengths)
            assert len(t) == oracle_components(succ)
            assert sum(t) == len(oracle_periodic_points(succ))
            assert Counter(t) == lengths


def test_census_matches_oracles_random_graphs():
    rng = random.Random(2024)
    for _ in range(200):
        size = rng.randrange(1, 64)
        succ = [rng.randrange(size) for _ in range(size)]
        g = FunctionalGraph(tuple(succ))
        t = cycle_census(g)
        lengths = oracle_cycle_lengths(succ)
        assert t == oracle_cycle_type(lengths)
        assert len(t) == oracle_components(succ)
        periodic = oracle_periodic_points(succ)
        assert sum(t) == len(periodic)
        assert Counter(t) == lengths
        start = rng.randrange(size)
        assert brent_rho(lambda v: succ[v], start) == oracle_rho(succ, start)


def test_permutation_graphs_fully_periodic():
    rng = random.Random(5)
    for _ in range(30):
        size = rng.randrange(1, 50)
        perm = list(range(size))
        rng.shuffle(perm)
        t = cycle_census(FunctionalGraph(tuple(perm)))
        assert sum(t) == size


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 200), min_size=1, max_size=48), st.data())
def test_rho_tail_plus_cycle_is_distinct_visits(raw: list[int], data):
    size = len(raw)
    succ = [v % size for v in raw]
    start = data.draw(st.integers(0, size - 1))
    tail, cyc = brent_rho(lambda v: succ[v], start)
    seen = set()
    v = start
    while v not in seen:
        seen.add(v)
        v = succ[v]
    assert tail + cyc == len(seen)
    assert (tail, cyc) == oracle_rho(succ, start)


@st.composite
def successor_tables(draw, max_size: int = 64) -> list[int]:
    """Any self-map of 1..max_size points, with permutations and constant
    maps drawn on purpose since they are the edge cases of the cycle walk."""
    size = draw(st.integers(1, max_size))
    kind = draw(st.sampled_from(("any", "permutation", "constant")))
    if kind == "permutation":
        return draw(st.permutations(range(size)))
    if kind == "constant":
        return [draw(st.integers(0, size - 1))] * size
    return draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))


@settings(max_examples=300, deadline=None)
@given(successor_tables())
def test_census_agrees_with_oracles_on_drawn_tables(succ: list[int]):
    # components equal cycles in a functional graph; the census counts
    # cycles only, so the BFS component oracle is the independent check
    t = cycle_census(FunctionalGraph(tuple(succ)))
    lengths = oracle_cycle_lengths(succ)
    assert t == oracle_cycle_type(lengths)
    assert len(t) == oracle_components(succ)
    assert sum(t) == len(oracle_periodic_points(succ))
    assert Counter(t) == lengths


@settings(max_examples=100, deadline=None)
@given(st.lists(successor_tables(max_size=12), min_size=1, max_size=6), st.data())
def test_sums_by_cycle_type_equal_per_map_sums(tables: list[list[int]], data):
    """Sums derived once per cycle type, each weighted by its map count,
    equal the same sums added map by map, squares included.  The maps
    repeat drawn tables, and small tables share types, so types carry
    weights above 1."""
    maps = data.draw(st.lists(st.sampled_from(tables), min_size=1, max_size=24))
    kmax = data.draw(st.integers(0, 13))
    types = Counter(cycle_census(FunctionalGraph(tuple(s))) for s in maps)
    assert cycle_sums(types, kmax) == per_map_sums([oracle_cycle_lengths(s) for s in maps], kmax)

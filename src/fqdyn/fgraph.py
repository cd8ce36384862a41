"""Functional graphs of self-maps and their cycle statistics.

A functional graph is its successor tuple: vertex v goes to succ[v],
and its size is len(succ).  It has one outgoing edge per vertex, so
every weakly connected component contains exactly one cycle: the
component count is the cycle count, and the periodic points are the
vertices on cycles.  The census below therefore needs only the cycles,
which lie in the image, so it walks from the image vertices alone, in
O(size) steps.  It returns the map's cycle type, the sorted tuple of its
cycle lengths: every statistic a census reports (components, periodic
points, k-cycles) is a function of it, so a census counts maps per type
and derives the sums once per type (census.cycle_sums).

build_graph reads a sampled map's values at every point off whole value
columns (fmaps.poly_values), a rational map's from one numerator and one
denominator column.  Exhaustive censuses build their successor tables
from running sums of the same columns (census._column_runs) and wrap
them in FunctionalGraph directly, one immutable slots record
(ffield.Frozen) per map, which every cycle_census call takes.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from .ffield import FieldCtx, Frozen
from .fmaps import Poly, RationalMap, eval_rational, poly_values

T = TypeVar("T")


class FunctionalGraph(Frozen):
    """Vertex v goes to succ[v]; the vertices are range(len(succ)).

    An exhaustive census wraps every successor table it builds, so the
    constructor stores succ through the slot's own setter, the cheapest
    store that leaves the field immutable.
    """

    __slots__ = ("succ",)

    def __init__(self, succ: tuple[int, ...]) -> None:
        _store_succ(self, succ)

    @property
    def size(self) -> int:
        return len(self.succ)


_store_succ = FunctionalGraph.succ.__set__


def build_graph(ctx: FieldCtx, m: Poly | RationalMap) -> FunctionalGraph:
    """Vertex set F_q for a polynomial, P^1(F_q) for a rational map.

    Infinity sits at index q, always last.  A rational map divides its
    numerator's values by its denominator's, a point where the denominator
    vanishes going to infinity (everywhere for the constant-infinity map,
    whose denominator is 0); infinity goes where eval_rational sends it.
    """
    if not isinstance(m, RationalMap):
        return FunctionalGraph(poly_values(ctx, m))
    inf = ctx.q
    nums, dens = poly_values(ctx, m.num), poly_values(ctx, m.den)
    succ = [ctx.mul(n, ctx.inv(v)) if v else inf for n, v in zip(nums, dens)]
    return FunctionalGraph((*succ, eval_rational(ctx, m, inf)))


def cycle_census(g: FunctionalGraph) -> tuple[int, ...]:
    """The cycle type of g, its cycle lengths in ascending order.

    Every cycle vertex is some vertex's image, so walks start only at the
    values succ[v], each marking the vertices it visits with its start s.
    A walk that reaches its own mark has closed a new cycle, whose length
    is counted by going once around it; a walk that reaches an older mark
    has joined a component already counted.
    """
    succ = g.succ
    mark: list[int | None] = [None] * len(succ)
    lengths: list[int] = []
    for s in succ:
        if mark[s] is not None:
            continue
        v = s
        while mark[v] is None:
            mark[v] = s
            v = succ[v]
        if mark[v] == s:
            length, u = 1, succ[v]
            while u != v:
                length, u = length + 1, succ[u]
            lengths.append(length)
    lengths.sort()
    return tuple(lengths)


def brent_rho(f: Callable[[T], T], start: T) -> tuple[int, int]:
    """(tail, cycle) of iterating f from start, no graph materialized.

    Brent's power-doubling search; O(tail + cycle) evaluations.
    """
    power = lam = 1
    tortoise = start
    hare = f(start)
    while tortoise != hare:
        if power == lam:
            tortoise = hare
            power *= 2
            lam = 0
        hare = f(hare)
        lam += 1
    tortoise = hare = start
    for _ in range(lam):
        hare = f(hare)
    mu = 0
    while tortoise != hare:
        tortoise = f(tortoise)
        hare = f(hare)
        mu += 1
    return mu, lam

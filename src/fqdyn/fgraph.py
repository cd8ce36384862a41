"""Functional graphs of self-maps and their cycle statistics.

A functional graph is its successor tuple: vertex v goes to succ[v],
and its size is len(succ).  It has one outgoing edge per vertex, so
every weakly connected component contains exactly one cycle: the
component count is the cycle count, and the periodic points are the
vertices on cycles.  The census below therefore needs only the cycles,
which it finds in a single O(size) walk over the vertices.  It returns
the map's cycle type, the sorted tuple of its cycle lengths: every
statistic a census reports (components, periodic points, k-cycles) is a
function of it, so a census counts maps per type and derives the sums
once per type (census.cycle_sums).

build_graph reads a sampled map's values at every point off whole value
columns (fmaps.poly_values), a rational map's from one numerator and one
denominator column.  Exhaustive censuses build their successor tables
from running sums of the same columns (census._column_runs) and wrap
them in FunctionalGraph directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

from .ffield import FieldCtx
from .fmaps import Poly, RationalMap, eval_rational, poly_values

T = TypeVar("T")


@dataclass(frozen=True)
class FunctionalGraph:
    """Vertex v goes to succ[v]; the vertices are range(len(succ))."""

    succ: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.succ)


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
    """The cycle type of g, its cycle lengths in ascending order, in one
    walk over the vertices.

    Each walk marks the vertices it visits with its start (s + 1).  A walk
    that reaches its own mark has closed a new cycle, whose length is
    counted by going once around it; a walk that reaches an older mark has
    joined a component already counted.
    """
    succ = g.succ
    mark = [0] * len(succ)
    lengths: list[int] = []
    for s in range(len(succ)):
        if mark[s]:
            continue
        tag = s + 1
        v = s
        while not mark[v]:
            mark[v] = tag
            v = succ[v]
        if mark[v] == tag:
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

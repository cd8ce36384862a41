"""Whole value columns (fmaps.poly_values, build_graph) against Horner's
rule at each point (eval_poly, eval_rational)."""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

from fqdyn.ffield import TABLE_CAP, make_field
from fqdyn.fgraph import build_graph
from fqdyn.fmaps import (
    CONSTANT_INFINITY,
    RationalMap,
    enumerate_polys,
    enumerate_rationals,
    eval_poly,
    eval_rational,
    normalize_poly,
    poly_values,
)

# q = 2, characteristic-2 extensions, an odd-p extension, prime fields
# with tables on both sides of the q x q row-table size
FIELDS = [(2, 1), (2, 2), (2, 3), (2, 6), (3, 2), (5, 1), (7, 1), (257, 1)]
WHOLE_SPACE_MAX = 800  # spaces of polynomials of degree <= d up to this size are walked whole


@lru_cache(maxsize=None)
def field(p: int, n: int = 1):
    return make_field(p, n)


def horner(ctx, f):
    return tuple(eval_poly(ctx, f, x) for x in range(ctx.q))


def polys(ctx, d: int, count: int, rng):
    """Every polynomial of degree <= d when they are few, else a draw with
    zero coefficients mixed in."""
    if ctx.q ** (d + 1) <= WHOLE_SPACE_MAX:
        return list(enumerate_polys(ctx, d, "at_most"))
    return [normalize_poly([rng.choice((0, 1, rng.randrange(ctx.q))) for _ in range(d + 1)]) for _ in range(count)]


@pytest.mark.parametrize("p, n", FIELDS)
@pytest.mark.parametrize("d", [0, 1, 2, 4])
def test_poly_values_match_horner(p, n, d):
    ctx = field(p, n)
    rng = random.Random(p * 100 + n * 10 + d)
    for f in polys(ctx, d, 40, rng):
        assert poly_values(ctx, f) == horner(ctx, f), f


@pytest.mark.parametrize("p, n", FIELDS)
def test_poly_values_add_onto_a_base(p, n):
    ctx = field(p, n)
    rng = random.Random(p + n)
    for f in polys(ctx, 3, 20, rng):
        base = tuple(rng.randrange(ctx.q) for _ in range(ctx.q))
        want = tuple(ctx.add(b, v) for b, v in zip(base, horner(ctx, f)))
        assert poly_values(ctx, f, base) == want


def test_q_two_gives_two_values():
    """The log table of GF(2) has two entries, so itemgetter still returns a tuple."""
    ctx = field(2)
    assert poly_values(ctx, ()) == (0, 0)
    assert poly_values(ctx, (1,)) == (1, 1)
    assert poly_values(ctx, (0, 1)) == (0, 1)
    assert poly_values(ctx, (1, 1, 1)) == (1, 1)
    assert build_graph(ctx, (0, 1)).succ == (0, 1)


def test_zero_and_constant_polynomials():
    ctx = field(3, 2)
    assert poly_values(ctx, ()) == (0,) * 9
    assert poly_values(ctx, (5,)) == (5,) * 9
    assert poly_values(ctx, (0, 0, 0, 1)) == horner(ctx, (0, 0, 0, 1))  # x^3, no lower terms


@pytest.mark.parametrize("p, n", FIELDS)
def test_rational_graphs_match_horner(p, n):
    """Every canonical map of degree <= 1 where the space is small (the
    zero numerator, the constant-infinity map and denominators with roots
    among them), else a draw of degree-2 maps."""
    ctx = field(p, n)
    inf = ctx.q
    if ctx.q <= 9:
        maps = list(enumerate_rationals(ctx, 1, "at_most"))
        assert RationalMap((), (1,)) in maps and CONSTANT_INFINITY in maps
    else:
        rng = random.Random(p * n)
        maps = [RationalMap((rng.randrange(ctx.q), 0, 1), (c, rng.randrange(ctx.q), 1)) for c in (0, 1, 2)]
    for m in maps:
        want = tuple(eval_rational(ctx, m, x) for x in range(inf + 1))
        assert build_graph(ctx, m).succ == want, m
    assert any(inf in build_graph(ctx, m).succ[:inf] for m in maps)  # some denominator has a root


def test_prime_field_without_tables():
    """GF(65537) lies above the table cap: columns come from modular Horner.
    Horner checks every fifth point, the denominator's roots and infinity."""
    ctx = field(65537)
    assert ctx.q > TABLE_CAP and ctx.log_table is None
    minus_one = ctx.q - 1
    m = RationalMap((3, 0, 5), (minus_one, 0, 1))  # (5x^2 + 3) / (x^2 - 1)
    succ = build_graph(ctx, m).succ
    assert len(succ) == ctx.q + 1
    assert succ[1] == succ[minus_one] == ctx.q
    for x in [*range(0, ctx.q, 5), 1, minus_one, ctx.q]:
        assert succ[x] == eval_rational(ctx, m, x), x

"""Exhaustive successor tables from running column sums, against Horner.

The exhaustive census walks the maps of one exact degree and reads every
map's successors off value columns and addition-table rows.  A slot holds
one polynomial, or the rational maps over one monic denominator.  The
reference here decodes each slot on its own with the `fmaps` decoders,
keeps the coprime pairs of degree d by `poly_gcd`, evaluates each map at
every point by Horner's rule (`eval_poly`, `eval_rational`), scans it and
adds its statistics map by map (`oracles.per_map_sums`); the census
block's cycle-type tally must give the same sums over the same slots.
The census skips non-coprime pairs through a sieve built once per
denominator; the sieve is checked here against `poly_gcd`.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from fqdyn import census
from fqdyn.census import POLY, RATIONAL, CycleSums, _census_block, _split_blocks, cycle_sums
from fqdyn.ffield import FieldCtx, make_field
from fqdyn.fgraph import FunctionalGraph, cycle_census
from fqdyn.fmaps import (
    CONSTANT_INFINITY,
    RationalMap,
    eval_poly,
    eval_rational,
    monic_poly_at,
    poly_at_most_at,
    poly_exactly_at,
    poly_gcd,
)

from oracles import per_map_sums

FAMILIES = {"poly": POLY, "rational": RATIONAL}
# the acceptance gate's fields, then one extension field for p = 2 and one for p = 3
FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
WHOLE_SPACE_MAX = 4000  # decoded pairs per case walked whole; larger spaces get windows


@lru_cache(maxsize=None)
def field(p: int, n: int = 1):
    return make_field(p, n)


def horner_slot(ctx, family: str, d: int, i: int) -> list:
    """The maps of degree d in slot i, decoded alone: one polynomial, or
    the coprime maps over the i-th monic denominator of degree <= d, by
    degree and then in monic_poly_at order; at d = 0 the slot after the
    denominators holds the constant-infinity map."""
    if family == "poly":
        return [poly_exactly_at(ctx, d, i)]
    q = ctx.q
    for e in range(d + 1):
        if i < q**e:
            den = monic_poly_at(ctx, e, i)
            nums = (poly_at_most_at(ctx, d, j) for j in range(q ** (d + 1)))
            return [
                RationalMap(num, den)
                for num in nums
                if max(len(num) - 1, e) == d and len(poly_gcd(ctx, num, den)) == 1
            ]
        i -= q**e
    return [CONSTANT_INFINITY] if d == 0 and i == 0 else []


def horner_tally(ctx, family: str, d: int, lo: int, hi: int) -> CycleSums:
    evaluate, size = (eval_poly, ctx.q) if family == "poly" else (eval_rational, ctx.q + 1)
    counts = []
    for i in range(lo, hi):
        for m in horner_slot(ctx, family, d, i):
            succ = tuple(evaluate(ctx, m, x) for x in range(size))
            counts.append(Counter(cycle_census(FunctionalGraph(succ))))
    return per_map_sums(counts, ctx.q + 1)


def column_types(ctx, family: str, d: int, lo: int, hi: int) -> Counter:
    return _census_block(ctx, FAMILIES[family], d, lo, hi)


def column_tally(ctx, family: str, d: int, lo: int, hi: int) -> CycleSums:
    return cycle_sums(column_types(ctx, family, d, lo, hi), ctx.q + 1)


def slots(ctx, family: str, d: int) -> int:
    """One slot per polynomial of degree d, or per monic denominator of
    degree <= d, with one more for the constant-infinity map at d = 0."""
    q = ctx.q
    if family == "poly":
        return q if d == 0 else (q - 1) * q**d
    return sum(q**e for e in range(d + 1)) + (d == 0)


def width(ctx, family: str, d: int, pairs: int) -> int:
    """Slots that decode about pairs pairs: a rational slot runs every
    numerator of degree <= d."""
    return max(1, pairs if family == "poly" else pairs // ctx.q ** (d + 1))


# every case walks the maps of one exact degree, and its id says so
CASES = [(p, n, family, d) for p, n in FIELDS for family in FAMILIES for d in (0, 1, 2)]


@pytest.mark.parametrize("p, n, family, d", CASES, ids=[f"{p}-{n}-{f}-exactly-{d}" for p, n, f, d in CASES])
def test_columns_match_horner(p, n, family, d):
    """The whole slot space where it is small, else windows at its start,
    across its middle and at its end; and a block of the last slot alone."""
    ctx = field(p, n)
    total = slots(ctx, family, d)
    assert FAMILIES[family].index_count(ctx, d) == total
    w = width(ctx, family, d, 150)
    if width(ctx, family, d, WHOLE_SPACE_MAX) >= total:
        windows = [(0, total)]
    else:
        windows = [(0, w), (total // 2 - w, total // 2 + w), (total - w, total)]
    for lo, hi in [*windows, (total - 1, total)]:
        assert column_tally(ctx, family, d, lo, hi) == horner_tally(ctx, family, d, lo, hi)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("p, n, family, d", [(2, 2, "poly", 3), (3, 2, "poly", 2), (5, 1, "rational", 1), (2, 2, "rational", 2)])
def test_block_splits_of_each_worker_count(p, n, family, d, jobs, monkeypatch):
    """The blocks run_blocks hands to workers tally to the whole."""
    monkeypatch.setattr(census, "usable_cpus", lambda: 2)
    ctx = field(p, n)
    total = slots(ctx, family, d)
    blocks = _split_blocks(total, jobs)
    assert len(blocks) == jobs
    tallies = [column_types(ctx, family, d, lo, hi) for lo, hi in blocks]
    assert cycle_sums(sum(tallies, Counter()), ctx.q + 1) == horner_tally(ctx, family, d, 0, total)


# (p, family, d, lo, hi).  Over GF(257) a denominator of degree <= 1 has
# 65,792 coprime maps of degree 1, seconds of walking each, so the
# denominator boundaries at d = 1 are walked over GF(7) with the table cap
# lowered below q: the same rows, computed at each use.
WINDOWS_ABOVE_THE_CAP = [
    (257, "poly", 1, 3 * 257 - 6, 3 * 257 + 6),  # a_1 carries
    (257, "poly", 2, 257**2 - 4, 257**2 + 4),  # a_1 wraps and the lead digit moves
    (257, "poly", 0, 250, 257),
    (7, "rational", 1, 0, 2),  # from den 1 to den x
    (7, "rational", 1, 1, 3),  # den x to den x + 1
    (257, "rational", 0, 0, 2),  # den 1, then the constant-infinity slot
]


@pytest.mark.parametrize(
    "p, family, d, lo, hi",
    WINDOWS_ABOVE_THE_CAP,
    ids=[f"{f}-{d}-exactly-{lo}-{hi}" for _, f, d, lo, hi in WINDOWS_ABOVE_THE_CAP],
)
def test_rows_without_tables_above_the_cap(p, family, d, lo, hi, monkeypatch):
    """Above the table cap there are no q x q tables; each row comes from
    ctx.add and ctx.mul."""
    ctx = field(p)
    monkeypatch.setattr(census, "ROW_TABLE_MAX", min(census.ROW_TABLE_MAX, ctx.q - 1))
    want = horner_tally(ctx, family, d, lo, hi)
    assert want.map_count > 0
    assert column_tally(ctx, family, d, lo, hi) == want


def test_one_divide_row_per_distinct_denominator_value(monkeypatch):
    """Above the table cap each divide row costs q products.  The only
    denominator at d = 0 is 1, so the walk builds one row, not one per
    point: the q x q rows it used to build took 66,049 products at q = 257."""
    ctx = field(257)
    calls = []
    mul = FieldCtx.mul
    monkeypatch.setattr(FieldCtx, "mul", lambda self, a, b: calls.append(a) or mul(self, a, b))
    assert column_types(ctx, "rational", 0, 0, 2).total() == ctx.q + 1  # the constants and infinity
    assert 0 < len(calls) <= 2 * ctx.q


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from([c for c in CASES if c[3] >= 1]), data=st.data())
def test_any_block_matches_horner(case, data):
    p, n, family, d = case
    ctx = field(p, n)
    total = slots(ctx, family, d)
    lo = data.draw(st.integers(0, total - 1), label="lo")
    hi = data.draw(st.integers(lo, min(total, lo + width(ctx, family, d, 300))), label="hi")
    assert column_tally(ctx, family, d, lo, hi) == horner_tally(ctx, family, d, lo, hi)


SLOT_CASES = [(p, n, d) for p, n in [(2, 1), (3, 1), (2, 2), (5, 1)] for d in (0, 1, 2)]


@pytest.mark.parametrize("p, n, d", SLOT_CASES)
def test_each_slot_holds_one_denominators_coprime_maps(p, n, d):
    """A block of one rational slot tallies exactly the coprime maps of
    degree d over its denominator: of degree e < d, with numerators of
    degree d, or of degree e = d; at d = 0 the last slot holds the
    constant-infinity map alone, which sends every point to infinity."""
    ctx = field(p, n)
    q = ctx.q
    total = slots(ctx, "rational", d)
    for s in range(total):
        maps = horner_slot(ctx, "rational", d, s)
        types = column_types(ctx, "rational", d, s, s + 1)
        assert types.total() == len(maps) > 0
        assert cycle_sums(types, q + 1) == horner_tally(ctx, "rational", d, s, s + 1)
    if d == 0:
        assert column_types(ctx, "rational", d, total - 1, total) == {(1,): 1}


def shared_by_gcd(ctx, d: int, den, slots) -> set[int]:
    """The numerator slots among slots whose gcd with den has degree >= 1."""
    return {j for j in slots if len(poly_gcd(ctx, poly_at_most_at(ctx, d, j), den)) > 1}


SIEVE_CASES = [(p, n, d) for p, n in FIELDS for d in (1, 2)] + [(p, n, 3) for p, n in FIELDS if p**n <= 4]


@pytest.mark.parametrize("p, n, d", SIEVE_CASES)
def test_sieve_marks_exactly_the_numerators_sharing_a_factor(p, n, d):
    """Every monic denominator of degree 1..d, every numerator of degree <= d."""
    ctx = field(p, n)
    q = ctx.q
    for e in range(1, d + 1):
        for i in range(q**e):
            den = monic_poly_at(ctx, e, i)
            assert census._shared_factor_slots(ctx, d, den) == shared_by_gcd(ctx, d, den, range(q ** (d + 1)))


@pytest.mark.parametrize(
    "d, den, shared_count",
    [
        (2, (1,), 0),
        (1, (5, 1), 257),  # x + 5: its multiples c (x + 5)
        (2, (254, 0, 1), 257),  # x^2 - 3, irreducible (3 is not a square mod 257): its multiples c (x^2 - 3)
    ],
)
def test_sieve_above_the_row_table_cap(d, den, shared_count):
    """One denominator of each degree over GF(257).  Its q^(d+1) numerators
    are too many to gcd-test at d = 2, so the marked set must have the size
    the unit count mod den gives, and agree with poly_gcd on every marked
    slot and on a draw of all slots."""
    ctx = field(257)
    assert ctx.q > census.ROW_TABLE_MAX
    marked = census._shared_factor_slots(ctx, d, den)
    assert len(marked) == shared_count
    slots = [*marked, *random.Random(0).sample(range(ctx.q ** (d + 1)), 2000)]
    assert shared_by_gcd(ctx, d, den, slots) == marked

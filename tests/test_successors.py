"""Exhaustive successor tables from running column sums, against Horner.

The exhaustive census walks each block's slots as an odometer and reads
every map's successors off value columns and addition-table rows.  The
reference here decodes each slot on its own with the `fmaps` decoders,
evaluates the map at every point by Horner's rule (`eval_poly`,
`eval_rational`) and scans it; both must give the same tally over the
same slots.  The census skips non-coprime pairs through a sieve built
once per denominator; the sieve is checked here against `poly_gcd`.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from fqdyn import census
from fqdyn.census import POLY, RATIONAL, Tally, _census_block, _split_blocks
from fqdyn.ffield import make_field
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

FAMILIES = {"poly": POLY, "rational": RATIONAL}
# the acceptance gate's fields, then one extension field for p = 2 and one for p = 3
FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
MODES = ("exactly", "at_most")
WHOLE_SPACE_MAX = 4000  # slots per case walked whole; larger spaces get windows


@lru_cache(maxsize=None)
def field(p: int, n: int = 1):
    return make_field(p, n)


def horner_slot(ctx, family: str, d: int, mode: str, i: int):
    """The map in slot i, decoded alone; None for a slot the census skips."""
    if family == "poly":
        return poly_exactly_at(ctx, d, i) if mode == "exactly" else poly_at_most_at(ctx, d, i)
    q = ctx.q
    num_count = q ** (d + 1)
    for e in range(d + 1):
        if i < q**e * num_count:
            den_idx, num_idx = divmod(i, num_count)
            den, num = monic_poly_at(ctx, e, den_idx), poly_at_most_at(ctx, d, num_idx)
            if mode == "exactly" and max(len(num) - 1, e) != d:
                return None
            return RationalMap(num, den) if len(poly_gcd(ctx, num, den)) == 1 else None
        i -= q**e * num_count
    return CONSTANT_INFINITY if mode == "at_most" or d == 0 else None


def horner_tally(ctx, family: str, d: int, mode: str, lo: int, hi: int) -> Tally:
    evaluate, size = (eval_poly, ctx.q) if family == "poly" else (eval_rational, ctx.q + 1)
    tally = Tally()
    for i in range(lo, hi):
        m = horner_slot(ctx, family, d, mode, i)
        if m is not None:
            succ = tuple(evaluate(ctx, m, x) for x in range(size))
            tally.add(cycle_census(FunctionalGraph(size, succ)), ctx.q + 1)
    return tally


def column_tally(ctx, family: str, d: int, mode: str, lo: int, hi: int) -> Tally:
    return _census_block(ctx, FAMILIES[family], d, mode, ctx.q + 1, None, lo, hi)


def slots(ctx, family: str, d: int, mode: str) -> int:
    return FAMILIES[family].index_count(ctx, d, mode)


CASES = [
    (p, n, family, mode, d)
    for p, n in FIELDS
    for family in FAMILIES
    for mode in MODES
    for d in (0, 1, 2)
]


@pytest.mark.parametrize("p, n, family, mode, d", CASES)
def test_columns_match_horner(p, n, family, mode, d):
    """The whole slot space where it is small, else windows at its start,
    across its middle and at its end; and a block of the last slot alone."""
    ctx = field(p, n)
    total = slots(ctx, family, d, mode)
    if total <= WHOLE_SPACE_MAX:
        windows = [(0, total)]
    else:
        width = 150
        windows = [(0, width), (total // 2 - width, total // 2 + width), (total - width, total)]
    for lo, hi in [*windows, (total - 1, total)]:
        want = horner_tally(ctx, family, d, mode, lo, hi)
        assert column_tally(ctx, family, d, mode, lo, hi) == want
    # a rational space ends with the constant-infinity slot, a map of degree 0
    assert want.map_count == (family == "poly" or mode == "at_most" or d == 0)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("p, n, family, d", [(2, 2, "poly", 3), (3, 2, "poly", 2), (5, 1, "rational", 1), (2, 2, "rational", 2)])
def test_block_splits_of_each_worker_count(p, n, family, d, jobs, monkeypatch):
    """The blocks run_blocks hands to workers tally to the whole."""
    monkeypatch.setattr(census, "usable_cpus", lambda: 2)
    ctx = field(p, n)
    total = slots(ctx, family, d, "exactly")
    blocks = _split_blocks(total, jobs)
    assert len(blocks) == jobs
    tallies = [column_tally(ctx, family, d, "exactly", lo, hi) for lo, hi in blocks]
    assert sum(tallies, Tally()) == horner_tally(ctx, family, d, "exactly", 0, total)


@pytest.mark.parametrize(
    "family, d, mode, lo, hi",
    [
        ("poly", 1, "exactly", 3 * 257 - 6, 3 * 257 + 6),  # a_1 carries
        ("poly", 2, "at_most", 257**2 - 4, 257**2 + 4),  # a_1 and a_2 carry
        ("poly", 0, "exactly", 250, 257),
        ("rational", 1, "exactly", 257**2 - 4, 257**2 + 4),  # from den 1 to den x
        ("rational", 1, "at_most", 2 * 257**2 - 4, 2 * 257**2 + 4),  # den x to den x + 1
        ("rational", 1, "at_most", 258 * 257**2 - 4, 258 * 257**2 + 1),  # the constant-infinity slot
    ],
)
def test_rows_without_tables_above_the_cap(family, d, mode, lo, hi):
    """GF(257) has no q x q tables; each row comes from ctx.add and ctx.mul."""
    ctx = field(257)
    assert ctx.q > census.ROW_TABLE_MAX
    want = horner_tally(ctx, family, d, mode, lo, hi)
    assert want.map_count > 0
    assert column_tally(ctx, family, d, mode, lo, hi) == want


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from([(p, n, family, mode, d) for p, n, family, mode, d in CASES if d >= 1]),
    data=st.data(),
)
def test_any_block_matches_horner(case, data):
    p, n, family, mode, d = case
    ctx = field(p, n)
    total = slots(ctx, family, d, mode)
    lo = data.draw(st.integers(0, total - 1), label="lo")
    hi = data.draw(st.integers(lo, min(total, lo + 300)), label="hi")
    assert column_tally(ctx, family, d, mode, lo, hi) == horner_tally(ctx, family, d, mode, lo, hi)


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

"""Polynomial/rational-map representation, enumeration, and conjugation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqdyn.ffield import make_field
from fqdyn.fmaps import (
    CONSTANT_INFINITY,
    RationalMap,
    canonicalize_rational,
    enumerate_polys,
    enumerate_rationals,
    eval_poly,
    eval_rational,
    normalize_poly,
    poly_degree,
    poly_divmod,
    poly_gcd,
    poly_mul,
)

from oracles import conjugate, enumerate_mobius, mobius_apply, mobius_canonical, mobius_inverse, poly_add

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F7 = make_field(7)


# --- polynomial arithmetic -------------------------------------------------


def test_eval_poly_examples():
    assert eval_poly(F5, (1, 0, 1), 2) == 0  # x^2 + 1 at 2
    assert all(eval_poly(F7, (), x) == 0 for x in range(F7.q))
    assert all(eval_poly(F2, (0, 1, 1), x) == 0 for x in range(F2.q))  # x^2 + x


def test_normalize_and_degree():
    assert normalize_poly([1, 2, 0, 0]) == (1, 2)
    assert normalize_poly([0, 0]) == ()
    assert poly_degree(()) == 0  # constants, zero included, have degree 0
    assert poly_degree((3,)) == 0
    assert poly_degree((0, 0, 1)) == 2


def test_divmod_reconstructs():
    for f in enumerate_polys(F5, 3, "at_most"):
        for g in [(4, 1), (1, 1, 1), (3,)]:
            q, r = poly_divmod(F5, f, g)
            assert poly_add(F5, poly_mul(F5, q, g), r) == f
            assert len(r) < len(g)


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(F5, (1, 1), ())


def test_gcd_is_monic_common_divisor():
    a = poly_mul(F5, (1, 1), (2, 3))
    b = poly_mul(F5, (1, 1), (4, 0, 1))
    g = poly_gcd(F5, a, b)
    assert g[-1] == 1
    assert poly_divmod(F5, a, g)[1] == ()
    assert poly_divmod(F5, b, g)[1] == ()
    assert poly_gcd(F5, (), (0, 2)) == (0, 1)


# --- canonical form --------------------------------------------------------


def test_canonicalize_examples():
    assert canonicalize_rational(F3, (2, 2), (2,)) == RationalMap((1, 1), (1,))
    # (x^2 - 1)/(x - 1) == (x^2 + 2)/(x + 2) over F_3
    r = canonicalize_rational(F3, (2, 0, 1), (2, 1))
    assert r == RationalMap((1, 1), (1,))
    assert r.degree == 1
    inf = canonicalize_rational(F5, (3,), ())
    assert inf.is_constant_infinity and inf.degree == 0


def test_canonicalize_zero_over_zero_rejected():
    with pytest.raises(ValueError):
        canonicalize_rational(F3, (), (0, 0))


def test_canonicalize_idempotent_and_eval_invariant():
    raw = [
        ((2, 4), (1, 3)),
        ((0, 0, 3), (0, 3)),
        ((1, 2, 1), (2, 3, 1)),
        ((4,), (2,)),
        ((0, 2, 2), (0, 0, 4)),
    ]
    for num, den in raw:
        r1 = canonicalize_rational(F5, num, den)
        r2 = canonicalize_rational(F5, r1.num, r1.den)
        assert r1 == r2
        # eval through the raw pair agrees wherever the raw pair is defined
        for x in range(F5.q):
            dv = eval_poly(F5, den, x)
            nv = eval_poly(F5, num, x)
            if dv != 0:
                assert eval_rational(F5, r1, x) == F5.mul(nv, F5.inv(dv))


def test_eval_rational_examples():
    inv_map = canonicalize_rational(F3, (1,), (0, 1))  # 1/x
    assert eval_rational(F3, inv_map, 0) == 3
    assert eval_rational(F3, inv_map, 3) == 0
    assert eval_rational(F3, inv_map, 2) == 2
    r = canonicalize_rational(F3, (1, 0, 1), (0, 1))
    assert eval_rational(F3, r, 3) == 3  # deg num > deg den at infinity
    r = canonicalize_rational(F5, (1, 2), (3, 1))
    assert eval_rational(F5, r, 5) == 2  # leading-coefficient ratio
    zero_map = canonicalize_rational(F5, (), (1, 1))
    assert eval_rational(F5, zero_map, 5) == 0
    assert all(eval_rational(F5, CONSTANT_INFINITY, x) == 5 for x in range(6))


def test_eval_rational_agrees_with_eval_poly():
    for f in enumerate_polys(F5, 2, "at_most"):
        r = RationalMap(f, (1,))
        for x in range(F5.q):
            assert eval_rational(F5, r, x) == eval_poly(F5, f, x)


# --- enumeration cardinalities ---------------------------------------------


def test_enumerate_polys_examples():
    assert len(list(enumerate_polys(F3, 2, "exactly"))) == 18
    assert set(enumerate_polys(F2, 1, "at_most")) == {(), (1,), (0, 1), (1, 1)}
    assert len(list(enumerate_polys(F5, 0, "exactly"))) == 5


def test_enumerate_rationals_examples():
    assert len(list(enumerate_rationals(F2, 1, "at_most"))) == 9
    d0 = list(enumerate_rationals(F2, 0, "exactly"))
    assert len(d0) == 3
    assert CONSTANT_INFINITY in d0
    assert len(list(enumerate_rationals(F2, 1, "exactly"))) == 6


@pytest.mark.parametrize("q,ctx", [(2, F2), (3, F3), (4, F4), (5, F5), (7, F7)])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_enumeration_cardinalities(q: int, ctx, d: int):
    n_at_most = sum(1 for _ in enumerate_polys(ctx, d, "at_most"))
    assert n_at_most == q ** (d + 1)
    n_exact = sum(1 for _ in enumerate_polys(ctx, d, "exactly"))
    assert n_exact == (q if d == 0 else q**d * (q - 1))
    if q ** (2 * d + 1) + 1 <= 6000:
        rats = list(enumerate_rationals(ctx, d, "at_most"))
        assert len(rats) == q ** (2 * d + 1) + 1
        assert len(set(rats)) == len(rats)
        exact = list(enumerate_rationals(ctx, d, "exactly"))
        want = q + 1 if d == 0 else q ** (2 * d - 1) * (q * q - 1)
        assert len(exact) == want
        assert all(r.degree == d for r in exact)


def test_rationals_larger_sweep():
    # the d = 3 cases skipped above, on the two smallest fields
    for q, ctx in [(2, F2), (3, F3)]:
        for d in [2, 3]:
            got = sum(1 for _ in enumerate_rationals(ctx, d, "at_most"))
            assert got == q ** (2 * d + 1) + 1


def test_enumeration_is_deterministic():
    assert list(enumerate_rationals(F3, 1, "at_most")) == list(
        enumerate_rationals(F3, 1, "at_most")
    )


# --- Moebius and conjugation (reference helpers in oracles) -------------------


def test_mobius_counts():
    for ctx in (F2, F3, F4, F5):
        ms = list(enumerate_mobius(ctx))
        q = ctx.q
        assert len(ms) == q**3 - q
        assert len(set(ms)) == len(ms)


def test_mobius_canonical_scaling():
    m = mobius_canonical(F5, (2, 4, 0, 2))
    assert m == (1, 2, 0, 1)
    assert mobius_canonical(F5, (0, 3, 3, 0)) == (0, 1, 1, 0)
    with pytest.raises(ValueError):
        mobius_canonical(F5, (1, 2, 2, 4))  # determinant 0


def test_mobius_inverse_round_trip():
    for m in enumerate_mobius(F5):
        mi = mobius_inverse(F5, m)
        for x in range(6):
            assert mobius_apply(F5, mi, mobius_apply(F5, m, x)) == x


def test_conjugate_identity():
    for r in enumerate_rationals(F3, 1, "at_most"):
        assert conjugate(F3, r, (1, 0, 0, 1)) == r


def test_conjugate_preserves_degree():
    sq = RationalMap((0, 0, 1), (1,))
    c = conjugate(F3, sq, (1, 1, 0, 1))
    assert c.degree == 2


def test_conjugate_round_trip_and_semantics():
    for ctx in (F2, F3):
        mobs = list(enumerate_mobius(ctx))
        for r in enumerate_rationals(ctx, 1, "at_most"):
            for m in mobs:
                cr = conjugate(ctx, r, m)
                assert cr.degree == r.degree
                for x in range(ctx.q + 1):
                    assert eval_rational(ctx, cr, mobius_apply(ctx, m, x)) == mobius_apply(
                        ctx, m, eval_rational(ctx, r, x)
                    )
                assert conjugate(ctx, cr, mobius_inverse(ctx, m)) == r


def test_conjugate_constant_infinity():
    moved = conjugate(F3, CONSTANT_INFINITY, (0, 1, 1, 0))  # 1/x sends inf to 0
    assert moved == RationalMap((), (1,))
    fixed = conjugate(F3, CONSTANT_INFINITY, (1, 1, 0, 1))  # x+1 fixes inf
    assert fixed is CONSTANT_INFINITY

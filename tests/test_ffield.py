"""Field construction and arithmetic against independent digit oracles."""

from __future__ import annotations

import hashlib
import math
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqdyn import ffield, fmaps
from fqdyn.ffield import TABLE_CAP, FieldCtx, field_order, is_prime, make_field

from oracles import field_pow, oracle_add, oracle_mul, plain_default_modulus


def test_gf5_basic_ops():
    f = make_field(5)
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2
    assert f.inv(3) == 2


def test_gf4_worked_example():
    f = make_field(2, 2)
    assert f.modulus == (1, 1, 1)
    assert f.mul(2, 3) == 1  # t * (t+1) = 1
    assert f.inv(2) == 3
    assert f.add(2, 2) == 0
    assert f.mul(2, 2) == 3  # t^2 = t + 1


def test_identity_handles():
    for p, n in [(2, 1), (3, 2), (5, 1), (2, 4)]:
        f = make_field(p, n)
        for a in range(f.q):
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.mul(a, 0) == 0


def test_composite_p_rejected():
    with pytest.raises(ValueError):
        make_field(4)
    with pytest.raises(ValueError):
        make_field(1)
    with pytest.raises(ValueError):
        make_field(91, 1)  # 7 * 13


def test_bad_extension_degree_rejected():
    with pytest.raises(ValueError):
        make_field(2, 0)


@pytest.mark.parametrize(
    "p, n, message", [(4, 1, "p = 4 is not prime"), (91, 1, "p = 91 is not prime"), (2, 0, "extension degree n = 0 must be >= 1")]
)
def test_field_order_shares_the_checks_of_make_field(p, n, message):
    for build in (field_order, make_field):
        with pytest.raises(ValueError) as err:
            build(p, n)
        assert str(err.value) == message


def test_field_order_builds_no_tables():
    assert field_order(2, 17) == 131072  # past the table cap, where make_field refuses
    assert field_order(3, 2) == make_field(3, 2).q == 9


def test_inv_zero_raises():
    f = make_field(7)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (5, 2), (3, 3)])
def test_field_axioms_exhaustive(p: int, n: int):
    f = make_field(p, n)
    els = range(f.q)
    for a in els:
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2), (7, 2), (2, 6)])
def test_tables_match_digit_oracle(p: int, n: int):
    f = make_field(p, n)
    for a in range(f.q):
        for b in range(f.q):
            assert f.add(a, b) == oracle_add(a, b, p, n)
            assert f.mul(a, b) == oracle_mul(a, b, p, n, f.modulus)


@pytest.mark.parametrize("p,n", [(2, 1), (7, 1), (101, 1), (2, 5), (3, 4), (31, 2)])
def test_fermat_and_inverse_roundtrip(p: int, n: int):
    f = make_field(p, n)
    for a in range(f.q):
        assert field_pow(f, a, f.q) == a
        if a:
            assert field_pow(f, a, f.q - 1) == 1
            assert f.inv(f.inv(a)) == a
            assert f.mul(a, f.inv(a)) == 1


def test_tables_walk_the_smallest_generator():
    # every field with q <= 2^12: 564 prime fields and 40 extension fields
    fields = [(p, n) for p in range(2, 4097) if is_prime(p) for n in range(1, 13) if p**n <= 4096]
    assert len(fields) == 604
    for p, n in fields:
        f = make_field(p, n)
        q, exp, log, g = f.q, f.exp_table, f.log_table, f.exp_table[1]
        assert sorted(exp[: q - 1]) == list(range(1, q)) and exp[q - 1 :] == exp[: q - 1]
        assert all(log[exp[i]] == i for i in range(q - 1))
        if n == 1:
            assert all(exp[i + 1] == exp[i] * g % p for i in range(q - 2))
        else:
            assert all(exp[i + 1] == oracle_mul(exp[i], g, p, n, f.modulus) for i in range(q - 2))
        # g^i generates exactly when gcd(i, q - 1) == 1: no smaller handle does
        assert not any(math.gcd(log[h], q - 1) == 1 for h in range(2, g))
        if p == 2:
            assert f.zech_table is None
            assert all(f.add(1, exp[k]) == oracle_add(1, exp[k], p, n) for k in range(q - 1))
        elif n > 1:
            sums = [oracle_add(1, exp[k], p, n) for k in range(q - 1)]
            assert list(f.zech_table) == [log[s] if s else -1 for s in sums]
        assert all(f.add(a, f.neg(a)) == 0 for a in range(q))


def test_above_cap_prime_uses_direct_arithmetic():
    p = 65537
    assert p > TABLE_CAP
    f = make_field(p)
    assert f.exp_table is None and f.log_table is None
    assert f.mul(12345, 54321) == (12345 * 54321) % p
    assert f.mul(9999, f.inv(9999)) == 1
    assert field_pow(f, 3, p - 1) == 1


def test_above_cap_extension_rejected():
    with pytest.raises(ValueError):
        make_field(2, 17)  # 2^17 > 2^16


def test_above_cap_extension_refused_before_modulus_search(monkeypatch):
    def fail(*args):
        raise AssertionError("modulus searched for or verified")

    monkeypatch.setattr(ffield, "_default_modulus", fail)
    monkeypatch.setattr(fmaps, "_is_irreducible_poly", fail)
    monkeypatch.setattr(fmaps, "_monic_divisors", fail)
    for p, n in [(2, 24), (3, 16), (2, 20)]:
        with pytest.raises(ValueError, match="exceeds the table cap"):
            make_field(p, n)


def test_table_cap_boundary_is_inclusive(monkeypatch):
    monkeypatch.setattr(ffield, "TABLE_CAP", 251)
    with_tables = make_field(251)
    assert with_tables.exp_table is not None
    monkeypatch.setattr(ffield, "TABLE_CAP", 250)
    without = make_field(251)
    assert without.exp_table is None
    for a, b in [(0, 0), (1, 250), (17, 99), (123, 200)]:
        assert with_tables.mul(a, b) == without.mul(a, b)
        assert with_tables.add(a, b) == without.add(a, b)


def test_construction_is_deterministic():
    a = make_field(3, 3)
    b = make_field(3, 3)
    assert a == b
    assert a.exp_table == b.exp_table
    assert a.zech_table == b.zech_table


def test_default_modulus_is_lex_smallest():
    # degree-3 candidates over GF(2) in lex order: t^3+1 factors,
    # t^3+t^2+1 is the first irreducible with constant term 1
    assert make_field(2, 3).modulus == (1, 0, 1, 1)
    assert make_field(2, 2).modulus == (1, 1, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(5, 1).modulus == (0, 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_modulus_search_matches_the_plain_search(p):
    """Skipping the candidates divisible by t above degree 1 keeps every modulus."""
    n = 1
    while p**n <= 1 << 12:
        assert ffield._default_modulus(p, n) == plain_default_modulus(p, n), n
        n += 1


def test_context_is_picklable():
    import pickle

    f = make_field(3, 2)
    g = pickle.loads(pickle.dumps(f))
    assert isinstance(g, FieldCtx)
    assert g == f
    assert g.mul(4, 5) == f.mul(4, 5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 342), st.integers(0, 342), st.integers(0, 342))
def test_axioms_sampled_gf343(a: int, b: int, c: int):
    f = _GF343
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, b) == oracle_add(a, b, 7, 3)
    assert f.mul(a, b) == oracle_mul(a, b, 7, 3, f.modulus)


_GF343 = make_field(7, 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10006), st.integers(0, 10006))
def test_prime_tables_match_modular_arithmetic(a: int, b: int):
    f = _GF10007
    assert f.mul(a, b) == (a * b) % 10007
    assert f.add(a, b) == (a + b) % 10007


_GF10007 = make_field(10007)


@cache
def _gf2(n: int) -> FieldCtx:
    return make_field(2, n)


def _digest(table: tuple[int, ...]) -> str:
    return hashlib.sha256(",".join(map(str, table)).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "n, modulus_bits, g, exp_digest, log_digest",
    [
        (13, (0, 9, 10, 12, 13), 2, "a6a5eed09e1114f5", "2029c7fd3597a4e5"),
        (14, (0, 9, 14), 7, "162cf2ed8c93b941", "b35600ce25c87e24"),
        (15, (0, 14, 15), 2, "c6257d46ca33850a", "cf160e7135d68185"),
        (16, (0, 11, 13, 15, 16), 6, "fe8723fd7cd3cc41", "a7463f11efd1de1b"),
    ],
)
def test_tables_above_the_sweep_are_pinned(n, modulus_bits, g, exp_digest, log_digest):
    # digests of the tables a walk by the field's full multiply builds; the shift-XOR walk must match them
    f = _gf2(n)
    assert f.modulus == tuple(int(i in modulus_bits) for i in range(n + 1))
    assert f.exp_table[1] == g
    assert (_digest(f.exp_table), _digest(f.log_table)) == (exp_digest, log_digest)
    assert f.zech_table is None


@pytest.mark.parametrize(
    "p, n, modulus, g, digests",
    [
        (3, 8, (1, 0, 0, 0, 0, 1, 1, 0, 1), 4, ("8225aee19fc8e20f", "08f6de93ef98b5ca", "5c70912cb90e9db9")),
        (5, 6, (1, 0, 0, 0, 1, 1, 1), 6, ("73d78810a057ed8e", "93de4a104693864e", "e105e7a2908d61de")),
        (7, 5, (1, 0, 0, 0, 3, 1), 11, ("ef24b494cb8a06ec", "fcba372f577e765a", "4c527c697912e038")),
    ],
)
def test_odd_p_tables_above_the_sweep_are_pinned(p, n, modulus, g, digests):
    # digests of the exp, log and Zech tables of a walk through every candidate's powers
    f = make_field(p, n)
    assert f.modulus == modulus
    assert f.exp_table[1] == g
    assert tuple(map(_digest, (f.exp_table, f.log_table, f.zech_table))) == digests


@pytest.mark.parametrize("p, n", [(3, 8), (2, 14)])
def test_no_non_generator_is_walked(p, n, monkeypatch):
    """Candidates are rejected by their order; only the generator's powers
    are walked, so the products stay near q - 1.  An odd-p product is one
    fmaps.poly_mul, which the modulus search does not call."""
    calls = []

    def counted(mul):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return mul(*args, **kwargs)

        return wrapper

    for module, name in ((fmaps, "poly_mul"), (ffield, "_gf2_mul")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    q = make_field(p, n).q
    assert len(calls) < q - 1 + 200


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([14, 16]), st.data())
def test_xor_addition_gf2_14_and_gf2_16(n: int, data):
    f = _gf2(n)
    a, b, c = (data.draw(st.integers(0, f.q - 1)) for _ in range(3))
    assert f.add(a, b) == oracle_add(a, b, 2, n)
    assert f.sub(a, b) == f.add(a, b) and f.neg(a) == a
    assert f.mul(a, b) == oracle_mul(a, b, 2, n, f.modulus)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

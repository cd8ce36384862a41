"""Arithmetic in the finite field GF(p^n) with integer element handles.

Elements are plain ints in [0, q).  A handle encodes the base-p digit
vector of the polynomial representative: handle a = sum(d_i * p**i)
stands for the residue sum(d_i * t**i) modulo the defining polynomial.
Handle 0 is the additive identity and handle 1 the multiplicative
identity, for every field.

digits and undigits are the package's one base-b digit codec, least
significant digit first.  Handles, the p = 2 modulus bits and every
enumeration index (polynomials and rational maps in fmaps and census,
self-maps in baseline) go through them, so they fix the index order:
the constant term, or the value at point 0, runs fastest.

Multiplication and inversion go through discrete-log/antilog tables for
fields up to TABLE_CAP elements.  In characteristic 2 a handle is
a GF(2) bit vector, so addition and subtraction are XOR and negation is
the identity; for odd p negation multiplies by handle p - 1, which is
-1, and addition in extension fields uses a Zech-logarithm table.  The
tables walk the powers of the smallest generator of the unit group
(_build_tables).  The modulus search and the odd-p walk run fmaps'
polynomial arithmetic over GF(p).  Prime fields above the cap fall back
to direct modular arithmetic; extension fields above the cap are
refused before any modulus is searched for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, Sequence

FqElem = int

TABLE_CAP = 1 << 16

# zech[k] value marking 1 + g^k == 0 (k is the "minus infinity" slot).
_ZECH_NONE = -1


def is_prime(m: int) -> bool:
    """Trial-division primality test, adequate for desk-scale p."""
    return _prime_factors(m) == [m]


def field_order(p: int, n: int = 1) -> int:
    """q = p**n, the size of GF(p^n), once p is a prime and n >= 1."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if n < 1:
        raise ValueError(f"extension degree n = {n} must be >= 1")
    return p**n


@dataclass(frozen=True)
class FieldCtx:
    """Immutable description of GF(p^n) plus its operation tables.

    Safe to share across worker processes: all fields are plain data and
    every operation is pure.  Characteristic 2 adds by XOR; odd-p
    extension fields add through the Zech table.
    """

    p: int
    n: int
    q: int
    modulus: tuple[int, ...]  # monic, degree n, least-significant first
    exp_table: tuple[int, ...] | None  # g^i for i in [0, 2(q-1)); None above cap
    log_table: tuple[int, ...] | None  # discrete log base g; entry 0 is -1
    zech_table: tuple[int, ...] | None  # log(1 + g^k); odd-p extension fields only

    def add(self, a: FqElem, b: FqElem) -> FqElem:
        if self.p == 2:
            return a ^ b
        if self.n == 1:
            return (a + b) % self.p
        if a == 0:
            return b
        if b == 0:
            return a
        log = self.log_table
        i = log[a]
        k = log[b] - i
        if k < 0:
            k += self.q - 1
        z = self.zech_table[k]
        if z < 0:
            return 0
        return self.exp_table[i + z]

    def neg(self, a: FqElem) -> FqElem:
        if self.p == 2:
            return a
        return self.mul(a, self.p - 1)  # handle p - 1 is -1 in every GF(p^n)

    def sub(self, a: FqElem, b: FqElem) -> FqElem:
        if self.p == 2:
            return a ^ b
        if self.n == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def mul(self, a: FqElem, b: FqElem) -> FqElem:
        if a == 0 or b == 0:
            return 0
        if self.log_table is None:
            return (a * b) % self.p
        return self.exp_table[self.log_table[a] + self.log_table[b]]

    def inv(self, a: FqElem) -> FqElem:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.log_table is None:
            return pow(a, self.p - 2, self.p)
        return self.exp_table[self.q - 1 - self.log_table[a]]


def digits(a: int, base: int, count: int) -> list[int]:
    """The count lowest base-`base` digits of a, least significant first."""
    out = [0] * count
    for i in range(count):
        a, out[i] = divmod(a, base)
    return out


def undigits(ds: Sequence[int], base: int) -> int:
    """The integer whose base-`base` digits, least significant first, are ds."""
    out = 0
    for d in reversed(ds):
        out = out * base + d
    return out


def _gf2_mul(a: int, b: int, modulus: int, n: int) -> int:
    """Carry-less product a * b in GF(2^n), handles as bit vectors.

    For each set bit of b the running shift of a is XORed in; a shift
    that reaches t^n is reduced by XORing in the modulus bits.
    """
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> n:
            a ^= modulus
    return out


def _default_modulus(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree n over GF(p).

    Candidates are compared by their coefficient tuple (c_0, ..., c_{n-1}),
    least-significant first.  Above degree 1 a candidate with c_0 = 0 is
    divisible by t, so the search starts at c_0 = 1.  Irreducibility is
    fmaps' trial division over GF(p) without tables, whose add, mul and
    inv are plain mod-p arithmetic.
    """
    # fmaps imports FieldCtx from this module, so it is imported at call time
    from .fmaps import _is_irreducible_poly

    gfp = FieldCtx(p, 1, p, (0, 1), None, None, None)
    candidates = ((*low, 1) for low in product(range(1 if n > 1 else 0, p), *[range(p)] * (n - 1)))
    return next(f for f in candidates if _is_irreducible_poly(gfp, f))


def _prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m >= 1, by trial division."""
    out, f = [], 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    return out + [m] if m > 1 else out


def _power(mul: Callable[[int, int], int], g: int, e: int) -> int:
    """g**e by square-and-multiply through mul."""
    out = 1
    while e:
        if e & 1:
            out = mul(out, g)
        e >>= 1
        g = mul(g, g)
    return out


def _build_tables(
    p: int, n: int, q: int, modulus: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...] | None]:
    """exp, log and Zech tables of the smallest generator of GF(q)*.

    Candidates 2, 3, ... are tried in handle order by their order alone:
    g generates exactly when g^((q-1)/r) != 1 for every prime r dividing
    q - 1, a few dozen products by square-and-multiply.  Only the first
    generator's powers are walked, once, and that walk is the exp table.
    In characteristic 2 each step multiplies by g as a few shifts of the
    running power, and one lookup reduces the bits past t^(n-1); odd-p
    extension fields multiply the handles' digit vectors with fmaps'
    poly_mul and reduce them with poly_divmod over GF(p).  q == 2
    keeps exp == [1]: the trivial group.  Only odd-p extension fields get
    a Zech table.
    """
    if p == 2:
        mul = partial(_gf2_mul, modulus=undigits(modulus, 2), n=n)
    elif n == 1:
        mul = lambda a, b: a * b % p
    else:
        from .fmaps import poly_divmod, poly_mul  # at call time, as in _default_modulus

        gfp = FieldCtx(p, 1, p, (0, 1), None, None, None)
        mul = lambda a, b: undigits(poly_divmod(gfp, poly_mul(gfp, digits(a, p, n), digits(b, p, n)), modulus)[1], p)
    cofactors = [(q - 1) // r for r in _prime_factors(q - 1)]
    g = next((g for g in range(2, q) if all(_power(mul, g, e) != 1 for e in cofactors)), 1)

    if p == 2:
        shifts = [i for i in range(g.bit_length()) if g >> i & 1]
        low = (1 << n) - 1
        # reduce[h] is h * t^n: the bits a product by g carries past t^(n-1)
        reduce = [mul(h, undigits(modulus[:n], 2)) for h in range(1 << (g.bit_length() - 1))]
    exp, x = [1], g
    while x != 1:
        exp.append(x)
        if p == 2:
            y = 0
            for s in shifts:
                y ^= x << s
            x = (y & low) ^ reduce[y >> n]
        else:
            x = mul(x, g)
    exp += exp

    log = [_ZECH_NONE] * q
    for i in range(q - 1):
        log[exp[i]] = i

    zech = None
    if n > 1 and p > 2:
        # 1 + h adds 1 to the lowest base-p digit of handle h; log[0]
        # holds the marker for 1 + g^k == 0
        zech = tuple(log[h - h % p + (h + 1) % p] for h in exp[: q - 1])
    return tuple(exp), tuple(log), zech


def make_field(p: int, n: int = 1) -> FieldCtx:
    """Construct GF(p^n).

    The modulus is the lexicographically smallest monic irreducible of
    degree n over GF(p), so construction is deterministic.
    """
    q = field_order(p, n)
    if q > TABLE_CAP and n > 1:
        raise ValueError(
            f"q = {q} exceeds the table cap {TABLE_CAP}; "
            "extension fields require tables"
        )

    mod = _default_modulus(p, n)
    tables = _build_tables(p, n, q, mod) if q <= TABLE_CAP else (None, None, None)
    return FieldCtx(p, n, q, mod, *tables)

"""Polynomials over F_q and rational maps on the projective line.

Polynomials are tuples of element handles, least-significant
coefficient first, with no trailing zeros; the zero polynomial is the
empty tuple.  Constants, the zero polynomial included, act as degree-0
maps.

Projective points are ints in [0, q]: values below q are the affine
elements, q itself is the point at infinity.

Rational maps are kept in canonical form: numerator and denominator
coprime, denominator monic.  The constant map sending everything to
infinity is the distinguished canonical pair num=(1,), den=() and also
has degree 0.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial, reduce
from itertools import chain, islice, repeat
from typing import Iterable, Iterator, Literal, Sequence

from .ffield import FieldCtx, FqElem, digits

Poly = tuple[FqElem, ...]
ProjPoint = int

EnumMode = Literal["exactly", "at_most"]


def normalize_poly(coeffs: Sequence[FqElem]) -> Poly:
    """Strip trailing zeros; the zero polynomial becomes ()."""
    i = len(coeffs)
    while i and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


def poly_degree(f: Poly) -> int:
    """Map-theoretic degree: every constant, zero included, has degree 0."""
    return max(len(f) - 1, 0)


def eval_poly(ctx: FieldCtx, f: Poly, x: FqElem) -> FqElem:
    acc = 0
    for c in reversed(f):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


def _add_columns(ctx: FieldCtx, s: Iterable[FqElem], t: Iterable[FqElem]) -> Iterator[FqElem]:
    """s[i] + t[i] for every i, lazily."""
    if ctx.p == 2:
        return map(operator.xor, s, t)
    if ctx.n == 1:
        return map(ctx.p.__rmod__, map(operator.add, s, t))
    return map(ctx.add, s, t)


def poly_values(ctx: FieldCtx, f: Poly, base: Sequence[FqElem] | None = None) -> tuple[FqElem, ...]:
    """f(x) at every x in F_q, in handle order; base[x] + f(x) with a base.

    With tables, x = g^i runs over the units in log order and the term
    a x^j is the column exp[log a + i j], i < q - 1: every j-th entry of
    the exp table, repeated, from log a on, read lazily so that no copy of
    the table is made.  The columns add with map, and
    one itemgetter on the log table puts the sum in handle order, x = 0
    (log -1, the last slot) taking the constant term.  Prime fields above
    the table cap run Horner's rule on whole columns instead.
    """
    q = ctx.q
    if ctx.log_table is None:
        p, col = ctx.p, [0] * q
        for a in reversed(f):
            col = [(c * x + a) % p for x, c in enumerate(col)]
    else:
        exp, log, m = ctx.exp_table, ctx.log_table, q - 1
        cols = [
            islice(chain.from_iterable(repeat(exp, j + 1)), log[a], log[a] + j * m, j)
            for j, a in enumerate(f)
            if j and a
        ]
        const = f[0] if f else 0
        if const or not cols:
            cols.append(repeat(const, m))
        col = operator.itemgetter(*log)([*reduce(partial(_add_columns, ctx), cols), const])
    return tuple(col) if base is None else tuple(_add_columns(ctx, base, col))


def poly_scale(ctx: FieldCtx, c: FqElem, f: Poly) -> Poly:
    if c == 0:
        return ()
    return normalize_poly([ctx.mul(c, a) for a in f])


def poly_mul(ctx: FieldCtx, f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            if b:
                out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
    return normalize_poly(out)


def poly_divmod(ctx: FieldCtx, f: Poly, g: Poly) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    dg = len(g) - 1
    if len(f) - 1 < dg:
        return (), f
    rem = list(f)
    lead_inv = ctx.inv(g[-1])
    quo = [0] * (len(f) - dg)
    for shift in range(len(f) - dg - 1, -1, -1):
        coef = ctx.mul(rem[shift + dg], lead_inv)
        if coef:
            quo[shift] = coef
            for i, b in enumerate(g):
                if b:
                    rem[shift + i] = ctx.sub(rem[shift + i], ctx.mul(coef, b))
    return normalize_poly(quo), normalize_poly(rem[:dg])


def poly_gcd(ctx: FieldCtx, f: Poly, g: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) is the zero polynomial."""
    while g:
        _, r = poly_divmod(ctx, f, g)
        f, g = g, r
    if not f:
        return ()
    return poly_scale(ctx, ctx.inv(f[-1]), f)


@dataclass(frozen=True)
class RationalMap:
    """Canonical num/den pair; den == () marks the constant-infinity map."""

    num: Poly
    den: Poly

    @property
    def is_constant_infinity(self) -> bool:
        return not self.den

    @property
    def degree(self) -> int:
        return max(poly_degree(self.num), poly_degree(self.den))


CONSTANT_INFINITY = RationalMap(num=(1,), den=())


def canonicalize_rational(ctx: FieldCtx, num: Sequence[FqElem], den: Sequence[FqElem]) -> RationalMap:
    """Divide out the gcd and rescale so the denominator is monic."""
    n = normalize_poly(num)
    d = normalize_poly(den)
    if not n and not d:
        raise ValueError("0/0 is not a rational map")
    if not d:
        return CONSTANT_INFINITY
    if not n:
        return RationalMap((), (1,))
    g = poly_gcd(ctx, n, d)
    if len(g) > 1 or g[0] != 1:
        n, _ = poly_divmod(ctx, n, g)
        d, _ = poly_divmod(ctx, d, g)
    if d[-1] != 1:
        s = ctx.inv(d[-1])
        n = poly_scale(ctx, s, n)
        d = poly_scale(ctx, s, d)
    return RationalMap(n, d)


def eval_rational(ctx: FieldCtx, r: RationalMap, x: ProjPoint) -> ProjPoint:
    inf = ctx.q
    if r.is_constant_infinity:
        return inf
    if x == inf:
        dn = len(r.num) - 1  # -1 for the zero numerator
        dd = len(r.den) - 1
        if dn > dd:
            return inf
        if dn < dd:
            return 0
        return ctx.mul(r.num[-1], ctx.inv(r.den[-1]))
    dv = eval_poly(ctx, r.den, x)
    if dv == 0:
        return inf
    return ctx.mul(eval_poly(ctx, r.num, x), ctx.inv(dv))


# Enumeration.  Polynomials of bounded degree decode from a base-q
# index (ffield.digits, constant term fastest), which lets callers split
# the index range across workers.  Each decoder calls digits itself, never
# another decoder, so a count of one decoder's calls counts its own slots.


def poly_at_most_count(ctx: FieldCtx, d: int) -> int:
    return ctx.q ** (d + 1)


def poly_at_most_at(ctx: FieldCtx, d: int, idx: int) -> Poly:
    return normalize_poly(digits(idx, ctx.q, d + 1))


def poly_exactly_count(ctx: FieldCtx, d: int) -> int:
    if d == 0:
        return ctx.q  # every constant, the zero map included
    return ctx.q**d * (ctx.q - 1)


def poly_exactly_at(ctx: FieldCtx, d: int, idx: int) -> Poly:
    if d == 0:
        return (idx,) if idx else ()
    return (*digits(idx, ctx.q, d), 1 + idx // ctx.q**d)


def enumerate_polys(ctx: FieldCtx, d: int, mode: EnumMode = "exactly") -> Iterator[Poly]:
    if d < 0:
        raise ValueError("degree must be >= 0")
    if mode == "at_most":
        count, at = poly_at_most_count(ctx, d), poly_at_most_at
    elif mode == "exactly":
        count, at = poly_exactly_count(ctx, d), poly_exactly_at
    else:
        raise ValueError(f"unknown mode {mode!r}")
    for i in range(count):
        yield at(ctx, d, i)


def monic_poly_at(ctx: FieldCtx, e: int, idx: int) -> Poly:
    """Monic polynomial of degree e with lower coefficients decoded from idx."""
    return (*digits(idx, ctx.q, e), 1)


def _monic_divisors(ctx: FieldCtx, f: Poly, degrees: range) -> Iterator[Poly]:
    """The monic divisors of f whose degree is in degrees, found by trial
    division in the order of monic_poly_at."""
    for k in degrees:
        for i in range(ctx.q**k):
            g = monic_poly_at(ctx, k, i)
            if not poly_divmod(ctx, f, g)[1]:
                yield g


def _is_irreducible_poly(ctx: FieldCtx, f: Poly) -> bool:
    """No monic divisor of degree 1..deg(f)//2."""
    return next(_monic_divisors(ctx, f, range(1, (len(f) - 1) // 2 + 1)), None) is None


def enumerate_rationals(ctx: FieldCtx, d: int, mode: EnumMode = "exactly") -> Iterator[RationalMap]:
    """Canonical rational maps, each exactly once.

    Denominators run over monic polynomials by degree, numerators over
    all polynomials of degree <= d in handle order; non-coprime pairs are
    skipped.  The constant-infinity map comes last when it belongs to the
    range (always for at_most, only at d = 0 for exactly).
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    if mode not in ("exactly", "at_most"):
        raise ValueError(f"unknown mode {mode!r}")
    q = ctx.q
    num_count = q ** (d + 1)
    for e in range(d + 1):
        for den_idx in range(q**e):
            den = monic_poly_at(ctx, e, den_idx)
            for num_idx in range(num_count):
                num = poly_at_most_at(ctx, d, num_idx)
                if mode == "exactly" and max(len(num) - 1, e) != d:
                    continue
                g = poly_gcd(ctx, num, den)
                if len(g) > 1:
                    continue
                yield RationalMap(num, den)
    if mode == "at_most" or d == 0:
        yield CONSTANT_INFINITY

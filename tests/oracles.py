"""Independent brute-force oracles used only by the test suite.

Most oracles here are written naively and separately from the library
so that agreement between the two is meaningful.  Values are handles
and structures in the same encodings the library uses, but none of the
library's arithmetic shortcuts (discrete-log tables, Zech logs, path
marking) appear in them.

The helpers at the end of the file, per_map_sums,
enumerate_quadratic_graphs, field_pow, count_cycle_givers, filter_walk_S
and the Moebius and conjugation block, are references of another kind:
they use the library's types (CycleSums, FunctionalGraph), field
arithmetic (FieldCtx), polynomial helpers and canonical forms
(canonicalize_rational), and check statements built on them, about sums,
graphs, powers or maps, rather than the arithmetic itself.  No command
or benchmark runs them.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Mapping, Sequence

from fqdyn.census import CycleSums
from fqdyn.ffield import FieldCtx, FqElem
from fqdyn.fgraph import FunctionalGraph
from fqdyn.fmaps import (
    CONSTANT_INFINITY,
    Poly,
    ProjPoint,
    RationalMap,
    canonicalize_rational,
    eval_poly,
    monic_poly_at,
    normalize_poly,
    poly_at_most_at,
    poly_at_most_count,
    poly_divmod,
    poly_mul,
    poly_scale,
)


def digits(a: int, p: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        a, d = divmod(a, p)
        out.append(d)
    return out


def undigits(ds: list[int], p: int) -> int:
    v = 0
    for d in reversed(ds):
        v = v * p + d
    return v


def oracle_add(a: int, b: int, p: int, n: int) -> int:
    """Digit-wise addition mod p, no tables."""
    da, db = digits(a, p, n), digits(b, p, n)
    return undigits([(x + y) % p for x, y in zip(da, db)], p)


def oracle_mul(a: int, b: int, p: int, n: int, modulus: tuple[int, ...]) -> int:
    """Schoolbook polynomial product reduced mod the defining polynomial."""
    da, db = digits(a, p, n), digits(b, p, n)
    prod = [0] * (2 * n)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    # long division by the monic modulus
    for top in range(2 * n - 1, n - 1, -1):
        c = prod[top]
        if c:
            prod[top] = 0
            for k in range(n):
                prod[top - n + k] = (prod[top - n + k] - c * modulus[k]) % p
    return undigits(prod[:n], p)


def _gfp_remainder(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by the monic b over GF(p), dense lists, least significant first."""
    a, n = list(a), len(b) - 1
    for top in range(len(a) - 1, n - 1, -1):
        c = a[top] % p
        for k in range(n + 1):
            a[top - n + k] = (a[top - n + k] - c * b[k]) % p
    return a[:n]


def plain_default_modulus(p: int, n: int) -> tuple[int, ...]:
    """The first monic degree-n polynomial over GF(p), in the order of its
    coefficients (c_0, ..., c_{n-1}), with no monic factor of degree
    1..n//2.  Every candidate is tried."""
    for low in product(range(p), repeat=n):
        cand = [*low, 1]
        divisors = ([*div, 1] for m in range(1, n // 2 + 1) for div in product(range(p), repeat=m))
        if all(any(_gfp_remainder(cand, div, p)) for div in divisors):
            return tuple(cand)
    raise AssertionError("every degree has an irreducible polynomial")


def oracle_components(succ: list[int]) -> int:
    """Count weakly connected components by undirected BFS."""
    size = len(succ)
    adj: list[list[int]] = [[] for _ in range(size)]
    for v, w in enumerate(succ):
        adj[v].append(w)
        adj[w].append(v)
    seen = [False] * size
    count = 0
    for s in range(size):
        if seen[s]:
            continue
        count += 1
        stack = [s]
        seen[s] = True
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


def oracle_periodic_points(succ: list[int]) -> set[int]:
    """A point is periodic iff iterating from it returns to it."""
    out = set()
    size = len(succ)
    for v in range(size):
        w = succ[v]
        for _ in range(size):
            if w == v:
                out.add(v)
                break
            w = succ[w]
    return out


def oracle_cycle_lengths(succ: list[int]) -> dict[int, int]:
    """Map cycle length -> number of cycles of that length."""
    periodic = oracle_periodic_points(succ)
    seen: set[int] = set()
    lengths: dict[int, int] = {}
    for v in sorted(periodic):
        if v in seen:
            continue
        cyc = [v]
        w = succ[v]
        while w != v:
            cyc.append(w)
            w = succ[w]
        seen.update(cyc)
        lengths[len(cyc)] = lengths.get(len(cyc), 0) + 1
    return lengths


def oracle_cycle_type(lengths: dict[int, int]) -> tuple[int, ...]:
    """The cycle lengths of oracle_cycle_lengths, once per cycle, in
    ascending order."""
    return tuple(sorted(k for k, n in lengths.items() for _ in range(n)))


def oracle_rho(succ: list[int], start: int) -> tuple[int, int]:
    """(tail_length, cycle_length) by recording first-visit positions."""
    pos: dict[int, int] = {}
    v = start
    t = 0
    while v not in pos:
        pos[v] = t
        v = succ[v]
        t += 1
    return pos[v], t - pos[v]


def falling(n: int, k: int) -> int:
    """n (n-1) ... (n-k+1); zero once the factors run past n."""
    out = 1
    for i in range(k):
        out *= n - i
    return out


def harmonic_like_sum(n: int, weight_extra_n: bool) -> Fraction:
    """Sum over k of falling(n,k)/(k * n^k) or falling(n,k)/n^k."""
    total = Fraction(0)
    for k in range(1, n + 1):
        term = Fraction(falling(n, k), n**k)
        if weight_extra_n:
            total += term
        else:
            total += term / k
    return total


def per_map_sums(cycle_counts: Iterable[Mapping[int, int]], kmax: int) -> CycleSums:
    """The sums a report reads, added up one map at a time from each map's
    cycle counts (length -> number of cycles of that length): the
    reference for census.cycle_sums, which derives them once per cycle
    type.  Lengths above kmax stay out of the per-length sums."""
    n = comps = per = comps_sq = per_sq = 0
    k_cycles: Counter = Counter()
    k_cycles_sq: Counter = Counter()
    for counts in cycle_counts:
        c, p = sum(counts.values()), sum(k * m for k, m in counts.items())
        n += 1
        comps += c
        per += p
        comps_sq += c * c
        per_sq += p * p
        for k, m in counts.items():
            if k <= kmax:
                k_cycles[k] += m
                k_cycles_sq[k] += m * m
    return CycleSums(
        n, comps, per, comps_sq, per_sq, dict(sorted(k_cycles.items())), dict(sorted(k_cycles_sq.items()))
    )


def enumerate_quadratic_graphs(m: int, t: int) -> Iterator[FunctionalGraph]:
    """Every labeled graph on m*t vertices with out-degree 1 everywhere and
    in-degree m on exactly t vertices (0 elsewhere), each once.

    Image sets run through lexicographic combinations; under each, the
    words that use every label 0..t-1 exactly m times run in lexicographic
    order, and the graph sends vertex v to image[w[v]].  The reference
    walk for baseline._labelling_at, which decodes the words of image
    range(t) one index at a time.
    """
    words = sorted(set(permutations([y for y in range(t) for _ in range(m)])))
    for image in combinations(range(m * t), t):
        for w in words:
            yield FunctionalGraph(tuple(image[y] for y in w))


def field_pow(ctx: FieldCtx, a: FqElem, e: int) -> FqElem:
    """a**e for e >= 0 by square-and-multiply through ctx.mul; 0**0 == 1."""
    acc = 1
    while e:
        if e & 1:
            acc = ctx.mul(acc, a)
        a, e = ctx.mul(a, a), e >> 1
    return acc


def count_cycle_givers(ctx: FieldCtx, d: int, cycle: Sequence[FqElem]) -> int:
    """Number of polynomials of degree <= d realizing the given cycle
    (alpha_0 -> alpha_1 -> ... -> alpha_0), by brute force.

    For cycle length k <= d+1 this must come out to q^(d+1-k); callers
    assert that contract.
    """
    k = len(cycle)
    if k == 0:
        raise ValueError("cycle must be nonempty")
    if len(set(cycle)) != k:
        raise ValueError("cycle elements must be distinct")
    count = 0
    for i in range(poly_at_most_count(ctx, d)):
        f = poly_at_most_at(ctx, d, i)
        if all(eval_poly(ctx, f, cycle[j]) == cycle[(j + 1) % k] for j in range(k)):
            count += 1
    return count


def filter_walk_S(ctx: FieldCtx, g0: Poly, g1: Poly, betas: Sequence[FqElem], gammas: Sequence[FqElem]) -> int:
    """census.enumerate_S's count by its definition: every monic f of
    degree deg(g0 g1), kept when g0 divides it and f(beta_i) =
    gamma_i * (g0 g1)(beta_i) for every i.  enumerate_S walks only the
    multiples g0 h; this walk visits all q^deg(g0 g1) candidates."""
    prod = poly_mul(ctx, g0, g1)
    j = len(prod) - 1
    targets = [ctx.mul(g, eval_poly(ctx, prod, b)) for b, g in zip(betas, gammas)]
    count = 0
    for idx in range(ctx.q**j):
        f = monic_poly_at(ctx, j, idx)
        if poly_divmod(ctx, f, g0)[1] == () and all(eval_poly(ctx, f, b) == t for b, t in zip(betas, targets)):
            count += 1
    return count


# Moebius transformations and conjugation.  A transformation
# x -> (ax+b)/(cx+d) is a 4-tuple (a, b, c, d) with nonzero determinant,
# scaled so the first nonzero entry is 1, which picks one representative
# per projective class.

Mobius = tuple[FqElem, FqElem, FqElem, FqElem]


def poly_add(ctx: FieldCtx, f: Poly, g: Poly) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = ctx.add(out[i], c)
    return normalize_poly(out)


def mobius_canonical(ctx: FieldCtx, m: Sequence[FqElem]) -> Mobius:
    a, b, c, d = m
    det = ctx.sub(ctx.mul(a, d), ctx.mul(b, c))
    if det == 0:
        raise ValueError("Moebius transformation must have nonzero determinant")
    for lead in (a, b, c, d):
        if lead:
            s = ctx.inv(lead)
            return (ctx.mul(s, a), ctx.mul(s, b), ctx.mul(s, c), ctx.mul(s, d))
    raise AssertionError("unreachable: zero tuple has zero determinant")


def mobius_inverse(ctx: FieldCtx, m: Mobius) -> Mobius:
    a, b, c, d = m
    return mobius_canonical(ctx, (d, ctx.neg(b), ctx.neg(c), a))


def mobius_apply(ctx: FieldCtx, m: Mobius, x: ProjPoint) -> ProjPoint:
    a, b, c, d = m
    inf = ctx.q
    if x == inf:
        if c == 0:
            return inf
        return ctx.mul(a, ctx.inv(c))
    denom = ctx.add(ctx.mul(c, x), d)
    if denom == 0:
        return inf
    return ctx.mul(ctx.add(ctx.mul(a, x), b), ctx.inv(denom))


def enumerate_mobius(ctx: FieldCtx) -> Iterator[Mobius]:
    """All q^3 - q canonical transformations, deterministic order."""
    q = ctx.q
    # first nonzero entry is 1: either a = 1, or a = 0 and b = 1
    for b in range(q):
        for c in range(q):
            for d in range(q):
                if ctx.sub(d, ctx.mul(b, c)) != 0:
                    yield (1, b, c, d)
    for c in range(1, q):  # a = 0, b = 1: determinant is -c
        for d in range(q):
            yield (0, 1, c, d)


def _substitute_mobius(ctx: FieldCtx, f: Poly, lin_num: Poly, lin_den: Poly, e: int) -> Poly:
    """Homogenized substitution sum_i f_i * lin_num^i * lin_den^(e-i)."""
    acc: Poly = ()
    num_pow: Poly = (1,)
    den_pows = [(1,)]
    for _ in range(e):
        den_pows.append(poly_mul(ctx, den_pows[-1], lin_den))
    for i in range(e + 1):
        c = f[i] if i < len(f) else 0
        if c:
            term = poly_scale(ctx, c, poly_mul(ctx, num_pow, den_pows[e - i]))
            acc = poly_add(ctx, acc, term)
        if i < e:
            num_pow = poly_mul(ctx, num_pow, lin_num)
    return acc


def conjugate(ctx: FieldCtx, r: RationalMap, phi: Sequence[FqElem]) -> RationalMap:
    """The map phi o r o phi^(-1), canonicalized; degree is preserved."""
    m = mobius_canonical(ctx, phi)
    a, b, c, d = m
    if r.is_constant_infinity:
        # everything lands on phi(infinity)
        image = mobius_apply(ctx, m, ctx.q)
        if image == ctx.q:
            return CONSTANT_INFINITY
        return RationalMap((image,) if image else (), (1,))
    ia, ib, ic, id_ = mobius_inverse(ctx, m)
    e = r.degree
    lin_num = normalize_poly((ib, ia))  # phi^(-1) numerator:   ia*x + ib
    lin_den = normalize_poly((id_, ic))  # phi^(-1) denominator: ic*x + id
    n1 = _substitute_mobius(ctx, r.num, lin_num, lin_den, e)
    d1 = _substitute_mobius(ctx, r.den, lin_num, lin_den, e)
    out_num = poly_add(ctx, poly_scale(ctx, a, n1), poly_scale(ctx, b, d1))
    out_den = poly_add(ctx, poly_scale(ctx, c, n1), poly_scale(ctx, d, d1))
    result = canonicalize_rational(ctx, out_num, out_den)
    if result.degree != r.degree:
        raise AssertionError(
            f"conjugation changed degree {r.degree} -> {result.degree}; "
            "this is a bug, not valid data"
        )
    return result

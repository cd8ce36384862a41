"""Closed-form counts, bounds, and asymptotics for cycle statistics.

Everything exact is computed in arbitrary-precision rational arithmetic
(stdlib Fraction); floats appear only in asymptotic diagnostics, which
are informational and never drive exact pass/fail comparisons.

Conventions used throughout:
  - falling(n, k) = n(n-1)...(n-k+1), which is 0 as soon as k > n.
  - Averages over polynomials of degree d are taken over the q^d(q-1)
    maps of degree exactly d (all q constants at d = 0); averages over
    rational maps of degree d are over q^(2d-1)(q^2-1) maps (q+1 at
    d = 0, the constant-infinity map included).
  - Bounds that can go nonpositive or lose their hypothesis are returned
    as stated and flagged vacuous, never clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .reportio import frac_json

EULER_GAMMA = 0.57721566490153286


def falling(n: int, k: int) -> int:
    """Falling factorial n(n-1)...(n-k+1); 0 when k > n."""
    return math.perm(n, k)


def harmonic(n: int) -> Fraction:
    """Sum of 1/k for k = 1..n (0 when n < 1)."""
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


@dataclass(frozen=True)
class BoundSet:
    """A lower/upper bound pair for one graph statistic.

    lower_is_tight records the exact-equality condition of the statement
    the pair comes from (for rational k-cycles k > q + 1, where no map has
    one and lower = upper = 0); lower_applies is False when the statement
    only asserts the upper bound for these arguments; vacuous_lower marks
    a lower bound that carries no information (nonpositive, or its
    coefficient has the wrong sign).  notes holds auxiliary diagnostics
    such as float minorants and sharper intermediate forms.
    """

    lower: Fraction
    upper: Fraction
    lower_is_tight: bool = False
    lower_applies: bool = True
    vacuous_lower: bool = False
    center: Fraction | None = None
    notes: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        out: dict = {
            "lower": frac_json(self.lower),
            "upper": frac_json(self.upper),
            "lower_is_tight": self.lower_is_tight,
            "lower_applies": self.lower_applies,
            "vacuous_lower": self.vacuous_lower,
        }
        if self.center is not None:
            out["center"] = frac_json(self.center)
        if self.notes:
            out["notes"] = {k: frac_json(v) if isinstance(v, Fraction) else v for k, v in self.notes.items()}
        return out


# --- polynomial maps ---------------------------------------------------------


def poly_cycle_sum(q: int, d: int, k: int) -> int:
    """Total number of k-cycles across all polynomials of degree <= d.

    Equals falling(q,k)/k * q^(d-k+1): a k-cycle is a choice of k
    distinct points up to rotation, and the polynomials of degree <= d
    realizing it are counted by interpolation through the remaining
    degrees of freedom.
    """
    if not 1 <= k <= d + 1:
        raise ValueError(f"k = {k} outside 1..d+1 = {d + 1}")
    total = Fraction(falling(q, k), k) * q ** (d - k + 1)
    if total.denominator != 1:
        raise AssertionError("k-cycle total must be an integer; this is a bug")
    return int(total)


def poly_avg_k(q: int, d: int, k: int) -> Fraction:
    """Average number of k-cycles per degree-d polynomial: falling(q,k)/(k q^k).

    Valid for 1 <= k <= d, and for the constant case d = 0, k = 1; the
    value does not depend on d inside that region.
    """
    if not (1 <= k <= d or (d == 0 and k == 1)):
        raise ValueError(f"(d, k) = ({d}, {k}) outside the validity region")
    return Fraction(falling(q, k), k * q**k)


def poly_component_bounds(q: int, d: int) -> BoundSet:
    """Bounds on the average number of components of a degree-d polynomial.

    Lower: sum of falling(q,k)/(k q^k) for k = 1..min(d,q), exact when
    d >= q, and at d = q-1 when q > 2, where no polynomial permutes F_q
    (so none has a q-cycle).  Upper: harmonic(d+1) + q/(d+2) for
    d < q-1, harmonic(q) otherwise.  A logarithmic float minorant log(min(d, isqrt(q))+1) - 1/4
    rides along as a diagnostic.
    """
    m = min(d, q)
    lower = sum((Fraction(falling(q, k), k * q**k) for k in range(1, m + 1)), Fraction(0))
    if d < q - 1:
        upper = harmonic(d + 1) + Fraction(q, d + 2)
    else:
        upper = harmonic(q)
    minorant = math.log(min(d, math.isqrt(q)) + 1) - 0.25
    return BoundSet(
        lower=lower,
        upper=upper,
        lower_is_tight=d >= q or (q > 2 and d == q - 1),
        notes={"log_minorant": minorant},
    )


def poly_periodic_lower(q: int, d: int) -> Fraction:
    """Lower bound on the average number of periodic points of a degree-d
    polynomial: sum of falling(q,k)/q^k for k = 1..min(d,q); exact where
    poly_component_bounds(q, d).lower_is_tight."""
    return sum((Fraction(falling(q, k), q**k) for k in range(1, min(d, q) + 1)), Fraction(0))


def poly_periodic_minorant(q: int, d: int) -> float:
    """Float minorant (5/6) min(d, isqrt(q)) for the periodic-point average."""
    return 5.0 / 6.0 * min(d, math.isqrt(q))


# --- rational maps -----------------------------------------------------------


def rat_count(q: int, d: int, mode: str = "exactly") -> int:
    """Number of rational self-maps of the projective line of degree d.

    at_most: q^(2d+1) + 1.  exactly: q + 1 when d = 0 (the constants,
    infinity included), else q^(2d-1)(q^2 - 1).
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    if mode == "at_most":
        return q ** (2 * d + 1) + 1
    if mode == "exactly":
        return q + 1 if d == 0 else q ** (2 * d - 1) * (q * q - 1)
    raise ValueError(f"unknown mode {mode!r}")


def coprime_prob(q: int, d: int) -> Fraction:
    """Probability that a uniform pair of polynomials of degree <= d is
    coprime: 1 - 1/q + (q-1)/q^(2d+2).  The pair ranges over all
    q^(2d+2) ordered pairs, with (0, 0) counted as not coprime, so
    coprime_prob(3, 0) == 8/9."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    return 1 - Fraction(1, q) + Fraction(q - 1, q ** (2 * d + 2))


def rat_k_cycle_total_bounds(q: int, d: int, k: int) -> BoundSet:
    """Strict bounds on the total number of k-cycles across all rational
    maps of degree <= d.

    With K = falling(q+1,k)/k * q^(2d-k), the total lies strictly
    between (q-k-1) K and q K.  The lower bound is vacuous when
    q - k - 1 <= 0, and tight (K = 0) past k = q + 1.
    """
    if not 1 <= k <= d + 1:
        raise ValueError(f"k = {k} outside 1..d+1 = {d + 1}")
    center = Fraction(falling(q + 1, k), k) * Fraction(q) ** (2 * d - k)
    lower = (q - k - 1) * center
    upper = q * center
    return BoundSet(
        lower=lower,
        upper=upper,
        lower_is_tight=k > q + 1,
        vacuous_lower=q - k - 1 <= 0,
        center=center,
    )


def rat_avg_k_bounds(q: int, d: int, k: int) -> BoundSet:
    """Bounds on the average number of k-cycles per degree-d rational map.

    Center falling(q+1,k)/(k q^k), bracketed by factors (1 - (2k+2)/q)
    and (1 + 2/q^2), both strict.  The lower bound is asserted only for
    k <= d; at k = d+1 only the upper bound applies.  Past k = q + 1 the
    center is 0 and the pair is tight.
    """
    if not 1 <= k <= d + 1:
        raise ValueError(f"k = {k} outside 1..d+1 = {d + 1}")
    center = Fraction(falling(q + 1, k), k * q**k)
    lower = center * (1 - Fraction(2 * k + 2, q))
    upper = center * (1 + Fraction(2, q * q))
    return BoundSet(
        lower=lower,
        upper=upper,
        lower_is_tight=k > q + 1,
        lower_applies=k <= d,
        vacuous_lower=lower <= 0,
        center=center,
    )


def rat_component_bounds(q: int, d: int) -> BoundSet:
    """Bounds on the average number of components of a degree-d rational map.

    Lower (statement form): harmonic(min(d, isqrt(q))) - 4.  When
    d^2 <= q the sharper intermediate form harmonic(d) - (d^2+15d)/(4q)
    from the same derivation is reported in notes.  Upper:
    (q+1)/(d+2) + (1 + 2/q^2) harmonic(d+1) for d < q-1, else
    (1 + 2/q^2) harmonic(q+1).
    """
    lower = harmonic(min(d, math.isqrt(q))) - 4
    factor = 1 + Fraction(2, q * q)
    if d < q - 1:
        upper = Fraction(q + 1, d + 2) + factor * harmonic(d + 1)
    else:
        upper = factor * harmonic(q + 1)
    notes: dict = {}
    if d * d <= q:
        notes["sharper_lower"] = harmonic(d) - Fraction(d * d + 15 * d, 4 * q)
    return BoundSet(
        lower=lower,
        upper=upper,
        vacuous_lower=lower <= 0,
        notes=notes,
    )


def rat_periodic_lower(q: int, d: int) -> Fraction:
    """Lower bound on the average number of periodic points of a degree-d
    rational map: sum over k = 1..min(d,q) of
    (falling(q+1,k)/q^k)(1 - (k+4)/q)."""
    total = Fraction(0)
    for k in range(1, min(d, q) + 1):
        total += Fraction(falling(q + 1, k), q**k) * (1 - Fraction(k + 4, q))
    return total


def rat_periodic_minorant(q: int, d: int) -> float:
    """Float minorant (5/6) min(d, isqrt(q)) - 3 for the rational case."""
    return 5.0 / 6.0 * min(d, math.isqrt(q)) - 3.0


# --- baselines ---------------------------------------------------------------


@dataclass(frozen=True)
class RandomMapStats:
    """Exact averages over all n^n self-maps of an n-set, with the
    classical large-n asymptotics as float diagnostics."""

    components_exact: Fraction
    components_asymptotic: float
    periodic_exact: Fraction
    periodic_asymptotic: float


def random_components_asymptotic(n: int) -> float:
    """Large-n mean component count of a random self-map."""
    return 0.5 * math.log(n) + (math.log(2) + EULER_GAMMA) / 2


def random_periodic_asymptotic(n: int) -> float:
    """Large-n mean periodic-point count of a random self-map."""
    return math.sqrt(math.pi * n / 2)


def random_map_stats(n: int) -> RandomMapStats:
    """Average component and periodic-point counts of a uniform random
    self-map of an n-set.

    components = sum falling(n,k)/(k n^k); periodic = sum falling(n,k)/n^k;
    asymptotically (log n)/2 + (log 2 + gamma)/2 and sqrt(pi n / 2).

    The sums run over integer terms f_k = falling(n,k) n^(n-k), so
    f_(k+1) = f_k (n-k) / n exactly: periodic = (sum f_k) / n^n and
    components = (sum f_k L/k) / (L n^n) with L = lcm(1..n).  The
    integers have about n log10(n) digits, so this is meant for n up to
    a few thousand; for larger n use the asymptotic helpers directly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    nn = n**n
    lcm = math.lcm(*range(1, n + 1))
    f = nn  # f_1
    peri = comps = 0
    for k in range(1, n + 1):
        peri += f
        comps += f * (lcm // k)
        f = f // n * (n - k)
    comps, peri = Fraction(comps, lcm * nn), Fraction(peri, nn)
    return RandomMapStats(
        components_exact=comps,
        components_asymptotic=random_components_asymptotic(n),
        periodic_exact=peri,
        periodic_asymptotic=random_periodic_asymptotic(n),
    )


@dataclass(frozen=True)
class QuadGraphStats:
    """Counting data for functional graphs on mt vertices whose in-degrees
    are all 0 or m."""

    graph_count: int
    avg_periodic: Fraction


def quad_graph_stats(m: int, t: int) -> QuadGraphStats:
    """Labeled functional graphs on mt vertices, t of them with in-degree
    m and the rest with in-degree 0.

    graph_count = C(mt,t) (mt)!/(m!)^t.  The average number of periodic
    points is -1 + C(mt,t)^(-1) sum_{k=0..t} m^k C(mt-k, t-k); for m = 2
    this collapses to -1 + 4^t/C(2t,t) (asserted), and for m = 1 it is
    exactly t (asserted).
    """
    if m < 1 or t < 1:
        raise ValueError("need m >= 1 and t >= 1")
    count = math.comb(m * t, t) * math.factorial(m * t) // math.factorial(m) ** t
    total = sum(m**k * math.comb(m * t - k, t - k) for k in range(t + 1))
    avg = -1 + Fraction(total, math.comb(m * t, t))
    if m == 2 and avg != -1 + Fraction(4**t, math.comb(2 * t, t)):
        raise AssertionError("closed form disagrees with summation; this is a bug")
    if m == 1 and avg != t:
        raise AssertionError("m = 1 average must equal t; this is a bug")
    return QuadGraphStats(graph_count=count, avg_periodic=avg)

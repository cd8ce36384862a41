"""Random functional graphs and in-degree-constrained graph families.

Two reference families put the field censuses in context: uniform
random self-maps of an n-set, and labeled graphs on m*t vertices where
every vertex has out-degree 1 and in-degree either 0 or m (for m = 2
these model maps where every value has zero or two preimages).

Exhaustive enumeration at tiny sizes is compared exactly against the
closed forms: random maps are decoded from their index, and quadratic
graphs from their index among the labellings of one image set, their
tally weighed by the number of image sets.  Samplers give Monte Carlo
estimates with standard errors and z-scores at sizes where enumeration
is out of reach.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from .census import BudgetError, Report, _check_budget, _report_fields, compare, cycle_sums, run_blocks
from .ffield import digits
from .fgraph import FunctionalGraph, cycle_census
from .seeding import per_index_rng
from .theory import (
    quad_graph_stats,
    random_components_asymptotic,
    random_map_stats,
    random_periodic_asymptotic,
)

RANDOM_EXHAUSTIVE_MAX_N = 7
QUADRATIC_EXHAUSTIVE_MAX_GRAPHS = 10**7
RANDOM_EXACT_THEORY_MAX_N = 4000
# a sampled self-map draws each value from one 32-bit Mersenne Twister word
RANDOM_SAMPLED_MAX_N = 2**32 - 1


def sample_random_map(n: int, seed: int) -> FunctionalGraph:
    """Uniform random self-map of [0, n); deterministic given seed."""
    if not 1 <= n <= RANDOM_SAMPLED_MAX_N:
        raise ValueError(f"n must lie in [1, {RANDOM_SAMPLED_MAX_N}]")
    return _random_map(n, per_index_rng(seed, 0))


def _random_map(n: int, rng) -> FunctionalGraph:
    """The self-map [rng.randrange(n) for _ in range(n)], drawn in bulk.

    In CPython, randrange(n) keeps the top k = n.bit_length() bits of one
    32-bit Mersenne Twister word and draws again while they reach n, and
    getrandbits(32 * m) packs the next m words with the first word lowest.
    So each batch takes as many words as values are missing, decodes them
    from its little-endian bytes with the "<I" format, whose size and byte
    order are fixed on every host, and keeps the words whose top k bits lie
    below n.  Words drawn past the last value are never read: rng is this
    map's own stream.  Needs n < 2**32.
    """
    shift = 32 - n.bit_length()
    limit = n << shift
    values: list[int] = []
    while missing := n - len(values):
        words = struct.unpack(f"<{missing}I", rng.getrandbits(32 * missing).to_bytes(4 * missing, "little"))
        values += [w >> shift for w in words if w < limit]
    return FunctionalGraph(tuple(values))


def _map_at(n: int, idx: int) -> FunctionalGraph:
    """Self-map number idx of the n^n, its values the base-n digits of idx."""
    return FunctionalGraph(tuple(digits(idx, n, n)))


def _labelling_at(m: int, t: int, i: int) -> FunctionalGraph:
    """The graph v -> w[v] of word number i, in lexicographic order, among
    the (mt)!/(m!)^t words that use each label 0..t-1 exactly m times.

    At each vertex, with W words left, n vertices left and have uses of
    label y left, W*have/n of the words put y there.
    """
    have = [m] * t
    n = m * t
    words = math.factorial(n) // math.factorial(m) ** t
    succ = []
    while n:
        y = 0
        while i >= (block := words * have[y] // n):
            i -= block
            y += 1
        words = block
        have[y] -= 1
        n -= 1
        succ.append(y)
    return FunctionalGraph(tuple(succ))


def _quadratic_graph(m: int, t: int, rng) -> FunctionalGraph:
    """Uniform over the labeled in-degree-{0, m} family, drawn from rng."""
    size = m * t
    image = sorted(rng.sample(range(size), t))
    labels = [i for i in range(t) for _ in range(m)]
    rng.shuffle(labels)
    return FunctionalGraph(tuple(image[lab] for lab in labels))


@dataclass(frozen=True, kw_only=True)
class BaselineReport(Report):
    kind: str  # "random" | "quadratic"
    size: int
    graph_count: int
    m: int | None = None
    t: int | None = None

    def to_jsonable(self) -> dict:
        out = super().to_jsonable() | {
            "family": f"baseline:{self.kind}",
            "size": self.size,
            "graph_count": self.graph_count,
        }
        if self.kind == "quadratic":
            out["m"] = self.m
            out["t"] = self.t
        return out


def _graph_block(make: Callable, args: tuple, seed: int | None, start: int, stop: int) -> Counter:
    """Tally by cycle type the graphs make(*args, i) for the indices i in
    [start, stop), or, with a seed, make(*args, rng) on each index's own
    random stream."""
    graphs = (make(*args, i if seed is None else per_index_rng(seed, i)) for i in range(start, stop))
    return Counter(map(cycle_census, graphs))


def baseline_census(
    kind: str,
    *,
    n: int | None = None,
    m: int | None = None,
    t: int | None = None,
    mode: str = "exhaustive",
    samples: int = 0,
    seed: int = 0,
    jobs: int = 1,
    budget: int | None = None,
) -> BaselineReport:
    """Aggregate cycle statistics over one baseline family.

    kind "random" takes n; kind "quadratic" takes m and t.  Exhaustive
    mode checks exact equality with the closed forms; sampled mode
    attaches five-sigma z-score checks instead.  Either way the graphs
    times their vertices must fit the budget.

    Each check is (name, stat, expected): stat names the average checked,
    None the graph count.  Every run is one task of graphs make(*args, i),
    or make(*args, rng) when sampled.  Conjugating by a vertex permutation
    keeps the cycle type and moves any image set onto range(t), so an
    exhaustive quadratic run decodes the labellings of image range(t) and
    weighs their tally by the C(mt, t) image sets; its budget and cap
    still count every graph of the family.
    """
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown baseline mode {mode!r}")
    sampled = mode == "sampled"
    if sampled and samples < 1:
        raise ValueError("sampled mode needs samples >= 1")
    notes: dict = {}
    weight = 1
    if kind == "random":
        if n is None or n < 1:
            raise ValueError("random baseline needs n >= 1")
        size, extra, make, args = n, {}, _random_map if sampled else _map_at, (n,)
        if sampled and n > RANDOM_SAMPLED_MAX_N:
            raise ValueError(f"sampled random baseline needs n <= {RANDOM_SAMPLED_MAX_N}")
        if sampled and n > RANDOM_EXACT_THEORY_MAX_N:
            # the exact sums involve integers with about n log10(n) digits, so
            # past a few thousand points compare against the asymptotics
            checks = (
                ("components_z_asymptotic", "components", Fraction(random_components_asymptotic(n))),
                ("periodic_z_asymptotic", "periodic", Fraction(random_periodic_asymptotic(n))),
            )
        elif sampled:
            th = random_map_stats(n)
            checks = (("components_z", "components", th.components_exact), ("periodic_z", "periodic", th.periodic_exact))
        else:
            if n > RANDOM_EXHAUSTIVE_MAX_N:
                raise BudgetError(
                    f"n = {n} exceeds the exhaustive cap {RANDOM_EXHAUSTIVE_MAX_N} "
                    f"({n}^{n} maps); use sampling instead"
                )
            th = random_map_stats(n)
            checks = (
                ("random_components_exact", "components", th.components_exact),
                ("random_periodic_exact", "periodic", th.periodic_exact),
            )
            notes["asymptotics"] = {"components": th.components_asymptotic, "periodic": th.periodic_asymptotic}
            count, what = n**n, f"exhaustive random baseline of {n}^{n} maps"
    elif kind == "quadratic":
        if m is None or t is None or m < 1 or t < 1:
            raise ValueError("quadratic baseline needs m >= 1 and t >= 1")
        th_q = quad_graph_stats(m, t)
        size, extra, make, args = m * t, {"m": m, "t": t}, _quadratic_graph if sampled else _labelling_at, (m, t)
        if sampled:
            checks = (("periodic_z", "periodic", th_q.avg_periodic),)
        else:
            checks = (
                ("quadratic_graph_count", None, Fraction(th_q.graph_count)),
                ("quadratic_periodic_exact", "periodic", th_q.avg_periodic),
            )
            count, what = th_q.graph_count, f"exhaustive quadratic baseline of {th_q.graph_count} graphs"
            weight = math.comb(size, t)
    else:
        raise ValueError(f"unknown baseline kind {kind!r}")
    if sampled:
        count, what = samples, f"sampled {kind} baseline of {samples} graphs"
    _check_budget(count * size, budget, what, "lower the sample count" if sampled else "use sampling instead")
    if make is _labelling_at and count > QUADRATIC_EXHAUSTIVE_MAX_GRAPHS:
        raise BudgetError(
            f"{count} graphs exceed the exhaustive cap {QUADRATIC_EXHAUSTIVE_MAX_GRAPHS}; use sampling instead"
        )
    [types] = run_blocks(_graph_block, [((make, args, seed if sampled else None), count // weight)], jobs)
    s = cycle_sums(Counter({c: k * weight for c, k in types.items()}), 0)
    rep = BaselineReport(
        kind=kind, size=size, graph_count=s.map_count, notes=notes, **extra, **_report_fields(s, mode, seed)
    )
    avg = {"components": rep.avg_components, "periodic": rep.avg_periodic, None: Fraction(rep.graph_count)}
    se = {"components": rep.stderr_components, "periodic": rep.stderr_periodic}
    rows = tuple(
        compare(name, avg[stat], "==", expected=want, drawn=rep.sample_count, stderr=se.get(stat), stat=stat)
        for name, stat, want in checks
    )
    return replace(rep, theory_comparison=rows)

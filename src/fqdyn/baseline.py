"""Random functional graphs and in-degree-constrained graph families.

Two reference families put the field censuses in context: uniform
random self-maps of an n-set, and labeled graphs on m*t vertices where
every vertex has out-degree 1 and in-degree either 0 or m (for m = 2
these model maps where every value has zero or two preimages).

Exhaustive enumeration at tiny sizes is compared exactly against the
closed forms; samplers give Monte Carlo estimates with standard errors
and z-scores at sizes where enumeration is out of reach.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterator

from .census import BudgetError, TheoryComparison, _check_budget, compare, cycle_sums, mean_stderr, run_blocks
from .ffield import digits
from .fgraph import FunctionalGraph, cycle_census
from .reportio import frac_json
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


def _multiset_assignments(t: int, m: int, total: int) -> Iterator[tuple[int, ...]]:
    """All length-total sequences using each block label 0..t-1 exactly m
    times, in lexicographic order."""
    counts = [m] * t
    seq: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if len(seq) == total:
            yield tuple(seq)
            return
        for label in range(t):
            if counts[label]:
                counts[label] -= 1
                seq.append(label)
                yield from rec()
                seq.pop()
                counts[label] += 1

    yield from rec()


def enumerate_quadratic_graphs(m: int, t: int) -> Iterator[FunctionalGraph]:
    """Every labeled graph on m*t vertices with out-degree 1 everywhere and
    in-degree m on exactly t vertices (0 elsewhere), each exactly once.

    Image sets run through lexicographic combinations; preimage blocks
    through lexicographic assignments.
    """
    if m < 1 or t < 1:
        raise ValueError("need m >= 1 and t >= 1")
    size = m * t
    expected = quad_graph_stats(m, t).graph_count
    if expected > QUADRATIC_EXHAUSTIVE_MAX_GRAPHS:
        raise BudgetError(
            f"{expected} graphs exceed the exhaustive cap "
            f"{QUADRATIC_EXHAUSTIVE_MAX_GRAPHS}; use sampling instead"
        )
    for image in combinations(range(size), t):
        for labels in _multiset_assignments(t, m, size):
            yield FunctionalGraph(tuple(image[lab] for lab in labels))


def _quadratic_graph(m: int, t: int, rng) -> FunctionalGraph:
    """Uniform over the labeled in-degree-{0, m} family, drawn from rng."""
    size = m * t
    image = sorted(rng.sample(range(size), t))
    labels = [i for i in range(t) for _ in range(m)]
    rng.shuffle(labels)
    return FunctionalGraph(tuple(image[lab] for lab in labels))


@dataclass(frozen=True)
class BaselineReport:
    kind: str  # "random" | "quadratic"
    mode: str  # "exhaustive" | "sampled"
    size: int
    graph_count: int
    avg_components: Fraction
    avg_periodic: Fraction
    m: int | None = None
    t: int | None = None
    theory_comparison: tuple[TheoryComparison, ...] = ()
    sample_count: int | None = None
    seed: int | None = None
    stderr_components: float | None = None
    stderr_periodic: float | None = None
    notes: dict = field(default_factory=dict)

    @property
    def failed(self) -> list[TheoryComparison]:
        return [c for c in self.theory_comparison if c.status == "fail"]

    def to_jsonable(self) -> dict:
        out: dict = {
            "family": f"baseline:{self.kind}",
            "mode": self.mode,
            "size": self.size,
            "graph_count": self.graph_count,
            "avg_components": frac_json(self.avg_components),
            "avg_periodic": frac_json(self.avg_periodic),
            "theory_comparison": [c.to_jsonable() for c in self.theory_comparison],
        }
        if self.kind == "quadratic":
            out["m"] = self.m
            out["t"] = self.t
        if self.mode == "sampled":
            out["sample_count"] = self.sample_count
            out["seed"] = self.seed
            out["stderr_components"] = self.stderr_components
            out["stderr_periodic"] = self.stderr_periodic
        if self.notes:
            out["notes"] = self.notes
        return out


def _graph_block(make: Callable, args: tuple, seed: int | None, start: int, stop: int) -> Counter:
    """Tally by cycle type the graphs make(*args, i) for the indices i in
    [start, stop), or, with a seed, make(*args, rng) on each index's own
    random stream."""
    graphs = (make(*args, i if seed is None else per_index_rng(seed, i)) for i in range(start, stop))
    return Counter(map(cycle_census, graphs))


def _baseline_report(kind: str, mode: str, size: int, types: Counter, checks, **extra) -> BaselineReport:
    """Averages from the cycle-type tally, and one equality row per (name,
    stat, expected) check; stat names the average checked, None the graph
    count."""
    s = cycle_sums(types, 0)
    n = s.map_count
    avg = {"components": Fraction(s.components, n), "periodic": Fraction(s.periodic, n), None: Fraction(n)}
    se = {
        "components": mean_stderr(s.components, s.components_sq, n),
        "periodic": mean_stderr(s.periodic, s.periodic_sq, n),
    }
    drawn = n if mode == "sampled" else None
    return BaselineReport(
        kind=kind,
        mode=mode,
        size=size,
        graph_count=n,
        avg_components=avg["components"],
        avg_periodic=avg["periodic"],
        theory_comparison=tuple(
            compare(name, avg[stat], "==", expected=want, drawn=drawn, stderr=se.get(stat), stat=stat)
            for name, stat, want in checks
        ),
        sample_count=n,
        stderr_components=se["components"],
        stderr_periodic=se["periodic"],
        **extra,
    )


def exhaustive_random_stats(n: int, jobs: int = 1, budget: int | None = None) -> BaselineReport:
    """Exact averages over all n^n self-maps; must equal the closed-form
    sums exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > RANDOM_EXHAUSTIVE_MAX_N:
        raise BudgetError(
            f"n = {n} exceeds the exhaustive cap {RANDOM_EXHAUSTIVE_MAX_N} "
            f"({n}^{n} maps); use sampling instead"
        )
    _check_budget(n**n * n, budget, f"exhaustive random baseline of {n}^{n} maps", "use sampling instead")
    types = run_blocks(_graph_block, [((_map_at, (n,), None), n**n)], jobs)
    th = random_map_stats(n)
    checks = (
        ("random_components_exact", "components", th.components_exact),
        ("random_periodic_exact", "periodic", th.periodic_exact),
    )
    asymptotics = {"components": th.components_asymptotic, "periodic": th.periodic_asymptotic}
    return _baseline_report("random", "exhaustive", n, types, checks, notes={"asymptotics": asymptotics})


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
    """
    if mode != "exhaustive" and samples < 1:
        raise ValueError("sampled mode needs samples >= 1")
    if kind == "random":
        if n is None or n < 1:
            raise ValueError("random baseline needs n >= 1")
        if mode == "exhaustive":
            return exhaustive_random_stats(n, jobs=jobs, budget=budget)
        if n > RANDOM_SAMPLED_MAX_N:
            raise ValueError(f"sampled random baseline needs n <= {RANDOM_SAMPLED_MAX_N}")
        size, make, args, extra = n, _random_map, (n,), {}
    elif kind == "quadratic":
        if m is None or t is None or m < 1 or t < 1:
            raise ValueError("quadratic baseline needs m >= 1 and t >= 1")
        th_q = quad_graph_stats(m, t)
        size, make, args, extra = m * t, _quadratic_graph, (m, t), {"m": m, "t": t}
        if mode == "exhaustive":
            what = f"exhaustive quadratic baseline of {th_q.graph_count} graphs"
            _check_budget(th_q.graph_count * size, budget, what, "use sampling instead")
            types = Counter(map(cycle_census, enumerate_quadratic_graphs(m, t)))
            checks = (
                ("quadratic_graph_count", None, Fraction(th_q.graph_count)),
                ("quadratic_periodic_exact", "periodic", th_q.avg_periodic),
            )
            return _baseline_report("quadratic", "exhaustive", size, types, checks, **extra)
    else:
        raise ValueError(f"unknown baseline kind {kind!r}")
    _check_budget(samples * size, budget, f"sampled {kind} baseline of {samples} graphs", "lower the sample count")
    if kind == "quadratic":
        checks = (("periodic_z", "periodic", th_q.avg_periodic),)
    elif n <= RANDOM_EXACT_THEORY_MAX_N:
        th = random_map_stats(n)
        checks = (("components_z", "components", th.components_exact), ("periodic_z", "periodic", th.periodic_exact))
    else:
        # the exact sums involve integers with about n log10(n) digits, so
        # past a few thousand points compare against the asymptotics
        checks = (
            ("components_z_asymptotic", "components", Fraction(random_components_asymptotic(n))),
            ("periodic_z_asymptotic", "periodic", Fraction(random_periodic_asymptotic(n))),
        )
    types = run_blocks(_graph_block, [((make, args, seed), samples)], jobs)
    return _baseline_report(kind, "sampled", size, types, checks, seed=seed, **extra)

"""Exhaustive and sampled censuses of cycle statistics, with the
closed-form values attached as pass/fail comparisons.

Every run, census, baseline or rho, is one pipeline: a run is a list of
tasks, each an index range split into contiguous blocks, and each
task's blocks merge by plain addition into one result per task.  Every
block counts in a Counter: the exhaustive census walks slots of maps
(_census_block), and every other run, drawn censuses, rho walks, both
baselines and the prov checks, tallies one value per index i, made from
i or drawn from i's own random stream (_per_index_block).  Addition is
associative and commutative, so every worker count and schedule yields
byte-identical reports.  With more than one worker the parent forks a
child per extra worker, runs its own share of the blocks, and reads
each child's results back through a pipe; the results merge in block
order whatever process computed them (run_blocks).  Census and
baseline blocks count maps by cycle type, the sorted tuple of cycle
lengths (fgraph.cycle_census); a report derives every sum it reads once
per type (cycle_sums), and kmax applies only there.

The exhaustive census walks the maps of one exact degree.  Totals over
degree <= d for every d <= dmax are one run with a task per degree:
each degree is tallied once, and the totals are running sums of the
per-degree tallies.

No census evaluates a map point by point.  An exhaustive polynomial
block decodes its first slot once and walks the rest as an odometer,
building each map's successor table from running sums of value columns
(see _column_runs).  A rational slot is one monic denominator: the block
decodes it alone and walks its numerators of degree d, or of degree <= d
when the denominator has degree d, the same way under its value column.
A drawn map's values come from the same columns (fmaps.poly_values,
through build_graph).  Only rho walks, which visit a few points of each
map, keep Horner evaluation (Family.evaluate).

Nor does a census gcd-test raw pairs.  A rational block marks once per
denominator the numerators that share a factor with it, the multiples
of its monic divisors (_shared_factor_slots), and skips a numerator by
looking its index up; fmaps.enumerate_rationals, the independent
reference, walks every raw pair and keeps a gcd per pair.

All averages are exact rationals.  Floats appear only in sampled-mode
standard errors and in diagnostics.
"""

from __future__ import annotations

import math
import operator
import os
import pickle
import signal
from collections import Counter
from dataclasses import dataclass, field, replace
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from itertools import islice
from typing import Callable, Iterator, Sequence

from .ffield import FieldCtx, FqElem, undigits
from .fgraph import FunctionalGraph, brent_rho, build_graph, cycle_census
from .fmaps import (
    Poly,
    RationalMap,
    _is_irreducible_poly,
    _monic_divisors,
    canonicalize_rational,
    eval_poly,
    eval_rational,
    monic_poly_at,
    normalize_poly,
    poly_at_most_at,
    poly_exactly_at,
    poly_exactly_count,
    poly_gcd,  # unused here; perfbench/traced.py patches census.poly_gcd by name
    poly_mul,
    poly_values,
)
from .reportio import frac_json
from .seeding import per_index_rng
from . import theory

DEFAULT_BUDGET = 10**9


class BudgetError(ValueError):
    """Raised when an exhaustive run would exceed the evaluation budget."""


def resolve_budget(budget: int | None) -> int:
    """budget if given, else DEFAULT_BUDGET; a negative budget is refused."""
    if budget is not None and budget < 0:
        raise ValueError(f"evaluation budget must be an integer >= 0, got {budget!r}")
    return DEFAULT_BUDGET if budget is None else budget


def _count_text(n: int) -> str:
    """n in full below 10^30, else rounded to four digits ("~1.296e4826"),
    so that a refusal stays one short line."""
    return str(n) if n < 10**30 else f"~{Decimal(n):.3e}".replace("e+", "e")


def _check_budget(evaluations: int, budget: int | None, what: str, advice: str) -> None:
    """Refuse evaluations over the budget, in one line ending ", or raise --budget"."""
    limit = resolve_budget(budget)
    if evaluations > limit:
        raise BudgetError(
            f"{what} needs {_count_text(evaluations)} map evaluations, over the budget of {_count_text(limit)}; "
            f"{advice}, or raise --budget"
        )


# --- tallies and the block runner ---------------------------------------------


@dataclass(frozen=True)
class CycleSums:
    """Integer sums of cycle statistics over a set of maps, as reports read
    them; k_cycles and k_cycles_sq hold the lengths k <= kmax that occur,
    in ascending order."""

    map_count: int
    components: int
    periodic: int
    components_sq: int
    periodic_sq: int
    k_cycles: dict[int, int]
    k_cycles_sq: dict[int, int]


def cycle_sums(types: Counter, kmax: int) -> CycleSums:
    """The sums over a tally of maps by cycle type (cycle type -> number of
    maps), each type's statistics computed once and weighted by its count."""
    n = comps = per = comps_sq = per_sq = 0
    k_cycles: Counter = Counter()
    k_cycles_sq: Counter = Counter()
    for t, w in types.items():
        c, p = len(t), sum(t)
        n += w
        comps += w * c
        per += w * p
        comps_sq += w * c * c
        per_sq += w * p * p
        for k, m in Counter(t).items():
            if k <= kmax:
                k_cycles[k] += w * m
                k_cycles_sq[k] += w * m * m
    return CycleSums(
        n, comps, per, comps_sq, per_sq, dict(sorted(k_cycles.items())), dict(sorted(k_cycles_sq.items()))
    )


def mean_stderr(total: int, total_sq: int, n: int) -> float | None:
    """Standard error of the mean from exact sums; None below two samples."""
    if n < 2:
        return None
    var = (Fraction(total_sq) - Fraction(total * total, n)) / (n - 1)
    return math.sqrt(float(var) / n)


def usable_cpus() -> int:
    """The CPUs this process may run on: the default worker count and its cap."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split_blocks(total: int, jobs: int) -> list[tuple[int, int]]:
    jobs = max(1, min(jobs, total, usable_cpus())) if total else 1
    return [(total * j // jobs, total * (j + 1) // jobs) for j in range(jobs)]


def _fork_share(fn: Callable, blocks: list[tuple]) -> tuple[int, int]:
    """Fork a child that runs fn over blocks and writes one pickled
    ("ok", results) or ("err", exception) to a pipe; (pid, read end).
    The child leaves through os._exit, so nothing of the parent's stack,
    atexit handlers or stdio buffers runs in it."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            try:
                data = pickle.dumps(("ok", [fn(*b) for b in blocks]))
            except BaseException as exc:  # raised again in the parent
                data = pickle.dumps(("err", exc))
            with os.fdopen(w, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(w)  # before the next fork, or that child would hold it open
    return pid, r


def _join_share(pid: int, fd: int) -> list:
    """Read a forked child's pipe to its end and reap the child; its
    results, or its exception raised again here."""
    try:
        with os.fdopen(fd, "rb") as pipe:
            data = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    if status or not data:
        code = os.waitstatus_to_exitcode(status)
        raise RuntimeError(f"worker process {pid} ended without a result (exit code {code})")
    tag, value = pickle.loads(data)
    if tag == "err":
        raise value
    return value


def run_blocks(fn: Callable, tasks: Sequence[tuple[tuple, int]], jobs: int) -> list:
    """fn(*args, lo, hi) over contiguous blocks covering range(total), for
    each task (args, total).  Each task splits into at most jobs blocks,
    never more than usable CPUs.  When any task splits, the largest split
    sets the worker count: the parent forks one child per worker beyond
    itself, worker w runs blocks[w::workers] (the parent is worker 0),
    and each child's results come back through its pipe; children inherit
    fn and its arguments, so only results are pickled.  A child's
    exception is raised again in the parent; if the parent fails, it kills
    and reaps every child still running.  Forking needs a caller that
    runs no other threads, as the CLI does.  Without os.fork every block
    runs in this process.  One result per task, in task order: that
    task's block results merged with +, in block order."""
    splits = [(args, _split_blocks(total, jobs)) for args, total in tasks]
    blocks = [(*args, lo, hi) for args, split in splits for lo, hi in split]
    workers = max(len(split) for _, split in splits)

    def per_task(results: Iterator) -> list:
        return [reduce(operator.add, islice(results, len(split))) for _, split in splits]

    if workers <= 1 or not hasattr(os, "fork"):
        return per_task(fn(*b) for b in blocks)
    children: list[tuple[int, int]] = []
    try:
        for w in range(1, workers):
            children.append(_fork_share(fn, blocks[w::workers]))
        results = [None] * len(blocks)
        results[::workers] = [fn(*b) for b in blocks[::workers]]
        for w in range(1, workers):
            results[w::workers] = _join_share(*children.pop(0))
    finally:
        for pid, fd in children:
            os.kill(pid, signal.SIGKILL)
            os.close(fd)
            os.waitpid(pid, 0)
    return per_task(iter(results))


def _per_index_block(fn: Callable, args: tuple, seed: int | None, lo: int, hi: int) -> Counter:
    """Tally fn(*args, x) for the indices i in [lo, hi): x is i itself, or,
    with a seed, i's own random stream per_index_rng(seed, i), so a drawn
    run draws the same maps however its range is split.  A value that
    begins with i, as a prov check's row does, is tallied once, and the
    sorted tally lists the values in index order."""
    return Counter(fn(*args, i if seed is None else per_index_rng(seed, i)) for i in range(lo, hi))


# --- enumeration index spaces and samplers --------------------------------------


def _rational_raw_count(ctx: FieldCtx, d: int) -> int:
    # monic denominators of each degree e <= d, times all numerators of
    # degree <= d
    q = ctx.q
    return q ** (d + 1) * sum(q**e for e in range(d + 1))


def _rational_index_count(ctx: FieldCtx, d: int) -> int:
    # one slot per monic denominator of degree <= d, and at d = 0 one more
    # for the constant-infinity map
    return sum(ctx.q**e for e in range(d + 1)) + (d == 0)


def _rational_map_count(ctx: FieldCtx, d: int) -> int:
    return theory.rat_count(ctx.q, d, "exactly")


# --- successor tables of an exhaustive block, from running column sums ---------

# Fields up to this size tabulate addition and multiplication, q rows of q
# (65,536 entries at most); larger fields compute each row when it is used.
ROW_TABLE_MAX = 1 << 8


def _op_rows(ctx: FieldCtx, op: Callable[[FqElem, FqElem], FqElem]) -> Callable[[FqElem], tuple[FqElem, ...]]:
    """row(a)[y] = op(a, y) for every y in F_q, tabulated once up to ROW_TABLE_MAX."""
    q = ctx.q
    if q > ROW_TABLE_MAX:
        return lambda a: tuple(op(a, y) for y in range(q))
    return tuple(tuple(op(a, y) for y in range(q)) for a in range(q)).__getitem__


def _column_runs(ctx: FieldCtx, d: int, start: Poly, count: int):
    """Walk count polynomials of degree <= d from start on, in the order of
    the slot decoders: the base-q odometer with the constant term fastest.

    Yields runs (high, s1, consts) of polynomials sharing high = (a_1, ...,
    a_d): s1[x] is the value column sum(a_j x^j, j >= 1) at every x, and
    consts the run's constant terms, so the polynomial a_0 + ... takes the
    value a_0 + s1[x] at x.  Column S_j = S_(j+1) + a_j x^j is kept per
    level and rebuilt by poly_values only when its digit changes.
    """
    q, digits = ctx.q, list(start) + [0] * (d + 1 - len(start))
    cols: list = [None] * (d + 1) + [(0,) * q]
    a0, changed = digits[0], d
    while count > 0:
        if a0 == q:  # carry into the higher digits
            a0, changed = 0, 1
            while digits[changed] == q - 1:
                digits[changed] = 0
                changed += 1
            digits[changed] += 1
        for j in range(changed, 0, -1):
            a = digits[j]
            cols[j] = poly_values(ctx, (0,) * j + (a,), cols[j + 1]) if a else cols[j + 1]
        changed = 0
        n = min(q - a0, count)
        yield tuple(digits[1:]), cols[1], range(a0, a0 + n)
        a0, count = a0 + n, count - n


def _poly_successors(ctx: FieldCtx, d: int, lo: int, hi: int):
    """Successor tuple of each polynomial of degree d in slots [lo, hi): one
    row of the addition table of its constant term, read at the column s1."""
    add_row = _op_rows(ctx, ctx.add)
    for _, s1, consts in _column_runs(ctx, d, poly_exactly_at(ctx, d, lo), hi - lo):
        at = operator.itemgetter(*s1)
        for c in consts:
            yield at(add_row(c))


def _shared_factor_slots(ctx: FieldCtx, d: int, den: Poly) -> set[int]:
    """Slots (poly_at_most_at indices) of the numerators of degree <= d
    that share a factor with the monic den.

    They are the multiples g*h of the monic divisors g of den with
    deg g >= 1, h running over every polynomial of degree <= d - deg g,
    zero included.  The divisors below deg den are found by trial
    division; the only one of full degree is den itself.
    """
    q, e = ctx.q, len(den) - 1
    if e < 1:
        return set()
    return {
        undigits(poly_mul(ctx, g, poly_at_most_at(ctx, d - len(g) + 1, j)), q)
        for g in [*_monic_divisors(ctx, den, range(1, e)), den]
        for j in range(q ** (d - len(g) + 2))
    }


def _rational_successors(ctx: FieldCtx, d: int, lo: int, hi: int):
    """Successor tuple of each rational map of degree d over the monic
    denominators in slots [lo, hi).

    Slot s holds the s-th monic denominator of degree <= d, by degree e
    and then in the order of monic_poly_at; at d = 0 the slot after them
    holds the constant-infinity map.  Each denominator is decoded alone:
    its value column gives one divide row per distinct value (a zero goes
    to infinity), and a sieve marks once the numerators that share a
    factor with it (_shared_factor_slots).  Its numerators run as one
    column walk in poly_at_most_at order, from slot q^d (x^d, the first of
    degree d) when e < d and from slot 0 when e = d, so every pair walked
    has degree d; the walk skips a marked numerator by looking its
    running index up, with no gcd per pair.  Infinity goes to infinity
    when e < d, else to the numerator's x^d coefficient.
    """
    q = inf = ctx.q
    add_row, mul_row = _op_rows(ctx, ctx.add), _op_rows(ctx, ctx.mul)
    to_inf = (inf,) * q
    dens = ((e, i) for e in range(d + 1) for i in range(q**e))
    for e, i in islice(dens, lo, hi):
        den = monic_poly_at(ctx, e, i)
        values = poly_values(ctx, den)
        rows = {v: mul_row(ctx.inv(v)) if v else to_inf for v in set(values)}
        divide = tuple(map(rows.__getitem__, values))
        shared = _shared_factor_slots(ctx, d, den)
        first = q**d if e < d else 0
        ni = first
        for high, s1, consts in _column_runs(ctx, d, poly_at_most_at(ctx, d, first), q ** (d + 1) - first):
            at = operator.itemgetter(*s1)
            # infinity's image by constant term: infinity when e < d, else the x^d coefficient
            at_inf = to_inf if e < d else (high[-1],) * q if d else range(q)
            for c in consts:
                if ni not in shared:
                    yield (*map(operator.getitem, divide, at(add_row(c))), at_inf[c])
                ni += 1
    if d == 0 and lo <= 1 < hi:
        yield (inf,) * (q + 1)


def _sample_poly(ctx: FieldCtx, d: int, rng) -> Poly:
    q = ctx.q
    if d == 0:
        c = rng.randrange(q)
        return (c,) if c else ()
    lead = 1 + rng.randrange(q - 1)
    low = [rng.randrange(q) for _ in range(d)]
    return tuple(low) + (lead,)


def _sample_rational(ctx: FieldCtx, d: int, rng) -> RationalMap:
    """Uniform over canonical maps of degree exactly d.

    Raw coefficient pairs are uniform over polynomials of degree <= d;
    every canonical map of degree exactly d has exactly q-1 raw
    preimages (its scalar multiples), so accepting exactly the canonical
    results of degree d is uniform.  At d = 0 the constant-infinity map
    is included with the correct weight.
    """
    q = ctx.q
    space = q ** (d + 1)
    while True:
        a = rng.randrange(space)
        b = rng.randrange(space)
        if a == 0 and b == 0:
            continue
        r = canonicalize_rational(ctx, poly_at_most_at(ctx, d, a), poly_at_most_at(ctx, d, b))
        if r.degree == d:
            return r


# --- reports ------------------------------------------------------------------


@dataclass(frozen=True)
class TheoryComparison:
    """One measured statistic against one closed-form value or bound.

    k is the cycle length of a per-length check; stat names the report
    average an aggregate check is about ("components" or "periodic"), and
    stays None for per-length checks and for checks on anything else.
    """

    name: str
    k: int | None
    observed: Fraction
    relation: str
    status: str  # "pass" | "fail"
    expected: Fraction | None = None
    lower: Fraction | None = None
    upper: Fraction | None = None
    vacuous: bool = False
    note: str = ""
    stat: str | None = None

    def to_jsonable(self) -> dict:
        out: dict = {
            "name": self.name,
            "k": self.k,
            "observed": frac_json(self.observed),
            "relation": self.relation,
            "status": self.status,
            "vacuous": self.vacuous,
        }
        if self.expected is not None:
            out["expected"] = frac_json(self.expected)
        if self.lower is not None:
            out["lower"] = frac_json(self.lower)
        if self.upper is not None:
            out["upper"] = frac_json(self.upper)
        if self.note:
            out["note"] = self.note
        return out


def compare(
    name: str,
    observed: Fraction,
    relation: str,
    *,
    expected: Fraction | None = None,
    lower: Fraction | None = None,
    upper: Fraction | None = None,
    strict: bool = False,
    tight: bool = False,
    drawn: int | None = None,
    stderr: float | None = None,
    k: int | None = None,
    stat: str | None = None,
    vacuous: bool = False,
) -> TheoryComparison:
    """One statistic against its closed form; every report row is built here.

    The row checks observed == expected, or observed against a lower
    and/or upper bound; strict bounds exclude equality and a tight lower
    bound must be met exactly.  drawn is the size of a drawn sample, None
    for an exact average.  A drawn row allows 5 standard errors on every
    check, and a sample with no spread takes 1/n as its standard error:
    every statistic is an integer per map, so any spread gives at least
    that much.  Every statistic is also >= 0, so X^2 >= X and a statistic
    of mean m has variance at least m - m^2; an equality row never takes
    a standard error below that floor, which a low count of a rare
    cycle length would otherwise bring.
    """
    if drawn is None:  # an exact average: no allowance, bounds as stated
        allow, dev = 0, lambda bound: observed - bound
    else:  # deviations in standard errors, 5 allowed past any bound
        se = stderr or 1 / drawn
        if expected is not None:
            se = max(se, math.sqrt(max(expected - expected**2, 0) / drawn))
        allow, dev, strict = 5.0, lambda bound: float(observed - bound) / se, False
    ok = True
    if expected is not None:
        ok = abs(dev(expected)) <= allow
    if lower is not None:
        below = -dev(lower)
        ok = ok and (abs(below) <= allow if tight else (below < 0 if strict else below <= allow))
    if upper is not None:
        above = dev(upper)
        ok = ok and (above < 0 if strict else above <= allow)
    note = ""
    if drawn is not None and expected is not None:
        z = dev(expected)
        relation, note = f"|z| <= 5 (z = {z:+.3f})", f"z={z:.6f}"
    elif drawn is not None:
        zs = (("z_lower", lower), ("z_upper", upper))
        shown = ", ".join(f"{key} = {dev(b):+.3f}" for key, b in zs if b is not None)
        relation += f"; drawn sample: within 5 standard errors ({shown})"
    return TheoryComparison(
        name=name,
        k=k,
        observed=observed,
        relation=relation,
        status="pass" if ok else "fail",
        expected=expected,
        lower=lower,
        upper=upper,
        vacuous=vacuous,
        note=note,
        stat=stat,
    )


@dataclass(frozen=True, kw_only=True)
class Report:
    """What every census and baseline report holds: the paper's two
    averages, their theory rows and notes, and, for a sampled run, the
    sample echo (size, seed and the averages' standard errors)."""

    mode: str  # "exhaustive" | "sampled"
    avg_components: Fraction
    avg_periodic: Fraction
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
            "mode": self.mode,
            "avg_components": frac_json(self.avg_components),
            "avg_periodic": frac_json(self.avg_periodic),
            "theory_comparison": [c.to_jsonable() for c in self.theory_comparison],
        }
        if self.mode == "sampled":
            out["sample_count"] = self.sample_count
            out["seed"] = self.seed
            out["stderr_components"] = self.stderr_components
            out["stderr_periodic"] = self.stderr_periodic
        if self.notes:
            out["notes"] = self.notes
        return out


def _report_fields(s: CycleSums, mode: str, seed: int | None) -> dict:
    """The Report fields that a tally's sums give: both averages and, in
    sampled mode, the sample echo."""
    n = s.map_count
    out: dict = {"mode": mode, "avg_components": Fraction(s.components, n), "avg_periodic": Fraction(s.periodic, n)}
    if mode == "sampled":
        out["sample_count"] = n
        out["seed"] = seed
        out["stderr_components"] = mean_stderr(s.components, s.components_sq, n)
        out["stderr_periodic"] = mean_stderr(s.periodic, s.periodic_sq, n)
    return out


@dataclass(frozen=True, kw_only=True)
class CensusReport(Report):
    family: str  # "poly" | "rational"
    q: int
    d: int
    map_count: int
    kmax: int
    avg_k_cycles: dict[int, Fraction]
    full_support: bool = False
    stderr_k_cycles: dict[int, float] | None = None

    def to_jsonable(self) -> dict:
        out = super().to_jsonable() | {
            "family": self.family,
            "q": self.q,
            "d": self.d,
            "map_count": self.map_count,
            "kmax": self.kmax,
            "avg_k_cycles": {str(k): frac_json(v) for k, v in sorted(self.avg_k_cycles.items())},
        }
        if self.mode == "sampled":
            out["full_support"] = self.full_support
            out["stderr_k_cycles"] = {str(k): v for k, v in sorted((self.stderr_k_cycles or {}).items())}
        return out


# --- comparison builders -------------------------------------------------------


def _drawn(rep: CensusReport) -> int | None:
    """The sample size of a drawn report; None when its averages are exact."""
    return rep.sample_count if rep.mode == "sampled" and not rep.full_support else None


def _poly_comparisons(rep: CensusReport) -> tuple[TheoryComparison, ...]:
    q, d, kmax = rep.q, rep.d, rep.kmax
    drawn, se_k = _drawn(rep), rep.stderr_k_cycles or {}
    top = min(d, kmax) if d >= 1 else min(1, kmax)
    out = [
        compare(
            "poly_avg_k_exact", rep.avg_k_cycles.get(k, Fraction(0)), "==",
            expected=theory.poly_avg_k(q, d, k), k=k, drawn=drawn, stderr=se_k.get(k),
        )
        for k in range(1, top + 1)
    ]
    b = theory.poly_component_bounds(q, d)
    tight = b.lower_is_tight
    tight_rel = "== (tight: d >= q)" if d >= q else "== (tight: d = q-1, q > 2)"
    comps = {"drawn": drawn, "stderr": rep.stderr_components, "stat": "components"}
    lower_rel = tight_rel if tight else "> (strict: d < q)"
    out.append(
        compare(
            "poly_components_lower", rep.avg_components, lower_rel, lower=b.lower, strict=True, tight=tight, **comps
        )
    )
    out.append(compare("poly_components_upper", rep.avg_components, "<=", upper=b.upper, **comps))
    pl = theory.poly_periodic_lower(q, d)
    out.append(
        compare(
            "poly_periodic_lower", rep.avg_periodic, tight_rel if tight else ">=", lower=pl, tight=tight,
            vacuous=pl <= 0, drawn=drawn, stderr=rep.stderr_periodic, stat="periodic",
        )
    )
    return tuple(out)


def _rat_comparisons(rep: CensusReport) -> tuple[TheoryComparison, ...]:
    q, d, kmax = rep.q, rep.d, rep.kmax
    drawn, se_k = _drawn(rep), rep.stderr_k_cycles or {}
    out: list[TheoryComparison] = []
    for k in range(1, min(d + 1, kmax) + 1):
        b = theory.rat_avg_k_bounds(q, d, k)
        observed, row = rep.avg_k_cycles.get(k, Fraction(0)), {"k": k, "drawn": drawn, "stderr": se_k.get(k)}
        if b.lower_is_tight:  # no k-cycle on q + 1 points: exactly 0
            out.append(compare("rat_avg_k_exact", observed, "== (tight: k > q+1)", expected=b.lower, **row))
            continue
        lower = b.lower if b.lower_applies else None
        out.append(
            compare(
                "rat_avg_k_bounds" if lower is not None else "rat_avg_k_upper",
                observed,
                "strictly between" if lower is not None else "< (upper only at k = d+1)",
                lower=lower, upper=b.upper, strict=True, vacuous=lower is not None and b.vacuous_lower, **row,
            )
        )
    b = theory.rat_component_bounds(q, d)
    comps = {"drawn": drawn, "stderr": rep.stderr_components, "stat": "components"}
    out.append(
        compare(
            "rat_components_lower", rep.avg_components, ">", lower=b.lower, strict=True, vacuous=b.vacuous_lower, **comps
        )
    )
    out.append(compare("rat_components_upper", rep.avg_components, "<=", upper=b.upper, **comps))
    pl = theory.rat_periodic_lower(q, d)
    out.append(
        compare(
            "rat_periodic_lower", rep.avg_periodic, ">=", lower=pl, vacuous=pl <= 0,
            drawn=drawn, stderr=rep.stderr_periodic, stat="periodic",
        )
    )
    return tuple(out)


# --- map families ----------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """One family of maps over F_q, and everything a census needs from it.

    Every callable takes one exact degree d.  successors(ctx, d, lo, hi)
    yields the successor tuple of each map of degree d in slots [lo, hi)
    of index_count(ctx, d) slots.  A slot holds one polynomial, or the
    maps over one monic denominator (and at d = 0 one more slot the
    constant-infinity map); map_count(ctx, d) is the closed-form number of
    maps those slots hold.
    sample draws the maps of sampled and rho runs; evaluate serves rho
    walks, which visit only a few points of each map.
    """

    name: str  # "poly" | "rational", as reports echo it
    points_at_infinity: int  # graphs have q + this many vertices
    index_count: Callable[[FieldCtx, int], int]
    map_count: Callable[[FieldCtx, int], int]
    successors: Callable  # (ctx, d, lo, hi) -> successor tuples
    sample: Callable  # (ctx, d, rng) -> uniform map of degree exactly d
    evaluate: Callable  # (ctx, map, point) -> point
    comparisons: Callable[[CensusReport], tuple[TheoryComparison, ...]]

    def vertices(self, ctx: FieldCtx) -> int:
        return ctx.q + self.points_at_infinity


POLY = Family(
    name="poly",
    points_at_infinity=0,
    index_count=poly_exactly_count,
    map_count=poly_exactly_count,
    successors=_poly_successors,
    sample=_sample_poly,
    evaluate=eval_poly,
    comparisons=_poly_comparisons,
)
RATIONAL = Family(
    name="rational",
    points_at_infinity=1,
    index_count=_rational_index_count,
    map_count=_rational_map_count,
    successors=_rational_successors,
    sample=_sample_rational,
    evaluate=eval_rational,
    comparisons=_rat_comparisons,
)
FAMILIES = {f.name: f for f in (POLY, RATIONAL)}


def _family(name: str) -> Family:
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    return FAMILIES[name]


# --- the census pipeline -----------------------------------------------------------


def _census_block(ctx: FieldCtx, family: Family, d: int, start: int, stop: int) -> Counter:
    """Tally by cycle type the maps of degree d in slots [start, stop) of
    the enumeration, walked by family.successors."""
    return Counter(map(cycle_census, map(FunctionalGraph, family.successors(ctx, d, start, stop))))


def _drawn_type(ctx: FieldCtx, family: Family, d: int, rng) -> tuple[int, ...]:
    """The cycle type of the map of degree d that family.sample draws from rng."""
    return cycle_census(build_graph(ctx, family.sample(ctx, d, rng)))


def _exhaustive_tally(
    ctx: FieldCtx, family: Family, degrees: range, jobs: int, budget: int | None, what: str, advice: str
) -> list[Counter]:
    """One tally by cycle type per degree in degrees, of every map of that
    degree: one run with a task per degree, under one budget check."""
    if not degrees or degrees[0] < 0:
        raise ValueError("degree must be >= 0")
    counts = [family.map_count(ctx, d) for d in degrees]
    what = f"{family.name} {what} q={ctx.q} d={degrees[-1]}"
    _check_budget(sum(counts) * family.vertices(ctx), budget, what, advice)
    tasks = [((ctx, family, d), family.index_count(ctx, d)) for d in degrees]
    tallies = run_blocks(_census_block, tasks, jobs)
    for d, count, types in zip(degrees, counts, tallies):
        if types.total() != count:
            raise AssertionError(
                f"enumerated {types.total()} maps of degree {d}, closed form says {count}; this is a bug"
            )
    return tallies


_D0_NOTE = (
    "degree-0 polynomials are all q constants, the zero map included; "
    "every constant map has the same graph shape, so the averages are "
    "identical under the convention that excludes the zero polynomial"
)

_SAMPLING_NOTE = (
    "sampling scheme (a deliberate choice; the exact statements are "
    "exhaustive): uniform over maps of degree exactly d, drawn as uniform "
    "nonzero leading coefficient for polynomials and rejection to canonical "
    "coprime pairs for rational maps"
)


def _build_report(
    ctx: FieldCtx,
    family: Family,
    d: int,
    kmax: int | None,
    types: Counter,
    mode: str,
    seed: int | None = None,
    full_support: bool = False,
) -> CensusReport:
    kmax = family.vertices(ctx) if kmax is None else kmax
    s = cycle_sums(types, kmax)
    n = s.map_count
    notes: dict = {"d0_convention": _D0_NOTE} if d == 0 else {}
    stderr_k_cycles = None
    if mode == "sampled":
        notes["sampling"] = _SAMPLING_NOTE
        stderr_k_cycles = {k: mean_stderr(c, s.k_cycles_sq[k], n) for k, c in s.k_cycles.items()}
    rep = CensusReport(
        family=family.name,
        q=ctx.q,
        d=d,
        map_count=n,
        kmax=kmax,
        avg_k_cycles={k: Fraction(c, n) for k, c in s.k_cycles.items()},
        full_support=full_support,
        stderr_k_cycles=stderr_k_cycles,
        notes=notes,
        **_report_fields(s, mode, seed),
    )
    return replace(rep, theory_comparison=family.comparisons(rep))


# --- public census operations ---------------------------------------------------


def _exhaustive_census(
    ctx: FieldCtx, family: Family, d: int, kmax: int | None, jobs: int, budget: int | None
) -> CensusReport:
    [types] = _exhaustive_tally(ctx, family, range(d, d + 1), jobs, budget, "census", "use the sampled mode instead")
    return _build_report(ctx, family, d, kmax, types, "exhaustive")


def poly_census(
    ctx: FieldCtx, d: int, kmax: int | None = None, jobs: int = 1, budget: int | None = None
) -> CensusReport:
    """Exact averages over all polynomials of degree exactly d."""
    return _exhaustive_census(ctx, POLY, d, kmax, jobs, budget)


def rat_census(
    ctx: FieldCtx, d: int, kmax: int | None = None, jobs: int = 1, budget: int | None = None
) -> CensusReport:
    """Exact averages over all rational maps of degree exactly d."""
    return _exhaustive_census(ctx, RATIONAL, d, kmax, jobs, budget)


def sampled_census(
    ctx: FieldCtx,
    d: int,
    family: str,
    samples: int | None,
    seed: int,
    kmax: int | None = None,
    jobs: int = 1,
    budget: int | None = None,
) -> CensusReport:
    """Monte Carlo companion of the exact census; deterministic in
    (seed, samples) and independent of worker count.

    samples maps are drawn, map i from its own stream per_index_rng(seed,
    i).  samples=None draws none: the whole support is tallied exactly
    once, so the averages match the exhaustive census exactly and the
    report says full_support.  Either way the map evaluations must fit
    the budget.
    """
    fam = _family(family)
    if d < 0:
        raise ValueError("degree must be >= 0")
    if samples is not None and samples < 1:
        raise ValueError("samples must be >= 1")
    if samples is None:
        [types] = _exhaustive_tally(ctx, fam, range(d, d + 1), jobs, budget, "census", "use --samples instead")
    else:
        what = f"sampled {fam.name} census of {samples} maps over q={ctx.q}"
        _check_budget(samples * fam.vertices(ctx), budget, what, "lower the sample count")
        [types] = run_blocks(_per_index_block, [((_drawn_type, (ctx, fam, d), seed), samples)], jobs)
    return _build_report(ctx, fam, d, kmax, types, "sampled", seed=seed, full_support=samples is None)


def cycle_totals_at_most(
    ctx: FieldCtx, dmax: int, family: str, jobs: int = 1, budget: int | None = None
) -> list[tuple[dict[int, int], int]]:
    """For every d <= dmax, in order, (k -> total k-cycles, map count) over
    all maps of the family of degree <= d: running sums of one tally per
    exact degree, each degree walked once."""
    fam = _family(family)
    types: Counter = Counter()
    rows = []
    for tally in _exhaustive_tally(ctx, fam, range(dmax + 1), jobs, budget, "cycle totals", "lower --dmax"):
        types += tally
        s = cycle_sums(types, fam.vertices(ctx))
        rows.append((s.k_cycles, s.map_count))
    return rows


# --- brute-force oracles for the closed-form counting arguments -----------------


def enumerate_S(
    ctx: FieldCtx,
    g0: Poly,
    g1: Poly,
    betas: Sequence[FqElem],
    gammas: Sequence[FqElem],
) -> int:
    """Brute-force cardinality of the interpolation family: monic f with
    deg f = deg(g0 g1), divisible by g0, and f(beta_i) = gamma_i * (g0 g1)(beta_i),
    walked as f = g0 h over the q^deg(g1) monic h of degree deg g1.

    g0 must be monic and constant or irreducible; betas distinct, one
    gamma per beta.
    """
    g0 = normalize_poly(g0)
    g1 = normalize_poly(g1)
    if not g0 or g0[-1] != 1:
        raise ValueError("g0 must be monic")
    if not g1 or g1[-1] != 1:
        raise ValueError("g1 must be monic")
    if len(g0) > 2 and not _is_irreducible_poly(ctx, g0):
        raise ValueError("g0 must be constant or irreducible")
    if len(set(betas)) != len(betas):
        raise ValueError("betas must be distinct")
    if len(betas) != len(gammas) or not betas:
        raise ValueError("need one gamma per beta, at least one")
    prod = poly_mul(ctx, g0, g1)
    j1 = len(g1) - 1
    targets = [ctx.mul(g, eval_poly(ctx, prod, b)) for b, g in zip(betas, gammas)]
    multiples = (poly_mul(ctx, g0, monic_poly_at(ctx, j1, i)) for i in range(ctx.q**j1))
    return sum(all(eval_poly(ctx, f, b) == t for b, t in zip(betas, targets)) for f in multiples)


# random_constraint_instance draws at most this many interpolation points,
# and g0 g1 of at most this degree
INSTANCE_MAX_POINTS = 3
INSTANCE_MAX_TOTAL_DEGREE = 5


def random_constraint_instance(ctx: FieldCtx, rng) -> tuple[Poly, Poly, tuple[FqElem, ...], tuple[FqElem, ...]]:
    """Pseudo-random valid (g0, g1, betas, gammas) instance for enumerate_S.

    Mixes the three solvability shapes: trivial g0, g0 linear through
    one of the betas, and g0 irreducible; a linear draw of the third may
    pass through a beta, and solution_count_case then takes the linear case.
    """
    m = rng.randrange(1, min(INSTANCE_MAX_POINTS, ctx.q) + 1)
    betas = tuple(rng.sample(range(ctx.q), m))
    shape = rng.randrange(3)
    if shape == 0:
        g0: Poly = (1,)
    elif shape == 1:
        g0 = (ctx.neg(rng.choice(betas)), 1)
    else:
        deg0 = rng.randrange(1, INSTANCE_MAX_TOTAL_DEGREE)
        while True:
            g0 = monic_poly_at(ctx, deg0, rng.randrange(ctx.q**deg0))
            if deg0 == 1 or _is_irreducible_poly(ctx, g0):
                break
    deg1 = rng.randrange(0, INSTANCE_MAX_TOTAL_DEGREE - (len(g0) - 1) + 1)
    g1 = monic_poly_at(ctx, deg1, rng.randrange(ctx.q**deg1))
    gammas = tuple(rng.randrange(ctx.q) for _ in betas)
    return g0, g1, betas, gammas


def solution_count_case(ctx: FieldCtx, g0: Poly, g1: Poly, betas: Sequence[FqElem]) -> tuple[str, int | None]:
    """Which case of the interpolation-count statement applies to the family of
    degree deg g0 + deg g1: ("at_most_one", None) or ("exactly", q-power exponent)."""
    g0 = normalize_poly(g0)
    g1 = normalize_poly(g1)
    m = len(betas)
    j1 = len(g1) - 1
    j = len(g0) - 1 + j1
    linear_in_betas = any(g0 == (ctx.neg(b), 1) for b in betas)
    trivial_g0 = g0 == (1,)
    if (trivial_g0 or linear_in_betas) and j >= m:
        return "exactly", j - m
    if not (trivial_g0 or linear_in_betas) and j1 >= m:
        return "exactly", j1 - m
    return "at_most_one", None


# --- rho experiment --------------------------------------------------------------


@dataclass(frozen=True)
class RhoSummary:
    family: str
    q: int
    d: int
    samples: int
    seed: int
    mean_tail: Fraction
    mean_cycle: Fraction
    mean_rho: Fraction
    histogram: dict[int, int]  # tail+cycle -> count

    def to_jsonable(self) -> dict:
        return {
            "family": self.family,
            "q": self.q,
            "d": self.d,
            "samples": self.samples,
            "seed": self.seed,
            "mean_tail": frac_json(self.mean_tail),
            "mean_cycle": frac_json(self.mean_cycle),
            "mean_rho": frac_json(self.mean_rho),
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }


def _rho_walk(ctx: FieldCtx, family: Family, d: int, rng) -> tuple[int, int]:
    """(tail, cycle) of the Brent walk on a map of degree d drawn from rng,
    from a start point drawn next."""
    m = family.sample(ctx, d, rng)
    return brent_rho(lambda x: family.evaluate(ctx, m, x), rng.randrange(family.vertices(ctx)))


def rho_experiment(
    ctx: FieldCtx, d: int, family: str, samples: int, seed: int, jobs: int = 1, budget: int | None = None
) -> RhoSummary:
    """Sampled tail/cycle lengths via Brent iteration, no graphs built."""
    fam = _family(family)
    if d < 0:
        raise ValueError("degree must be >= 0")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    # a walk never visits more than the whole space, so budget on that
    what = f"rho experiment of {samples} walks over {fam.vertices(ctx)} points"
    _check_budget(samples * fam.vertices(ctx), budget, what, "lower the sample count")
    [walks] = run_blocks(_per_index_block, [((_rho_walk, (ctx, fam, d), seed), samples)], jobs)
    tail = sum(t * n for (t, _), n in walks.items())
    cyc = sum(c * n for (_, c), n in walks.items())
    hist: Counter = Counter()
    for (t, c), n in walks.items():
        hist[t + c] += n
    return RhoSummary(
        family=family,
        q=ctx.q,
        d=d,
        samples=samples,
        seed=seed,
        mean_tail=Fraction(tail, samples),
        mean_cycle=Fraction(cyc, samples),
        mean_rho=Fraction(tail + cyc, samples),
        histogram=dict(hist),
    )

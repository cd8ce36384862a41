"""Exhaustive and sampled censuses against frozen enumeration values,
closed forms, and determinism requirements."""

import os
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fqdyn import census, cli, fmaps
from fqdyn.baseline import baseline_census
from fqdyn.census import (
    POLY,
    BudgetError,
    _count_text,
    compare,
    cycle_totals_at_most,
    enumerate_S,
    mean_stderr,
    poly_census,
    random_constraint_instance,
    rat_census,
    resolve_budget,
    rho_experiment,
    sampled_census,
    solution_count_case,
    usable_cpus,
)
from fqdyn.ffield import make_field
from fqdyn.fmaps import enumerate_polys, enumerate_rationals, eval_poly, eval_rational, poly_exactly_count, poly_mul
from fqdyn.seeding import per_index_rng
from fqdyn.theory import (
    poly_avg_k,
    poly_component_bounds,
    poly_cycle_sum,
    rat_count,
    rat_k_cycle_total_bounds,
)

from oracles import count_cycle_givers, filter_walk_S, oracle_cycle_lengths

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)


class TestPolyCensus:
    def test_f2_d2(self):
        rep = poly_census(F2, 2)
        assert rep.map_count == 4
        assert rep.avg_components == Fraction(5, 4)
        assert rep.avg_periodic == Fraction(3, 2)
        assert rep.avg_k_cycles[1] == 1
        assert rep.avg_k_cycles[2] == Fraction(1, 4)
        assert not rep.failed

    def test_f5_d2(self):
        rep = poly_census(F5, 2)
        assert rep.map_count == 100  # 4 leads * 25 tails
        assert rep.avg_components == Fraction(8, 5)
        assert rep.avg_periodic == Fraction(12, 5)
        assert rep.avg_k_cycles[2] == Fraction(2, 5)
        assert not rep.failed

    def test_avg_matches_closed_form(self):
        # exact equality of per-k averages, any degree
        for q, ctx in ((2, F2), (3, F3), (5, F5)):
            for d in range(4):
                rep = poly_census(ctx, d)
                top = d if d >= 1 else 1
                for k in range(1, min(top, q) + 1):
                    assert rep.avg_k_cycles.get(k, Fraction(0)) == poly_avg_k(q, d, k)

    def test_tightness_split(self):
        # d >= q turns the component lower bound into an equality
        tight = poly_census(F2, 2)
        lower = [c for c in tight.theory_comparison if c.name == "poly_components_lower"]
        assert lower and "tight" in lower[0].relation
        loose = poly_census(F5, 2)
        lower = [c for c in loose.theory_comparison if c.name == "poly_components_lower"]
        assert lower and "strict" in lower[0].relation
        assert loose.avg_components > lower[0].lower

    @pytest.mark.parametrize("p,n,d", [(3, 1, 2), (2, 2, 3), (5, 1, 4)])
    def test_tight_at_d_q_minus_1(self, p, n, d):
        # for q > 2 no polynomial of degree q-1 permutes F_q, so there are
        # no q-cycles and both lower bounds are met exactly
        rep = poly_census(make_field(p, n), d)
        assert not rep.failed
        lower = [c for c in rep.theory_comparison if c.name.endswith("_lower")]
        assert len(lower) == 2 and all(c.relation.startswith("== (tight") for c in lower)
        assert rep.avg_components == lower[0].lower

    @pytest.mark.parametrize("ctx,d", [(F2, 1), (F5, 2)])
    def test_strict_below_q_minus_1_or_at_q_2(self, ctx, d):
        rep = poly_census(ctx, d)
        lower = [c for c in rep.theory_comparison if c.name == "poly_components_lower"]
        assert lower[0].relation == "> (strict: d < q)" and lower[0].status == "pass"
        assert not poly_component_bounds(ctx.q, d).lower_is_tight

    def test_d0_constant_maps(self):
        rep = poly_census(F3, 0)
        assert rep.map_count == 3
        assert rep.avg_components == 1
        assert rep.avg_periodic == 1
        assert "d0_convention" in rep.notes


class TestRatCensus:
    def test_f2_d1(self):
        rep = rat_census(F2, 1)
        assert rep.map_count == 6
        assert not rep.failed

    def test_f2_d0(self):
        rep = rat_census(F2, 0)
        assert rep.map_count == 3  # q+1 constants, infinity included
        assert rep.avg_components == 1

    def test_f3_d1(self):
        rep = rat_census(F3, 1)
        assert rep.map_count == rat_count(3, 1, "exactly") == 24
        assert not rep.failed

    def test_f5_d1(self):
        rep = rat_census(F5, 1)
        assert rep.map_count == 120
        assert not rep.failed


def _labelled_range(label: str, lo: int, hi: int) -> list:
    """A block result that shows its task and its slots, in order."""
    return [(label, i) for i in range(lo, hi)]


class TestCycleTotals:
    @pytest.mark.parametrize("ctx,q", [(F2, 2), (F3, 3), (F5, 5)])
    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_poly_totals_match_closed_form(self, ctx, q, d):
        rows = cycle_totals_at_most(ctx, d, "poly")
        assert len(rows) == d + 1
        for e, (totals, count) in enumerate(rows):
            assert count == q ** (e + 1)
            for k in range(1, e + 2):
                assert totals.get(k, 0) == poly_cycle_sum(q, e, k)

    def test_rat_totals_f3_d1(self):
        totals, count = cycle_totals_at_most(F3, 1, "rational")[1]
        assert count == rat_count(3, 1, "at_most") == 28
        assert totals == {1: 28, 2: 12, 3: 8, 4: 6}

    def test_rat_totals_sandwich(self):
        totals, _ = cycle_totals_at_most(F3, 1, "rational")[1]
        b = rat_k_cycle_total_bounds(3, 1, 1)
        assert b.lower < totals[1] < b.upper  # 12 < 28 < 36

    @pytest.mark.parametrize("family", ["poly", "rational"])
    @pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (2, 2), (5, 1)])
    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_totals_match_a_horner_walk_of_every_map_up_to_d(self, family, p, n, d):
        """For every prefix e <= d, the reference enumerates degree <= e in
        one walk, evaluates each map at every point by Horner's rule and
        counts its cycles apart."""
        ctx = make_field(p, n)
        if family == "poly":
            enumerate_at_most, evaluate, points = enumerate_polys, eval_poly, ctx.q
        else:
            enumerate_at_most, evaluate, points = enumerate_rationals, eval_rational, ctx.q + 1
        rows = []
        for e in range(d + 1):
            want: Counter = Counter()
            count = 0
            for m in enumerate_at_most(ctx, e, "at_most"):
                want.update(oracle_cycle_lengths([evaluate(ctx, m, x) for x in range(points)]))
                count += 1
            rows.append((dict(sorted(want.items())), count))
        assert cycle_totals_at_most(ctx, d, family) == rows

    @pytest.mark.parametrize(
        "family, maps_of_degree, points",
        [
            ("poly", lambda e: poly_exactly_count(F3, e), 3),
            ("rational", lambda e: rat_count(3, e, "exactly"), 4),
        ],
        ids=["poly", "rational"],
    )
    def test_budget_covers_every_degree(self, family, maps_of_degree, points):
        """One budget check on the maps of all degrees 0..d together."""
        need = sum(maps_of_degree(e) for e in range(3)) * points
        assert cycle_totals_at_most(F3, 2, family, budget=need)[-1][1] * points == need
        with pytest.raises(BudgetError, match="cycle totals") as err:
            cycle_totals_at_most(F3, 2, family, budget=need - 1)
        assert f"needs {need} map evaluations" in str(err.value)

    @pytest.mark.parametrize("family", ["poly", "rational"])
    def test_degrees_share_one_worker_pool(self, family, monkeypatch, forks):
        """Each degree is a task of one run: one forked child for all of
        them beside the parent, and the same totals as in one process."""
        monkeypatch.setattr(census, "usable_cpus", lambda: 2)
        one_process = cycle_totals_at_most(F3, 2, family, jobs=1)
        assert forks == []
        assert cycle_totals_at_most(F3, 2, family, jobs=2) == one_process
        assert len(forks) == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_blocks_returns_one_result_per_task(self, jobs, monkeypatch):
        """Each task's blocks merge in block order into that task's result;
        list results show the order."""
        monkeypatch.setattr(census, "usable_cpus", lambda: 2)
        tasks = [(("a",), 5), (("b",), 0), (("c",), 3)]
        assert census.run_blocks(_labelled_range, tasks, jobs) == [
            [("a", i) for i in range(5)], [], [("c", i) for i in range(3)]
        ]

    def test_each_degree_checked_against_its_own_count(self, monkeypatch, capsys):
        """A walk that loses a map of degree 1 and yields it again as one of
        degree 2 keeps the summed count; the per-degree check still fails,
        and the CLI reports it as an internal error."""

        def shifted(ctx, d, lo, hi):
            """POLY's walk, with the last map of degree 1 moved to the end of degree 2."""
            tables = list(POLY.successors(ctx, d, lo, hi))
            if d == 1 and hi == POLY.index_count(ctx, 1):
                tables.pop()
            if d == 2 and hi == POLY.index_count(ctx, 2):
                tables += list(POLY.successors(ctx, 1, 0, POLY.index_count(ctx, 1)))[-1:]
            return tables

        walked = [len(shifted(F3, e, 0, POLY.index_count(F3, e))) for e in range(3)]
        assert sum(walked) == sum(POLY.map_count(F3, e) for e in range(3))  # so a summed check passes
        monkeypatch.setitem(census.FAMILIES, "poly", POLY._replace(successors=shifted))
        with pytest.raises(AssertionError, match="enumerated 5 maps of degree 1, closed form says 6; this is a bug"):
            cycle_totals_at_most(F3, 2, "poly")
        assert cli.run(["verify", "lemma-polys", "--p", "3", "--dmax", "2", "--jobs", "1"]) == 3
        assert capsys.readouterr().err.startswith("internal error: enumerated 5 maps of degree 1,")


def _pids(lo: int, hi: int) -> Counter:
    """A block result that counts its slots by the process that ran them."""
    return Counter({os.getpid(): hi - lo})


class TestForkedWorkers:
    """run_blocks at --jobs 2: the parent runs block 0, one forked child
    runs block 1, and only the child's results cross its pipe."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(census, "usable_cpus", lambda: 2)

    def test_parent_runs_a_share(self, forks):
        shares = census.run_blocks(_pids, [((), 10)], 2)[0]
        assert len(forks) == 1
        assert shares == Counter({os.getpid(): 5, forks[0]: 5})

    def test_one_process_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert census.run_blocks(_pids, [((), 10)], 2) == [Counter({os.getpid(): 10})]

    @pytest.mark.parametrize("exc_type", [ValueError, AssertionError, BudgetError])
    def test_child_exception_keeps_its_type(self, exc_type, forks):
        def block(lo, hi):
            if lo:
                raise exc_type(f"raised in pid {os.getpid()}")
            return [lo]

        with pytest.raises(exc_type) as err:
            census.run_blocks(block, [((), 2)], 2)
        assert type(err.value) is exc_type
        assert str(err.value) == f"raised in pid {forks[0]}"

    def test_dead_child_raises_runtime_error(self, forks):
        def block(lo, hi):
            if lo:
                os._exit(1)
            return [lo]

        with pytest.raises(RuntimeError, match=r"ended without a result \(exit code 1\)"):
            census.run_blocks(block, [((), 2)], 2)
        assert len(forks) == 1

    def test_parent_failure_leaves_no_child(self, forks):
        def block(lo, hi):
            if lo:
                time.sleep(60)
            raise ValueError("the parent's share failed")

        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="the parent's share failed"):
            census.run_blocks(block, [((), 2)], 2)
        assert time.perf_counter() - t0 < 30
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_result_larger_than_a_pipe_buffer(self):
        # the child's 100,000 pairs pickle to far more than a 64 KiB pipe holds
        tasks = [(("x",), 200_000)]
        assert census.run_blocks(_labelled_range, tasks, 2) == census.run_blocks(_labelled_range, tasks, 1)

    def test_local_closure(self):
        offset = 7

        def shifted(lo, hi):
            return [offset + i for i in range(lo, hi)]

        assert census.run_blocks(shifted, [((), 6)], 2) == [list(range(7, 13))]


class TestSampledCensus:
    def test_deterministic(self):
        a = sampled_census(F3, 1, "rational", 300, seed=9)
        b = sampled_census(F3, 1, "rational", 300, seed=9)
        assert a.to_jsonable() == b.to_jsonable()

    def test_jobs_independent(self):
        a = sampled_census(F5, 2, "poly", 400, seed=3, jobs=1)
        b = sampled_census(F5, 2, "poly", 400, seed=3, jobs=4)
        assert a.to_jsonable() == b.to_jsonable()

    def test_full_support_matches_exhaustive(self):
        exact = poly_census(F5, 2)
        swept = sampled_census(F5, 2, "poly", None, seed=0)
        assert swept.avg_components == exact.avg_components
        assert swept.avg_periodic == exact.avg_periodic
        assert swept.avg_k_cycles == exact.avg_k_cycles

    def test_full_support_rational(self):
        exact = rat_census(F3, 1)
        swept = sampled_census(F3, 1, "rational", None, seed=0)
        assert swept.avg_components == exact.avg_components
        assert swept.avg_k_cycles == exact.avg_k_cycles
        # full-support averages are exact, so their bounds stay strict
        assert [c.relation for c in swept.theory_comparison] == [c.relation for c in exact.theory_comparison]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampled_rational_bounds_allow_sampling_error(self, seed):
        # the rat_avg_k upper bound sits only a factor 1 + 2/q^2 above the
        # centre, so a drawn mean crosses it about half the time; each of
        # these seeds failed 1-3 rows under the strict check
        rep = sampled_census(make_field(101), 2, "rational", 200, seed)
        assert rep.failed == []
        per_length = [c for c in rep.theory_comparison if c.k is not None]
        assert [c.k for c in per_length] == [1, 2, 3]
        assert all("within 5 standard errors" in c.relation for c in per_length)

    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_sampled_strict_lower_bound_allows_sampling_error(self, seed):
        # the mean component count of degree-5 maps over GF(7) is 1.7630,
        # half a standard error of 1000 draws above its strict lower bound
        # 1.7501, so a strict check failed these seeds
        rep = sampled_census(make_field(7), 5, "poly", 1000, seed)
        assert rep.failed == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampled_rare_cycle_length_without_spread(self, seed):
        # 200 maps of degree 9 over GF(11) show no 9-cycle (0.00094 expected
        # per map); a row with no spread in the sample is judged with
        # standard error 1/n instead of exactly
        rep = sampled_census(make_field(11), 9, "poly", 200, seed)
        assert rep.failed == []
        nine = [c for c in rep.theory_comparison if c.k == 9]
        assert rep.avg_k_cycles.get(9, 0) == 0 and nine[0].relation.startswith("|z| <= 5")

    def test_rare_count_below_expectation_keeps_the_variance_floor(self):
        # 3 five-cycles among 200 maps against 13.8 expected: the sample's
        # own standard error gave z = -6.25, the floor sqrt((m - m^2)/n) z = -3.0
        rep = sampled_census(make_field(11), 9, "poly", 200, 16)
        assert rep.failed == []
        five = [c for c in rep.theory_comparison if c.k == 5][0]
        assert five.observed == Fraction(3, 200) and five.relation == "|z| <= 5 (z = -3.008)"

    @pytest.mark.parametrize(
        "ctx, d, family, exhaustive", [(F5, 2, "poly", poly_census), (F3, 1, "rational", rat_census)]
    )
    def test_no_sample_count_tallies_the_whole_support(self, ctx, d, family, exhaustive):
        """samples=None is the only switch to the full support: the
        exhaustive tally, reported as a sampled run with full_support."""
        exact = exhaustive(ctx, d)
        swept = sampled_census(ctx, d, family, None, seed=0)
        assert (swept.map_count, swept.avg_components, swept.avg_periodic, swept.avg_k_cycles) == (
            exact.map_count, exact.avg_components, exact.avg_periodic, exact.avg_k_cycles
        )
        doc = swept.to_jsonable()
        assert doc["mode"] == "sampled" and doc["full_support"] is True
        assert doc["sample_count"] == exact.map_count

    def test_stderr_present(self):
        rep = sampled_census(F5, 2, "poly", 50, seed=0)
        assert rep.stderr_components is not None and rep.stderr_components >= 0
        assert rep.sample_count == 50


LO, HI, HALF, BIT = Fraction(1), Fraction(3), Fraction(1, 2), Fraction(1, 100)


class TestCompare:
    @pytest.mark.parametrize(
        "observed,kwargs,status",
        [
            # an exact average on the bound: strictness decides
            (LO, {"lower": LO, "strict": True}, "fail"),
            (LO, {"lower": LO}, "pass"),
            (HI, {"upper": HI, "strict": True}, "fail"),
            (HI, {"upper": HI}, "pass"),
            (LO, {"lower": LO, "strict": True, "tight": True}, "pass"),
            (LO + BIT, {"lower": LO, "tight": True}, "fail"),
            (HI, {"expected": HI}, "pass"),
            (HI - BIT, {"expected": HI}, "fail"),
            # a drawn mean may lie 5 standard errors past any bound
            (HI + Fraction(5, 2), {"upper": HI, "strict": True, "drawn": 30, "stderr": 0.5}, "pass"),
            (HI + Fraction(5, 2) + BIT, {"upper": HI, "strict": True, "drawn": 30, "stderr": 0.5}, "fail"),
            (LO - Fraction(5, 2), {"lower": LO, "strict": True, "drawn": 30, "stderr": 0.5}, "pass"),
            (LO - Fraction(5, 2) - BIT, {"lower": LO, "drawn": 30, "stderr": 0.5}, "fail"),
            (LO + Fraction(5, 2), {"lower": LO, "tight": True, "drawn": 30, "stderr": 0.5}, "pass"),
            (LO + Fraction(5, 2) + BIT, {"lower": LO, "tight": True, "drawn": 30, "stderr": 0.5}, "fail"),
            (HI - Fraction(5, 2), {"expected": HI, "drawn": 30, "stderr": 0.5}, "pass"),
            (HI - Fraction(5, 2) - BIT, {"expected": HI, "drawn": 30, "stderr": 0.5}, "fail"),
            # no spread in a drawn sample of 4: standard error 1/4
            (HI + Fraction(5, 4), {"upper": HI, "strict": True, "drawn": 4, "stderr": 0.0}, "pass"),
            (HI + Fraction(5, 4) + BIT, {"upper": HI, "strict": True, "drawn": 4, "stderr": 0.0}, "fail"),
            (HI + Fraction(5, 4), {"expected": HI, "drawn": 4, "stderr": None}, "pass"),
            (HI + Fraction(5, 4) + BIT, {"expected": HI, "drawn": 4, "stderr": None}, "fail"),
            # an equality's standard error is at least sqrt((m - m^2)/n),
            # here sqrt((1/2 - 1/4)/100) = 1/20; z = -4 and -6
            (HALF - Fraction(4, 20), {"expected": HALF, "drawn": 100, "stderr": 0.01}, "pass"),
            (HALF - Fraction(6, 20), {"expected": HALF, "drawn": 100, "stderr": 0.01}, "fail"),
            # a floor below the sample's standard error leaves z as it was
            (HALF + 2, {"expected": HALF, "drawn": 100, "stderr": 0.5}, "pass"),
            (HALF + Fraction(5, 2) + BIT, {"expected": HALF, "drawn": 100, "stderr": 0.5}, "fail"),
        ],
    )
    def test_rule(self, observed, kwargs, status):
        assert compare("row", observed, "rel", **kwargs).status == status

    def test_relation_text(self):
        assert compare("row", LO, "rel", lower=LO).relation == "rel"
        bound = compare("row", Fraction(2), "rel", lower=LO, upper=HI, drawn=4, stderr=0.5)
        assert bound.relation == "rel; drawn sample: within 5 standard errors (z_lower = +2.000, z_upper = -2.000)"
        assert bound.note == "" and bound.expected is None
        equal = compare("row", Fraction(2), "==", expected=HI, drawn=4, stderr=0.5)
        assert (equal.relation, equal.note) == ("|z| <= 5 (z = -2.000)", "z=-2.000000")


@given(st.lists(st.integers(0, 5), min_size=2, max_size=50).filter(lambda xs: len(set(xs)) > 1))
def test_stderr_with_spread_is_at_least_one_over_n(xs):
    # integers that are not all equal have n*sum(x^2) - sum(x)^2 >= n - 1,
    # so the 1/n a sample without spread gets never lowers a real stderr
    n = len(xs)
    assert mean_stderr(sum(xs), sum(x * x for x in xs), n) >= (1 - 1e-12) / n


class TestBudget:
    def test_exhaustive_budget_exceeded(self):
        with pytest.raises(BudgetError, match="sampled"):
            poly_census(F2, 40)

    def test_sampled_census_budget(self):
        # 2,500 evaluations either way: 500 maps of 5 points
        with pytest.raises(BudgetError, match="sample count"):
            sampled_census(F5, 3, "poly", 500, seed=0, budget=2499)
        with pytest.raises(BudgetError, match="use --samples instead"):
            sampled_census(F5, 3, "poly", None, seed=0, budget=2499)
        assert sampled_census(F5, 3, "poly", None, seed=0, budget=2500).map_count == 500

    def test_rho_experiment_budget(self):
        # 10 walks over 5 points can cost up to 50 evaluations
        with pytest.raises(BudgetError, match="sample count"):
            rho_experiment(F5, 2, "poly", 10, seed=0, budget=10)
        assert rho_experiment(F5, 2, "poly", 10, seed=0, budget=50).samples == 10

    @pytest.mark.parametrize(
        "run",
        [
            lambda: sampled_census(F5, 2, "poly", 0, seed=0),
            lambda: rho_experiment(F5, 2, "poly", 0, seed=0),
            lambda: baseline_census("random", n=5, samples=0),
        ],
        ids=["sampled_census", "rho_experiment", "baseline_census"],
    )
    def test_zero_samples_refused(self, run):
        with pytest.raises(ValueError, match="samples must be >= 1") as exc:
            run()
        assert not isinstance(exc.value, BudgetError)

    @pytest.mark.parametrize(
        "n, text",
        [
            (10**30 - 1, "9" * 30),
            (10**30, "~1.000e30"),
            (12346 * 10**40, "~1.235e44"),
            (2 * 10**4826 - 1, "~2.000e4826"),
            (12961 * 10**4822, "~1.296e4826"),
        ],
        ids=["30 digits", "31 digits", "45 digits", "4,827 digits rounded up", "4,827 digits"],
    )
    def test_long_counts_in_short_form(self, n, text):
        """Counts up to 30 digits print exactly; longer ones rounded to
        four digits times a power of ten."""
        assert _count_text(n) == text

    def test_explicit_budget_wins(self):
        assert resolve_budget(10**6) == 10**6
        poly_census(F5, 2, budget=10**6)  # no raise


class TestWorkerBound:
    def test_blocks_capped_by_usable_cpus(self, monkeypatch):
        # no process is started: the cap is read from the affinity mask
        monkeypatch.setattr(census.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert usable_cpus() == 2
        assert census._split_blocks(10**6, 10**5) == [(0, 500_000), (500_000, 10**6)]
        assert census._split_blocks(3, 1) == [(0, 3)]

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(census.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(census.os, "cpu_count", lambda: None)
        assert usable_cpus() == 1


class TestExhaustiveJobsIndependence:
    def test_poly(self):
        a = poly_census(F5, 2, jobs=1)
        b = poly_census(F5, 2, jobs=3)
        assert a.to_jsonable() == b.to_jsonable()

    def test_rat(self):
        a = rat_census(F3, 1, jobs=1)
        b = rat_census(F3, 1, jobs=2)
        assert a.to_jsonable() == b.to_jsonable()


KMAX_CASES = {  # (family, mode) -> the census, run at a kmax and a worker count
    ("poly", "exhaustive"): lambda kmax, jobs: poly_census(F5, 3, kmax=kmax, jobs=jobs),
    ("rational", "exhaustive"): lambda kmax, jobs: rat_census(F5, 2, kmax=kmax, jobs=jobs),
    ("poly", "sampled"): lambda kmax, jobs: sampled_census(F5, 3, "poly", 300, seed=4, kmax=kmax, jobs=jobs),
    ("rational", "sampled"): lambda kmax, jobs: sampled_census(F5, 2, "rational", 300, seed=4, kmax=kmax, jobs=jobs),
}


@lru_cache(maxsize=None)
def _full_report(family: str, mode: str):
    return KMAX_CASES[family, mode](None, 1)


class TestKmaxAtReportTime:
    """kmax only trims the per-length entries of a report: below the graph
    size, every entry for k <= kmax equals the full report's, and every
    aggregate entry is unchanged."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("family, mode", list(KMAX_CASES))
    def test_report_entries_up_to_kmax(self, family, mode, jobs, monkeypatch):
        monkeypatch.setattr(census, "usable_cpus", lambda: 2)
        full = _full_report(family, mode)
        assert max(full.avg_k_cycles) > 3  # so each kmax below drops lengths
        for kmax in (1, 2, 3):
            rep = KMAX_CASES[family, mode](kmax, jobs)
            assert rep.kmax == kmax
            assert rep.avg_k_cycles == {k: v for k, v in full.avg_k_cycles.items() if k <= kmax}
            if mode == "sampled":
                assert rep.stderr_k_cycles == {k: v for k, v in full.stderr_k_cycles.items() if k <= kmax}
            else:
                assert rep.stderr_k_cycles is full.stderr_k_cycles is None
            per_length = [c for c in rep.theory_comparison if c.k is not None]
            assert per_length and per_length == [c for c in full.theory_comparison if c.k is not None and c.k <= kmax]
            assert [c for c in rep.theory_comparison if c.k is None] == [
                c for c in full.theory_comparison if c.k is None
            ]
            for name in ("map_count", "avg_components", "avg_periodic", "stderr_components", "stderr_periodic"):
                assert getattr(rep, name) == getattr(full, name)


class TestCycleGivers:
    def test_frozen_counts(self):
        assert count_cycle_givers(F3, 2, (0, 1)) == 3
        assert count_cycle_givers(F3, 1, (0,)) == 3
        assert count_cycle_givers(F2, 2, (0, 1)) == 2
        assert count_cycle_givers(F5, 2, (1, 2, 4)) == 1

    def test_rejects_bad_cycles(self):
        with pytest.raises(ValueError):
            count_cycle_givers(F3, 2, ())
        with pytest.raises(ValueError):
            count_cycle_givers(F3, 2, (1, 1))


class TestInterpolationFamily:
    def test_frozen_counts(self):
        # trivial g0, deg(g0 g1) = 2, one constraint: q^(2-1) solutions
        assert enumerate_S(F3, (1,), (1, 0, 1), (0,), (1,)) == 3
        # g0 linear through the single beta
        assert enumerate_S(F3, (F3.neg(1), 1), (0, 1), (1,), (2,)) == 3
        # irreducible g0 away from betas, j1 = 0 < m = 2
        assert enumerate_S(F3, (1, 0, 1), (1,), (0, 1), (1, 2)) == 0

    def test_case_classification(self):
        assert solution_count_case(F3, (1,), (1, 0, 1), (0,)) == ("exactly", 1)
        assert solution_count_case(F3, (F3.neg(1), 1), (0, 1), (1,)) == ("exactly", 1)
        assert solution_count_case(F3, (1, 0, 1), (1,), (0, 1)) == ("at_most_one", None)

    def test_validation(self):
        with pytest.raises(ValueError, match="monic"):
            enumerate_S(F3, (2,), (1,), (0,), (1,))
        with pytest.raises(ValueError, match="irreducible"):
            enumerate_S(F3, (2, 0, 1), (1,), (0,), (1,))  # x^2+2 = (x-1)(x+1)
        with pytest.raises(ValueError, match="distinct"):
            enumerate_S(F3, (1,), (0, 1), (0, 0), (1, 1))

    @pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1)])
    def test_random_instances_obey_case_table(self, p, n):
        ctx = make_field(p, n)
        for i in range(40):
            rng = per_index_rng(1234, i)
            g0, g1, betas, gammas = random_constraint_instance(ctx, rng)
            assert g0[-1] == 1 and g1[-1] == 1
            assert len(poly_mul(ctx, g0, g1)) - 1 <= 5
            assert len(set(betas)) == len(betas) == len(gammas)
            case, e = solution_count_case(ctx, g0, g1, betas)
            count = enumerate_S(ctx, g0, g1, betas, gammas)
            if case == "exactly":
                assert count == ctx.q**e
            else:
                assert count <= 1

    def test_walks_only_the_multiples_of_g0(self, monkeypatch):
        """The walk decodes the q^deg(g1) monic h and counts f = g0 h; it
        used to decode all q^deg(g0 g1) monic f and drop those g0 does not divide."""
        decoded = []

        def spy(ctx, d, i):
            decoded.append((d, i))
            return fmaps.monic_poly_at(ctx, d, i)

        monkeypatch.setattr(census, "monic_poly_at", spy)
        assert enumerate_S(F3, (F3.neg(1), 1), (0, 1), (1,), (2,)) == 3
        assert decoded == [(1, 0), (1, 1), (1, 2)]

    @pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1)])
    def test_matches_the_filter_walk(self, p, n):
        ctx = make_field(p, n)
        for i in range(200):
            g0, g1, betas, gammas = random_constraint_instance(ctx, per_index_rng(99, i))
            assert enumerate_S(ctx, g0, g1, betas, gammas) == filter_walk_S(ctx, g0, g1, betas, gammas), i

    def test_instances_deterministic(self):
        a = random_constraint_instance(F5, per_index_rng(7, 0))
        b = random_constraint_instance(F5, per_index_rng(7, 0))
        assert a == b


class TestRho:
    def test_deterministic_and_consistent(self):
        s = rho_experiment(F5, 2, "poly", 100, seed=0)
        t = rho_experiment(F5, 2, "poly", 100, seed=0)
        assert s == t
        assert sum(s.histogram.values()) == 100
        assert s.mean_tail + s.mean_cycle == s.mean_rho
        # a walk visits at most q distinct points
        assert max(s.histogram) <= 5

    def test_rational_family(self):
        s = rho_experiment(F3, 1, "rational", 50, seed=1)
        assert sum(s.histogram.values()) == 50
        assert max(s.histogram) <= 4  # projective line has q+1 points

    def test_jobs_independent(self):
        a = rho_experiment(F5, 2, "poly", 120, seed=2, jobs=1)
        b = rho_experiment(F5, 2, "poly", 120, seed=2, jobs=3)
        assert a == b


class TestReportShape:
    def test_jsonable_exhaustive(self):
        doc = poly_census(F2, 2).to_jsonable()
        assert doc["family"] == "poly" and doc["mode"] == "exhaustive"
        assert doc["avg_components"] == {"num": "5", "den": "4"}
        assert all(isinstance(k, str) for k in doc["avg_k_cycles"])
        assert "sample_count" not in doc

    def test_jsonable_sampled(self):
        doc = sampled_census(F3, 1, "poly", 30, seed=4).to_jsonable()
        assert doc["mode"] == "sampled"
        assert doc["sample_count"] == 30 and doc["seed"] == 4

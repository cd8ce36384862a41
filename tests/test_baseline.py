"""Reference families: exact equality with closed forms at enumerable
sizes, structural invariants on every generated graph, sampler
determinism and calibration."""

import json
import math
import random
import re
import struct
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from fqdyn import baseline
from fqdyn.baseline import (
    RANDOM_SAMPLED_MAX_N,
    _labelling_at,
    _quadratic_graph,
    _random_map,
    baseline_census,
    sample_random_map,
)
from fqdyn.census import BudgetError
from fqdyn.fgraph import cycle_census
from fqdyn.seeding import per_index_rng
from fqdyn.theory import quad_graph_stats, random_map_stats
from oracles import enumerate_quadratic_graphs

GOLDEN = Path(__file__).resolve().parent / "golden"


class Ran(Exception):
    """Raised by a patched run_blocks: the run got past every refusal."""


def no_run(*args):
    raise Ran


class TestRandomExhaustive:
    def test_n2(self):
        rep = baseline_census("random", n=2)
        assert rep.graph_count == 4
        assert rep.avg_components == Fraction(5, 4)
        assert rep.avg_periodic == Fraction(3, 2)
        assert not rep.failed

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_theory_exactly(self, n):
        rep = baseline_census("random", n=n)
        th = random_map_stats(n)
        assert rep.avg_components == th.components_exact
        assert rep.avg_periodic == th.periodic_exact
        assert all(c.status == "pass" for c in rep.theory_comparison)

    def test_n4_frozen(self):
        rep = baseline_census("random", n=4)
        assert rep.avg_components == Fraction(195, 128)
        assert rep.avg_periodic == Fraction(71, 32)

    def test_cap(self, monkeypatch):
        """The budget is the only cap: n^n maps times n points, refused
        before any block runs, and a budget of exactly that runs."""
        assert baseline_census("random", n=4, budget=4**5).graph_count == 256
        monkeypatch.setattr(baseline, "run_blocks", no_run)
        message = "exhaustive random baseline of 4^4 maps needs 1024 map evaluations, over the budget of 1023;"
        with pytest.raises(BudgetError, match=re.escape(message)):
            baseline_census("random", n=4, budget=4**5 - 1)
        message = "exhaustive random baseline of 9^9 maps needs 3486784401 map evaluations, over the budget of 1000000000;"
        with pytest.raises(BudgetError, match=re.escape(message)):
            baseline_census("random", n=9)
        with pytest.raises(Ran):  # 8^9 evaluations fit the default budget
            baseline_census("random", n=8)

    def test_jobs_independent(self):
        a = baseline_census("random", n=4, jobs=1)
        b = baseline_census("random", n=4, jobs=3)
        assert a.to_jsonable() == b.to_jsonable()


class TestQuadraticEnumeration:
    @pytest.mark.parametrize(
        "m,t",
        [(2, 2), (2, 3), (1, 3), (1, 4), (3, 2)],
    )
    def test_count_and_uniqueness(self, m, t):
        graphs = list(enumerate_quadratic_graphs(m, t))
        assert len(graphs) == quad_graph_stats(m, t).graph_count
        assert len({g.succ for g in graphs}) == len(graphs)

    def test_in_degree_property_everywhere(self):
        for g in enumerate_quadratic_graphs(2, 2):
            indeg = Counter(g.succ)
            assert len(indeg) == 2
            assert all(v == 2 for v in indeg.values())

    def test_avg_periodic_matches_theory(self):
        graphs = list(enumerate_quadratic_graphs(2, 3))
        avg = Fraction(sum(sum(cycle_census(g)) for g in graphs), len(graphs))
        assert avg == quad_graph_stats(2, 3).avg_periodic == Fraction(11, 5)

    def test_identity_family(self):
        # m = 1 forces every vertex to have in-degree exactly 1: permutations
        graphs = list(enumerate_quadratic_graphs(1, 3))
        assert len(graphs) == 6
        for g in graphs:
            assert sorted(g.succ) == [0, 1, 2]

    def test_cap(self, monkeypatch):
        """The budget is the only cap, counted on the labellings a run
        decodes, (mt)!/(m!)^t, times mt points: refused before any block
        runs, and a budget of exactly that runs."""
        # (2, 3): 1800 graphs, 90 decoded labellings of 6 points
        assert baseline_census("quadratic", m=2, t=3, budget=540).graph_count == 1800
        monkeypatch.setattr(baseline, "run_blocks", no_run)
        message = (
            "exhaustive quadratic baseline of 1800 graphs (90 decoded) needs 540 map evaluations, "
            "over the budget of 539;"
        )
        with pytest.raises(BudgetError, match=re.escape(message)):
            baseline_census("quadratic", m=2, t=3, budget=539)
        # (2, 5): 113,400 decoded labellings of 28,576,800 graphs fit the
        # default budget; (2, 12) does not
        with pytest.raises(Ran):
            baseline_census("quadratic", m=2, t=5)
        with pytest.raises(BudgetError, match="over the budget of 1000000000;"):
            baseline_census("quadratic", m=2, t=12)

    def test_deterministic_order(self):
        assert [g.succ for g in enumerate_quadratic_graphs(2, 2)] == [
            g.succ for g in enumerate_quadratic_graphs(2, 2)
        ]


DECODED = [(1, 1), (1, 4), (2, 1), (2, 2), (2, 3), (3, 2), (4, 2), (1, 6)]


class TestLabellingDecoder:
    """An exhaustive quadratic run decodes the labellings of image range(t)
    and weighs them by the C(mt, t) image sets; the reference walk visits
    every image set."""

    @pytest.mark.parametrize("m,t", DECODED)
    def test_decodes_the_image_range_t_labellings_in_order(self, m, t):
        words = math.factorial(m * t) // math.factorial(m) ** t
        decoded = [_labelling_at(m, t, i).succ for i in range(words)]
        walked = [g.succ for g in enumerate_quadratic_graphs(m, t) if set(g.succ) == set(range(t))]
        assert decoded == walked
        assert len(set(decoded)) == words
        assert all(Counter(succ) == dict.fromkeys(range(t), m) for succ in decoded)

    @pytest.mark.parametrize("m,t", DECODED)
    def test_weighted_tally_equals_the_full_walk(self, m, t, monkeypatch):
        tallies = []
        sums = baseline.cycle_sums

        def spy(types, kmax):
            tallies.append(types)
            return sums(types, kmax)

        monkeypatch.setattr(baseline, "cycle_sums", spy)
        rep = baseline_census("quadratic", m=m, t=t)
        assert tallies == [Counter(map(cycle_census, enumerate_quadratic_graphs(m, t)))]
        assert rep.graph_count == quad_graph_stats(m, t).graph_count
        assert all(c.status == "pass" for c in rep.theory_comparison)


class ScriptedWords(random.Random):
    """Serves the given 32-bit words, then zeros, where the Mersenne Twister
    would serve its own: getrandbits(k <= 32) keeps one word's top k bits,
    getrandbits(32 * m) packs m words with the first word lowest."""

    def __init__(self, words):
        super().__init__(0)
        self.words = iter(words)

    def getrandbits(self, k):
        m = max(1, k // 32)
        assert k <= 32 or k == 32 * m
        return sum(next(self.words, 0) << 32 * i for i in range(m)) >> (32 * m - k)


class TestSamplers:
    def test_random_map_deterministic(self):
        assert sample_random_map(10, 42) == sample_random_map(10, 42)
        assert sample_random_map(10, 42) != sample_random_map(10, 43)

    def test_random_map_successor_frequencies(self):
        # 1000 independent maps on 10 vertices: 10^4 draws, each value
        # expected 1000 with sigma = sqrt(10^4 * 0.1 * 0.9) = 30
        counts = Counter()
        for s in range(1000):
            counts.update(sample_random_map(10, s).succ)
        for v in range(10):
            assert abs(counts[v] - 1000) < 5 * 30

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 1000, 1024, 1025, 4096, 65537])
    def test_bulk_draw_equals_randrange(self, n):
        """The bulk draw gives randrange's values in randrange's order.

        _random_map rebuilds CPython's randrange(n) from 32-bit getrandbits
        words.  If an interpreter upgrade changes how random draws them,
        this test fails, where the sampled reports would otherwise drift.
        1025, 65537 and 1 reject about half their words, so they also check
        the batches that redraw the missing values.
        """
        assert struct.calcsize("<I") == 4  # the word size the decode assumes
        for seed in range(10):
            rng = per_index_rng(seed, n)
            want = tuple(rng.randrange(n) for _ in range(n))
            assert _random_map(n, per_index_rng(seed, n)).succ == want

    @pytest.mark.parametrize("n", [1, 3, 1025])
    def test_bulk_draw_rejects_from_the_bound_up(self, n):
        # words at and around n << (32 - k), the least one randrange rejects
        limit = n << (32 - n.bit_length())
        words = [limit, limit - 1, 2**32 - 1, limit + 1, 0, limit - 1, limit] * 3
        rng = ScriptedWords(words)
        want = tuple(rng.randrange(n) for _ in range(n))
        assert _random_map(n, ScriptedWords(words)).succ == want
        assert n - 1 in want

    def test_sampled_random_refuses_n_past_32_bits(self, monkeypatch):
        # the budget admits the run, so only the 32-bit bound refuses it,
        # and it does so before any draw
        def no_draw(*args):
            raise AssertionError("drew a map")

        monkeypatch.setattr(baseline, "_random_map", no_draw)
        n = RANDOM_SAMPLED_MAX_N + 1
        assert n == 2**32
        with pytest.raises(ValueError, match=f"n <= {RANDOM_SAMPLED_MAX_N}") as exc:
            baseline_census("random", n=n, samples=2, budget=2 * n + 1)
        assert not isinstance(exc.value, BudgetError)
        with pytest.raises(ValueError, match=str(RANDOM_SAMPLED_MAX_N)):
            sample_random_map(n, 0)

    def test_quadratic_sample_valid(self):
        g = _quadratic_graph(2, 5, per_index_rng(7, 0))
        assert g == _quadratic_graph(2, 5, per_index_rng(7, 0))
        indeg = Counter(g.succ)
        assert len(indeg) == 5 and all(v == 2 for v in indeg.values())

    def test_quadratic_sample_uniform(self):
        # all 36 graphs of the (2,2) family, each expected 2000/36 = 55.6
        # with sigma = sqrt(2000 * (1/36)(35/36)) = 7.35
        population = {g.succ for g in enumerate_quadratic_graphs(2, 2)}
        counts = Counter(_quadratic_graph(2, 2, per_index_rng(s, 0)).succ for s in range(2000))
        assert set(counts) <= population
        assert len(counts) == 36
        for c in counts.values():
            assert abs(c - 2000 / 36) < 5 * 7.35


class TestBaselineCensus:
    def test_random_exhaustive_via_front_end(self):
        rep = baseline_census("random", n=4)
        assert rep.kind == "random" and rep.mode == "exhaustive"
        assert rep.avg_components == Fraction(195, 128)

    def test_quadratic_exhaustive(self):
        rep = baseline_census("quadratic", m=2, t=2)
        assert rep.graph_count == 36
        assert rep.avg_periodic == Fraction(5, 3)
        assert rep.avg_components == Fraction(4, 3)
        assert all(c.status == "pass" for c in rep.theory_comparison)

    def test_random_sampled_z(self):
        rep = baseline_census("random", n=30, samples=2000, seed=0)
        assert rep.sample_count == 2000
        assert rep.stderr_components is not None
        assert all(c.status == "pass" for c in rep.theory_comparison)

    def test_quadratic_sampled_z(self):
        rep = baseline_census("quadratic", m=2, t=12, samples=2000, seed=1)
        assert all(c.status == "pass" for c in rep.theory_comparison)

    def test_big_n_uses_asymptotics(self):
        rep = baseline_census("random", n=20000, samples=150, seed=0)
        assert [c.name for c in rep.theory_comparison] == [
            "components_z_asymptotic",
            "periodic_z_asymptotic",
        ]

    def test_sampled_jobs_independent(self):
        a = baseline_census("random", n=30, samples=1000, seed=0, jobs=1)
        b = baseline_census("random", n=30, samples=1000, seed=0, jobs=4)
        assert a.to_jsonable() == b.to_jsonable()

    def test_stderr_shrinks_with_samples(self):
        # quadrupling the sample count should roughly halve the standard
        # error; allow a wide band since the variance estimate moves too
        small = baseline_census("random", n=50, samples=500, seed=5)
        big = baseline_census("random", n=50, samples=2000, seed=5)
        ratio = small.stderr_components / big.stderr_components
        assert 1.4 < ratio < 2.9

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "random", "n": 5},  # 5^5 maps of 5 points
            {"kind": "random", "n": 1000, "samples": 50},
            {"kind": "quadratic", "m": 2, "t": 2},  # 6 decoded labellings of 4 points
            {"kind": "quadratic", "m": 2, "t": 3, "samples": 2},
        ],
    )
    def test_budget(self, kwargs):
        with pytest.raises(BudgetError, match="over the budget of 10"):
            baseline_census(**kwargs, budget=10)

    @pytest.mark.parametrize("kwargs", [{"kind": "random", "n": 9}, {"kind": "quadratic", "m": 2, "t": 12}])
    def test_budget_checked_before_any_closed_form(self, kwargs, monkeypatch):
        """An exhaustive run over the budget is refused without a closed
        form, which past a few thousand points takes seconds."""

        def fail(*args):
            raise AssertionError("closed form computed before the budget check")

        monkeypatch.setattr(baseline, "random_map_stats", fail)
        monkeypatch.setattr(baseline, "quad_graph_stats", fail)
        with pytest.raises(BudgetError, match="over the budget of 1000000000;"):
            baseline_census(**kwargs)

    @pytest.mark.parametrize(
        "golden, kwargs",
        [
            ("baseline-random-4", {"kind": "random", "n": 4}),
            ("baseline-quadratic-2-3", {"kind": "quadratic", "m": 2, "t": 3}),
        ],
    )
    def test_no_sample_count_decodes_every_graph(self, golden, kwargs):
        """samples=None is the exhaustive run: its report is the pinned
        exhaustive one."""
        rep = baseline_census(**kwargs, samples=None)
        pinned = json.loads((GOLDEN / f"{golden}.json").read_text(encoding="utf-8"))["report"]
        assert json.loads(json.dumps(rep.to_jsonable())) == pinned

    def test_budget_counts_graphs_times_points(self):
        assert baseline_census("random", n=5, samples=2, budget=10).graph_count == 2
        assert baseline_census("quadratic", m=2, t=2, budget=24).graph_count == 36  # 6 decoded of 4 points

    def test_bad_args(self):
        with pytest.raises(ValueError):
            baseline_census("random")
        with pytest.raises(ValueError):
            baseline_census("quadratic", m=2)
        with pytest.raises(ValueError):
            baseline_census("nonsense", n=3)
        with pytest.raises(ValueError):
            baseline_census("random", n=5, samples=0)

    def test_jsonable(self):
        doc = baseline_census("quadratic", m=2, t=2).to_jsonable()
        assert doc["family"] == "baseline:quadratic"
        assert doc["m"] == 2 and doc["t"] == 2
        assert "sample_count" not in doc
        sampled = baseline_census("random", n=8, samples=40, seed=0)
        doc = sampled.to_jsonable()
        assert doc["family"] == "baseline:random"
        assert doc["sample_count"] == 40

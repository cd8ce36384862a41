"""Closed-form combinatorics: values frozen from independent hand
computation, plus structural properties of the bound sets."""

import math
from fractions import Fraction
from math import comb

import pytest

from fqdyn.theory import (
    BoundSet,
    coprime_prob,
    falling,
    harmonic,
    poly_avg_k,
    poly_component_bounds,
    poly_cycle_sum,
    poly_periodic_lower,
    poly_periodic_minorant,
    quad_graph_stats,
    random_map_stats,
    rat_avg_k_bounds,
    rat_component_bounds,
    rat_count,
    rat_k_cycle_total_bounds,
    rat_periodic_lower,
    rat_periodic_minorant,
)

from oracles import harmonic_like_sum, random_map_totals


class TestBasics:
    def test_falling(self):
        assert falling(5, 0) == 1
        assert falling(5, 1) == 5
        assert falling(5, 2) == 20
        assert falling(3, 4) == 0  # runs past zero
        assert falling(0, 0) == 1

    @pytest.mark.parametrize("n,k", [(7, 3), (10, 10), (4, 0), (6, 1)])
    def test_falling_is_perm(self, n, k):
        assert falling(n, k) == math.perm(n, k)

    def test_harmonic(self):
        assert harmonic(1) == 1
        assert harmonic(3) == Fraction(11, 6)
        assert isinstance(harmonic(4), Fraction)


class TestPolyForms:
    def test_cycle_sum_values(self):
        # totals over degree <= d polynomials; cross-checked by
        # enumeration in the census tests
        assert poly_cycle_sum(2, 2, 1) == 8
        assert poly_cycle_sum(2, 2, 2) == 2
        assert poly_cycle_sum(2, 2, 3) == 0  # falling(2,3) = 0
        # degree <= 1 over F_3: constants give 3 fixed points, x gives 3,
        # each of 2x, 2x+1, 2x+2 gives 1
        assert poly_cycle_sum(3, 1, 1) == 9
        assert poly_cycle_sum(5, 2, 2) == 50

    def test_cycle_sum_range(self):
        with pytest.raises(ValueError):
            poly_cycle_sum(3, 2, 0)
        with pytest.raises(ValueError):
            poly_cycle_sum(3, 2, 4)

    def test_avg_k_values(self):
        assert poly_avg_k(2, 2, 1) == 1
        assert poly_avg_k(2, 2, 2) == Fraction(1, 4)
        assert poly_avg_k(5, 2, 1) == 1
        assert poly_avg_k(5, 2, 2) == Fraction(2, 5)
        assert poly_avg_k(7, 0, 1) == 1  # constants: one fixed point each

    def test_avg_k_independent_of_d(self):
        for d in (2, 3, 5):
            assert poly_avg_k(3, d, 2) == poly_avg_k(3, 2, 2)

    def test_avg_k_range(self):
        with pytest.raises(ValueError):
            poly_avg_k(3, 2, 3)  # k > d
        with pytest.raises(ValueError):
            poly_avg_k(3, 0, 2)

    def test_component_bounds(self):
        b = poly_component_bounds(5, 2)
        assert b.lower == Fraction(7, 5)
        assert b.upper == Fraction(37, 12)  # harmonic(3) + 5/4
        assert not b.lower_is_tight
        tight = poly_component_bounds(2, 2)
        assert tight.lower == Fraction(5, 4)
        assert tight.lower_is_tight  # d >= q
        # d >= q-1 switches the upper to harmonic(q)
        assert poly_component_bounds(4, 3).upper == harmonic(4)
        assert poly_component_bounds(2, 5).upper == harmonic(2)
        assert "log_minorant" in b.notes

    def test_periodic_lower(self):
        assert poly_periodic_lower(5, 2) == Fraction(9, 5)
        assert poly_periodic_lower(2, 2) == Fraction(3, 2)

    def test_periodic_minorant(self):
        assert poly_periodic_minorant(5, 2) == pytest.approx(5 / 3)
        # grows with the flooring square root, not with d past it
        assert poly_periodic_minorant(9, 100) == pytest.approx(5 / 6 * 3)


class TestRationalForms:
    def test_counts(self):
        assert rat_count(2, 0, "exactly") == 3
        assert rat_count(2, 1, "exactly") == 6
        assert rat_count(2, 1, "at_most") == 9
        assert rat_count(5, 2, "exactly") == 3000
        assert rat_count(5, 2, "at_most") == 5**5 + 1

    def test_coprime_prob(self):
        assert coprime_prob(2, 1) == Fraction(9, 16)
        assert coprime_prob(3, 0) == Fraction(8, 9)
        assert coprime_prob(5, 2) == Fraction(12504, 15625)
        # tends to 1 - 1/q from above as d grows
        assert coprime_prob(7, 1) > coprime_prob(7, 5) > Fraction(6, 7)

    def test_k_cycle_total_bounds(self):
        b = rat_k_cycle_total_bounds(3, 1, 1)
        assert (b.lower, b.upper) == (12, 36)
        assert b.center == 12
        assert not b.vacuous_lower
        assert rat_k_cycle_total_bounds(3, 1, 2).vacuous_lower  # q = k+1
        assert rat_k_cycle_total_bounds(2, 1, 1).vacuous_lower

    def test_avg_k_bounds(self):
        b = rat_avg_k_bounds(5, 2, 1)
        assert b.center == Fraction(6, 5)
        assert b.lower == Fraction(6, 25)
        assert b.upper == Fraction(162, 125)
        assert b.lower_applies
        assert not rat_avg_k_bounds(5, 2, 3).lower_applies  # k = d+1

    @pytest.mark.parametrize("bounds, q, d", [(rat_avg_k_bounds, 2, 3), (rat_k_cycle_total_bounds, 3, 4)])
    def test_tight_at_zero_past_q_plus_1(self, bounds, q, d):
        # P^1(F_q) has q + 1 points, so no map has a longer cycle
        past = bounds(q, d, q + 2)
        assert past.lower_is_tight and past.lower == past.upper == past.center == 0
        assert not bounds(q, d, q + 1).lower_is_tight

    def test_component_bounds(self):
        b = rat_component_bounds(3, 1)
        assert b.lower == -3  # harmonic(1) - 4
        assert b.upper == Fraction(19, 6)
        sharp = rat_component_bounds(4, 1)
        assert sharp.upper == Fraction(161, 48)
        assert "sharper_lower" in sharp.notes  # d^2 <= q

    def test_periodic_lower(self):
        assert rat_periodic_lower(5, 2) == Fraction(-6, 25)
        assert rat_periodic_lower(7, 2) == Fraction(24, 49)
        assert isinstance(rat_periodic_minorant(7, 2), float)


class TestBaselineForms:
    def test_random_map_stats_small(self):
        one = random_map_stats(1)
        assert one.components_exact == 1 and one.periodic_exact == 1
        two = random_map_stats(2)
        assert two.components_exact == Fraction(5, 4)
        assert two.periodic_exact == Fraction(3, 2)
        four = random_map_stats(4)
        assert four.components_exact == Fraction(195, 128)
        assert four.periodic_exact == Fraction(71, 32)

    def test_random_map_stats_match_term_by_term_sums(self):
        for n in [*range(1, 41), 300]:
            st = random_map_stats(n)
            assert st.components_exact == harmonic_like_sum(n, weight_extra_n=False), n
            assert st.periodic_exact == harmonic_like_sum(n, weight_extra_n=True), n

    def test_random_map_stats_match_the_counting_identities_at_1000(self):
        n = 1000
        st = random_map_stats(n)
        components, periodic = random_map_totals(n)
        assert st.components_exact == Fraction(components, n**n)
        assert st.periodic_exact == Fraction(periodic, n**n)

    def test_random_map_asymptotics(self):
        # exact sums get expensive fast (denominators near n^n), so probe
        # the float fields at a size where the exact path is still cheap
        n = 1000
        st = random_map_stats(n)
        assert st.components_asymptotic == pytest.approx(
            0.5 * math.log(n) + (math.log(2) + 0.57721566490153286) / 2
        )
        assert st.periodic_asymptotic == pytest.approx(math.sqrt(math.pi * n / 2))
        # and the asymptotic should already be close to the truth there
        assert st.components_asymptotic == pytest.approx(float(st.components_exact), rel=0.02)
        assert st.periodic_asymptotic == pytest.approx(float(st.periodic_exact), rel=0.02)

    @pytest.mark.parametrize(
        "m,t,count,avg",
        [
            (2, 2, 36, Fraction(5, 3)),
            (2, 3, 1800, Fraction(11, 5)),
            (1, 3, 6, Fraction(3)),
            (1, 4, 24, Fraction(4)),
            (3, 2, 300, Fraction(8, 5)),
        ],
    )
    def test_quad_graph_stats(self, m, t, count, avg):
        st = quad_graph_stats(m, t)
        assert st.graph_count == count
        assert st.avg_periodic == avg

    @pytest.mark.parametrize("m,t", [(2, 2), (2, 3), (3, 2), (1, 4), (2, 5)])
    def test_quad_summation_form(self, m, t):
        # written out with binomials, independently of the library
        n = m * t
        s = sum(m**k * comb(n - k, t - k) for k in range(t + 1))
        assert quad_graph_stats(m, t).avg_periodic == Fraction(s, comb(n, t)) - 1


class TestBoundSetSerialization:
    def test_jsonable(self):
        b = poly_component_bounds(5, 2)
        doc = b.to_jsonable()
        assert doc["lower"] == {"num": "7", "den": "5"}
        assert isinstance(doc["notes"]["log_minorant"], float)

    def test_defaults(self):
        b = BoundSet(lower=Fraction(0), upper=Fraction(1))
        assert b.lower_applies and not b.vacuous_lower and b.center is None

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from familyplan import core, series, share
from familyplan.errors import DomainError, NumericError

TWO_LN_TWO_MINUS_ONE = 2.0 * math.log(2.0) - 1.0
P_GRID = [round(0.05 * i, 2) for i in range(1, 20)]
FIXED_POINT = 200


def exact_average_share(n, k, p):
    """E[girls/T] at the float p = a/2^e, enclosed in [lo, hi] within 2^-129.

    Each weighted pmf addend C(T-1, m-1) c^m x^(T-m) girls / (T 2^(eT)) is
    an exact integer expression, floored to FIXED_POINT bits; a branch
    stops once its next addend ratio r is below 1 and the addend times
    r/(1-r), which bounds the rest (the weights are at most 1), is below
    2^-130.
    """
    a, power = p.as_integer_ratio()
    e = power.bit_length() - 1
    total, slack = 0, 0
    for m, other, closing, boy_closed in ((n, power - a, a, True), (k, a, power - a, False)):
        if m < 1:
            continue
        size = n + k
        addend = math.comb(size - 1, m - 1) * closing**m * other ** (size - m)
        while True:
            girls = size - n if boy_closed else k
            total += (addend * girls << FIXED_POINT) // (size << e * size)
            slack += 1
            ratio_num, ratio_den = size * other, power * (size + 1 - m)
            if ratio_num < ratio_den and (
                (addend * ratio_num << 130) < (ratio_den - ratio_num) << e * size
            ):
                slack += 1 << (FIXED_POINT - 130)
                break
            addend = addend * size * other // (size + 1 - m)
            size += 1
    return Fraction(total, 1 << FIXED_POINT), Fraction(total + slack, 1 << FIXED_POINT)


def termwise_branch(m, x, y, e, size, lcm):
    """share._branch with each head term built from scratch, as
    C(T-1, m-1) x^m y^(T-m) 2^(e*(size-T)): the reference for its Horner pass."""
    x_m, y_m = x**m, y**m
    rational, y_power = 0, y
    for j in range(m - 2, -1, -1):
        rational = rational * x + (-1) ** j * (lcm // (m - 1 - j)) * y_power
        y_power *= y
    rational, closed = rational * x << e * size, 1 << e * size
    for t in range(m, size):
        head = math.comb(t - 1, m - 1) * x_m * y ** (t - m) << e * (size - t)
        rational -= head * y_m * (lcm // t)
        closed -= head
    return rational, (-1) ** m * x_m * lcm << e * size, closed


def assert_branches_match_termwise(n, k, p):
    (a, e, c), size = core._dyadic(core.as_probability(p)), n + k
    lcm = math.lcm(*range(1, size + 1))
    for m, x, y in ((n, a, c), (k, c, a)):
        if m:
            assert share._branch(m, x, y, e, size, lcm) == termwise_branch(m, x, y, e, size, lcm), (n, k, p, m)


def decimal_share(rule, p):
    """E[girls/T] of a rule with a known closed form, in 100-digit decimals.

    (1,1): p + r ln p - ln(1-p)/r, from E[1/(1+G)] for geometric G; the
    others are the (1,0), (0,1) and the paper's (2,0) forms; r = p/(1-p).
    """
    with localcontext() as context:
        context.prec = 100
        p = Decimal(p)
        r = p / (1 - p)
        ln_p, ln_q = p.ln(), (1 - p).ln()
        forms = {
            (1, 0): lambda: 1 + r * ln_p,
            (0, 1): lambda: -ln_q / r,
            (2, 0): lambda: 1 - 2 * r * (1 + r * ln_p),
            (1, 1): lambda: p + r * ln_p - ln_q / r,
        }
        return float(forms[rule]())


def correctly_rounded(rule, p):
    lo, hi = exact_average_share(*rule, p)
    assert float(lo) == float(hi), "the enclosure straddles a rounding boundary"
    return float(lo)


class TestSocietalShare:
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.7, 0.9])
    def test_two_boys_rule_share_is_girl_probability(self, p):
        assert share.societal_share((2, 0), p, 1e-12) == pytest.approx(1.0 - p, abs=1e-9)

    def test_symmetric_rule_at_even_odds(self):
        assert share.societal_share((1, 1), 0.5, 1e-12) == pytest.approx(0.5, abs=1e-9)

    def test_rejects_zero_rule(self):
        with pytest.raises(DomainError):
            share.societal_share((0, 0), 0.5, 1e-10)

    @pytest.mark.parametrize("rule", [(1, 1), (2, 0), (0, 3), (4, 2)])
    @pytest.mark.parametrize("p", [0.03, 0.3, 0.5, 0.77, 5e-324, 1.0 - 2.0**-53])
    def test_correctly_rounded_ratio_of_exact_girls_to_size(self, rule, p):
        prob, rule = core.as_probability(p), core.as_rule(rule)
        numerator, denominators = series._wald_fraction(rule, core._dyadic(prob))
        girls, size = (Fraction(numerator, denominators[q]) for q in ("girls", "family_size"))
        assert share.societal_share(rule, p, 1e-10) == float(girls / size)


class TestAverageShare:
    def test_two_boys_rule_at_even_odds(self):
        result = share.average_share((2, 0), 0.5, 1e-12)
        assert result.value == pytest.approx(TWO_LN_TWO_MINUS_ONE, abs=1e-10)
        assert result.tail_bound == 0.0

    @pytest.mark.parametrize("p", [0.2, 0.4, 0.6, 0.8])
    def test_single_boy_rule_matches_brute_force(self, p):
        # E[(T-1)/T], checked against the sequence walk up to the deficit
        horizon = 24
        oracle = core.enumerate_brute_force((1, 0), p, horizon)
        result = share.average_share((1, 0), p, 1e-12)
        deficit = 1.0 - oracle.mass_covered
        assert abs(result.value - oracle.girl_share) <= deficit + 1e-12

    def test_single_girl_rule_mirrors_single_boy_rule(self):
        left = share.average_share((0, 1), 0.5, 1e-12).value
        right = share.average_share((1, 0), 0.5, 1e-12).value
        assert left == pytest.approx(1.0 - right, abs=1e-10)

    @pytest.mark.parametrize("rule", [(1, 1), (2, 0), (0, 1), (3, 2)])
    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_mirrored_shares_sum_to_one(self, rule, p):
        n, k = rule
        left = share.average_share((n, k), p, 1e-12).value
        right = share.average_share((k, n), 1.0 - p, 1e-12).value
        assert left + right == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("rule", [(1, 1), (2, 0), (1, 2), (3, 1)])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_shares_stay_inside_unit_interval(self, rule, p):
        societal = share.societal_share(rule, p, 1e-10)
        average = share.average_share(rule, p, 1e-10).value
        assert 0.0 < societal < 1.0
        assert 0.0 < average < 1.0


class TestClosedForm:
    def test_even_odds_value(self):
        assert share.shammai_average_share_closed_form(0.5) == pytest.approx(
            TWO_LN_TWO_MINUS_ONE, abs=1e-15
        )

    def test_high_boy_probability_sits_below_girl_probability(self):
        value = share.shammai_average_share_closed_form(0.9)
        assert value < 0.1

    @pytest.mark.parametrize("p", P_GRID)
    def test_series_agrees_with_closed_form(self, p):
        result = share.average_share((2, 0), p, 1e-10)
        closed = share.shammai_average_share_closed_form(p)
        assert result.value == pytest.approx(closed, abs=1e-8)

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8])
    @pytest.mark.parametrize(
        "rule,exact",
        [
            ((2, 0), share.shammai_average_share_closed_form),
            # E[(T-1)/T] for geometric T; its weight increases with T
            ((1, 0), lambda p: 1.0 + p * math.log(p) / (1.0 - p)),
            ((0, 1), lambda p: -(1.0 - p) * math.log(1.0 - p) / p),
        ],
    )
    def test_tail_bound_covers_closed_form_error(self, p, tol, rule, exact):
        result = share.average_share(rule, p, tol)
        assert result.tail_bound <= tol
        assert abs(result.value - exact(p)) <= result.tail_bound + 1e-14

    @pytest.mark.parametrize("p", [p for p in P_GRID if p <= 0.5])
    def test_two_boys_rule_within_four_ulps_of_the_paper(self, p):
        # for p > 1/2 the float formula itself cancels in 1 + r ln p
        value = share.average_share((2, 0), p, 1e-10).value
        closed = share.shammai_average_share_closed_form(p)
        assert abs(value - closed) <= 4 * math.ulp(value)

    @pytest.mark.parametrize("p", P_GRID + [1e-4, 1e-6, 1e-9, 1.0 - 1e-9, 0.03, 1 / 3])
    @pytest.mark.parametrize("rule", [(1, 0), (0, 1), (2, 0), (1, 1)])
    def test_correctly_rounded_closed_forms(self, p, rule):
        result = share.average_share(rule, p, 1e-10)
        assert result.value == decimal_share(rule, p)
        assert (result.tail_bound, result.terms_used) == (0.0, sum(rule))

    @pytest.mark.parametrize("rule", [(n, k) for n in range(7) for k in range(7) if n + k])
    def test_correctly_rounded_on_the_dyadic_grid(self, rule):
        # p = j/16 and 1 - p are exact, and so is the enclosure's sum
        for j in range(1, 16):
            assert share.average_share(rule, j / 16, 1e-10).value == correctly_rounded(rule, j / 16)

    @pytest.mark.parametrize("rule", [(2, 0), (3, 2), (6, 3), (2, 5), (6, 6)])
    def test_correctly_rounded_at_an_inexact_one_minus_p(self, rule):
        assert share.average_share(rule, 0.03, 1e-10).value == correctly_rounded(rule, 0.03)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 8), st.floats(1e-3, 0.999), st.integers(0, 60))
    def test_truncated_partial_sums_approach_from_below(self, n, k, p, extra):
        # families beyond the horizon add at most their mass, as girls/T <= 1;
        # both shares are correctly rounded and rounding is monotone, so the
        # gap is never negative, and 1e-14 covers the rounding of the mass
        if n + k == 0:
            n = 1
        truncated = series.truncated_moments((n, k), p, n + k + extra)
        gap = share.average_share((n, k), p, 1e-10).value - truncated.girl_share
        assert 0.0 <= gap <= 1.0 - truncated.mass_covered + 1e-14

    @pytest.mark.parametrize("n", range(13))
    def test_branch_equals_the_termwise_head(self, n):
        for k in range(13):
            for p in (0.3, 0.5, 0.005, 0.995, 5e-324, 1.0 - 2.0**-53):
                if n + k:
                    assert_branches_match_termwise(n, k, p)

    @pytest.mark.parametrize("rule", [(3, 400), (400, 3), (1000, 21)])
    def test_branch_equals_the_termwise_head_on_long_rules(self, rule):
        for p in (0.3, 0.5, 0.995):
            assert_branches_match_termwise(*rule, p)

    def test_extreme_probabilities_have_values(self):
        for rule in [(n, k) for n in range(4) for k in range(4) if n + k]:
            for p in (1e-9, 1.0 - 1e-9, 5e-324):
                assert 0.0 <= share.average_share(rule, p, 1e-10).value <= 1.0

    def test_unsettled_rounding_is_a_numeric_error(self, monkeypatch):
        monkeypatch.setattr(share, "_ZIV_ROUNDS", 0)
        with pytest.raises(NumericError):
            share.average_share((1, 1), 0.3, 1e-10)

    def test_repeated_call_computes_no_new_ln_2(self):
        # 2^bits ln 2 depends only on the working precision, so a second
        # call at the same rule and p finds every precision it needs cached
        share.average_share((3, 2), 0.3, 1e-10)
        before = share._ln_2.cache_info()
        share.average_share((3, 2), 0.3, 1e-10)
        after = share._ln_2.cache_info()
        assert after.misses == before.misses
        assert after.hits > before.hits

    def test_high_precision_ln_2_is_not_kept(self):
        # (40,40) at 5e-324 needs 43040 bits or more: computed, not cached
        share._ln_2.cache_clear()
        assert share.average_share((40, 40), 5e-324, 1e-10).value == 1.0
        assert share._ln_2.cache_info().currsize == 0

    @pytest.mark.parametrize("p", P_GRID)
    def test_average_share_strictly_below_societal_share(self, p):
        closed = share.shammai_average_share_closed_form(p)
        assert (1.0 - p) - closed > 1e-6


class TestGap:
    """The gap the CLI prints: societal share minus average share."""

    @staticmethod
    def gap(rule, p):
        return share.societal_share(rule, p, 1e-10) - share.average_share(rule, p, 1e-10).value

    def test_two_boys_rule_gap_at_even_odds(self):
        assert share.societal_share((2, 0), 0.5, 1e-10) == 0.5
        assert share.average_share((2, 0), 0.5, 1e-10).value == pytest.approx(TWO_LN_TWO_MINUS_ONE, abs=1e-15)
        assert self.gap((2, 0), 0.5) == pytest.approx(0.5 - TWO_LN_TWO_MINUS_ONE, abs=1e-15)

    def test_one_each_rule_gap_matches_brute_force(self):
        horizon = 24
        oracle = core.enumerate_brute_force((1, 1), 0.5, horizon)
        oracle_gap = oracle.girls / oracle.total - oracle.girl_share
        assert self.gap((1, 1), 0.5) == pytest.approx(oracle_gap, abs=1e-5)

    def test_two_boys_rule_gap_positive_at_quarter(self):
        assert self.gap((2, 0), 0.25) > 0.0

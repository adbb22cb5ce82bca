import math
from fractions import Fraction

import pytest

from familyplan import core, share
from familyplan.errors import DomainError

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


def assert_bound_covers_exact_sum(rule, p, tols):
    lo, hi = exact_average_share(*rule, p)
    for tol in tols:
        result = share.average_share(rule, p, tol)
        value = Fraction(result.value)
        assert max(abs(value - lo), abs(value - hi)) <= Fraction(result.tail_bound)


class TestSocietalShare:
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.7, 0.9])
    def test_two_boys_rule_share_is_girl_probability(self, p):
        assert share.societal_share((2, 0), p, 1e-12) == pytest.approx(1.0 - p, abs=1e-9)

    def test_symmetric_rule_at_even_odds(self):
        assert share.societal_share((1, 1), 0.5, 1e-12) == pytest.approx(0.5, abs=1e-9)

    def test_rejects_zero_rule(self):
        with pytest.raises(DomainError):
            share.societal_share((0, 0), 0.5, 1e-10)


class TestAverageShare:
    def test_two_boys_rule_at_even_odds(self):
        result = share.average_share((2, 0), 0.5, 1e-12)
        assert result.value == pytest.approx(TWO_LN_TWO_MINUS_ONE, abs=1e-10)
        assert result.tail_bound <= 1e-12

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

    @pytest.mark.parametrize("rule", [(n, k) for n in range(7) for k in range(7) if n + k])
    def test_bound_covers_rounding_on_the_dyadic_grid(self, rule):
        # p = j/16 and 1 - p are exact; the truncation bound alone falls
        # short by up to 2e-17 here, e.g. (1,0) at p=1/16 and tol 1e-12
        for j in range(1, 16):
            assert_bound_covers_exact_sum(rule, j / 16, (1e-10, 1e-12, 1e-13))

    @pytest.mark.parametrize("rule", [(2, 0), (3, 2), (6, 3), (2, 5), (6, 6)])
    def test_bound_covers_an_inexact_one_minus_p(self, rule):
        # 1 - 0.03 is rounded, and that error grows with the girls in a term
        assert_bound_covers_exact_sum(rule, 0.03, (1e-13, 1e-15))

    @pytest.mark.parametrize("p", P_GRID)
    def test_average_share_strictly_below_societal_share(self, p):
        closed = share.shammai_average_share_closed_form(p)
        assert (1.0 - p) - closed > 1e-6


class TestShareReport:
    def test_two_boys_rule_gap_at_even_odds(self):
        report = share.share_report((2, 0), 0.5, 1e-10)
        assert report.societal_share == pytest.approx(0.5, abs=1e-8)
        assert report.average_share == pytest.approx(TWO_LN_TWO_MINUS_ONE, abs=1e-8)
        assert report.gap == pytest.approx(0.5 - TWO_LN_TWO_MINUS_ONE, abs=1e-8)
        assert report.gap == report.societal_share - report.average_share

    def test_one_each_rule_gap_matches_brute_force(self):
        horizon = 24
        oracle = core.enumerate_brute_force((1, 1), 0.5, horizon)
        oracle_gap = oracle.girls / oracle.total - oracle.girl_share
        report = share.share_report((1, 1), 0.5, 1e-12)
        assert report.gap == pytest.approx(oracle_gap, abs=1e-5)

    def test_two_boys_rule_gap_positive_at_quarter(self):
        report = share.share_report((2, 0), 0.25, 1e-10)
        assert report.gap > 0.0

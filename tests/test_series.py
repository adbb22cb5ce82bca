import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from familyplan import core, series, share, symbolic
from familyplan.errors import DomainError, NumericError

P_GRID = [round(0.1 * i, 1) for i in range(1, 10)]
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class TestExpectedBoys:
    @pytest.mark.parametrize("p", P_GRID)
    def test_single_girl_rule_equals_birth_odds(self, p):
        result = series.expected_boys((0, 1), p, 1e-12)
        assert result.value == pytest.approx(p / (1.0 - p), abs=1e-10)
        assert result.tail_bound <= 1e-12

    @pytest.mark.parametrize("p", P_GRID)
    def test_two_boys_rule_is_constant_two(self, p):
        assert series.expected_boys((2, 0), p, 1e-12).value == pytest.approx(2.0, abs=1e-10)

    def test_matches_brute_force_within_mass_deficit(self):
        rule, p, horizon = (2, 1), 0.5, 40
        oracle = core.enumerate_brute_force(rule, p, horizon)
        boys = series.expected_boys(rule, p, 1e-13)
        size = series.expected_family_size(rule, p, 1e-13)
        truncated = series.truncated_moments(rule, p, horizon)
        # contribution of families beyond the horizon is at most their size
        deficit = size.value + size.tail_bound - truncated.total
        assert abs(boys.value - oracle.boys) <= deficit + boys.tail_bound + 1e-15

    def test_rejects_zero_rule_and_bad_tolerance(self):
        with pytest.raises(DomainError):
            series.expected_boys((0, 0), 0.5, 1e-10)
        with pytest.raises(DomainError):
            series.expected_boys((1, 1), 0.5, 0.0)
        with pytest.raises(DomainError):
            series.expected_boys((1, 1), 0.5, -1e-9)

    @pytest.mark.parametrize("p", [1e-5, 1e-9, 1.0 - 1e-9])
    def test_extreme_probability_is_exact(self, p):
        # F(1,1) = 1/p + 1/q - 1, rounded once; a series would need ~1/p terms
        exact = 1 / Fraction(p) + 1 / (1 - Fraction(p)) - 1
        assert series.expected_family_size((1, 1), p, 1e-10).value == float(exact)

    def test_overflow_is_a_numeric_error(self):
        with pytest.raises(NumericError):
            series.expected_family_size((1, 1), 5e-324, 1e-10)

    def test_large_rule_needs_no_series(self):
        assert series.expected_boys((1100, 0), 0.5, 1e-10).value == 1100.0
        assert series.expected_family_size((300, 0), 0.1, 1e-10).value == 3000.0


class TestExpectedGirls:
    @pytest.mark.parametrize("p", P_GRID)
    def test_single_girl_rule_has_one_girl(self, p):
        assert series.expected_girls((0, 1), p, 1e-12).value == pytest.approx(1.0, abs=1e-10)

    def test_anchor_values_at_even_odds(self):
        assert series.expected_girls((1, 1), 0.5, 1e-12).value == pytest.approx(1.5, abs=1e-10)
        assert series.expected_girls((2, 0), 0.5, 1e-12).value == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("rule", [(1, 1), (2, 0), (0, 1), (3, 2), (2, 3)])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_mirror_agrees_with_direct_series(self, rule, p):
        # expected_girls mirrors the boys series; the partial sums of the
        # girls series proper keep the identity falsifiable, not structural
        mirrored = series.expected_girls(rule, p, 1e-12)
        direct = series.truncated_moments(rule, p, 400).girls
        assert mirrored.value == pytest.approx(direct, abs=2e-12)


class TestExpectedFamilySize:
    def test_anchor_values_at_even_odds(self):
        assert series.expected_family_size((1, 1), 0.5, 1e-12).value == pytest.approx(
            3.0, abs=1e-10
        )
        assert series.expected_family_size((2, 0), 0.5, 1e-12).value == pytest.approx(
            4.0, abs=1e-10
        )

    @pytest.mark.parametrize("rule", [(1, 1), (2, 0), (1, 2), (3, 3), (0, 2)])
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_size_splits_into_boys_plus_girls(self, rule, p):
        size = series.expected_family_size(rule, p, 1e-12)
        boys = series.expected_boys(rule, p, 1e-12)
        girls = series.expected_girls(rule, p, 1e-12)
        combined = boys.tail_bound + girls.tail_bound + size.tail_bound
        assert size.value == pytest.approx(boys.value + girls.value, abs=combined + 1e-13)


class TestGenderRatio:
    def test_even_odds_one_each_rule(self):
        assert series.gender_ratio((1, 1), 0.5, 1e-12) == pytest.approx(1.0, abs=1e-10)

    def test_two_boys_rule_at_seven_tenths(self):
        assert series.gender_ratio((2, 0), 0.7, 1e-12) == pytest.approx(7.0 / 3.0, abs=1e-9)

    def test_three_two_rule_at_one_quarter(self):
        assert series.gender_ratio((3, 2), 0.25, 1e-12) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_builds_the_exact_numerator_once(self, monkeypatch):
        # B and G share the numerator of E[T]; only their denominators differ
        rule, p = (3, 2), 0.3
        boys, girls = (f(rule, p, 1e-12).value for f in (series.expected_boys, series.expected_girls))
        expected = boys / girls
        calls = []
        wald_fraction = series._wald_fraction

        def recording(rule, dyadic):
            calls.append(dyadic)
            return wald_fraction(rule, dyadic)

        monkeypatch.setattr(series, "_wald_fraction", recording)
        assert series.gender_ratio(rule, p, 1e-12) == expected
        assert calls == [core._dyadic(core.BirthProbability(0.3))]

    @pytest.mark.parametrize("rule", [(n, k) for n in range(4) for k in range(4) if n + k])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_ratio_equals_birth_odds(self, rule, p):
        odds = p / (1.0 - p)
        assert abs(series.gender_ratio(rule, p, 1e-12) - odds) <= 1e-8


class TestClosedForms:
    def test_values_at_even_odds(self):
        assert series.closed_form("F_H", 0.5) == pytest.approx(3.0, abs=1e-15)
        assert series.closed_form("F_S", 0.5) == pytest.approx(4.0, abs=1e-15)
        assert series.closed_form("G_H", 0.5) == pytest.approx(1.5, abs=1e-15)
        assert series.closed_form("G_S", 0.5) == pytest.approx(2.0, abs=1e-15)
        assert series.closed_form("B_H", 0.5) == pytest.approx(1.5, abs=1e-15)
        assert series.closed_form("B_S", 0.5) == pytest.approx(2.0, abs=1e-15)

    def test_golden_ratio_equalizes_the_two_family_sizes(self):
        assert series.closed_form("F_H", GOLDEN) == pytest.approx(
            series.closed_form("F_S", GOLDEN), abs=1e-12
        )

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize(
        "quantity,rule,op",
        [
            ("F_H", (1, 1), series.expected_family_size),
            ("F_S", (2, 0), series.expected_family_size),
            ("G_H", (1, 1), series.expected_girls),
            ("G_S", (2, 0), series.expected_girls),
            ("B_H", (1, 1), series.expected_boys),
            ("B_S", (2, 0), series.expected_boys),
        ],
    )
    def test_series_agree_with_closed_forms(self, p, quantity, rule, op):
        assert op(rule, p, 1e-12).value == pytest.approx(
            series.closed_form(quantity, p), abs=1e-10
        )

    def test_unknown_quantity_rejected(self):
        with pytest.raises(DomainError):
            series.closed_form("F_X", 0.5)


class TestTailBounds:
    @pytest.mark.parametrize("rule", [(1, 1), (2, 0), (0, 1), (3, 2)])
    @pytest.mark.parametrize("p", [0.15, 0.5, 0.85])
    @pytest.mark.parametrize(
        "op",
        [
            series.expected_boys,
            series.expected_girls,
            series.expected_family_size,
            share.average_share,
        ],
    )
    def test_tighter_tolerance_stays_within_reported_bound(self, rule, p, op):
        loose = op(rule, p, 1e-6)
        tight = op(rule, p, 1e-13)
        assert abs(tight.value - loose.value) <= loose.tail_bound
        assert loose.tail_bound <= 1e-6
        assert tight.terms_used >= loose.terms_used


class TestTruncatedMoments:
    @pytest.mark.parametrize("rule", [(1, 1), (2, 0), (0, 1), (2, 3), (4, 4)])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_partial_sums_match_brute_force(self, rule, p):
        horizon = 20
        assert series.truncated_moments(rule, p, horizon) == core.enumerate_brute_force(rule, p, horizon)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 10),
        st.integers(0, 10),
        st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.sampled_from([5e-324, 1.0 - 2.0**-53]),
        ),
        st.data(),
    )
    def test_every_field_equals_brute_force(self, n, k, p, data):
        # both round the same exact sums once, from weights built apart:
        # binomial ratios for the pmf, additions for brute force
        assume(n + k >= 1)
        horizon = data.draw(st.integers(1, n + k + 60), label="horizon")
        truncated = series.truncated_moments((n, k), p, horizon)
        oracle = core.enumerate_brute_force((n, k), p, horizon)
        assert tuple(truncated) == tuple(oracle)

    def test_cancelling_martingale_is_correctly_rounded(self):
        # the pmf's terms cancel to about 2.59e-34; summing rounded addends
        # read -1.33e-16 here
        truncated = series.truncated_moments((3, 0), 0.9, 41)
        assert truncated == core.enumerate_brute_force((3, 0), 0.9, 41)
        assert truncated.martingale == 2.5903799999999782e-34

    @pytest.mark.parametrize("rule,p,horizon", [((600, 0), 0.5, 1500), ((10, 600), 0.3, 1300)])
    def test_binomials_beyond_float_range(self, rule, p, horizon):
        # C(1499, 599) and C(1299, 599) exceed the largest float
        truncated = series.truncated_moments(rule, p, horizon)
        assert all(math.isfinite(value) for value in tuple(truncated))
        assert 0.0 <= truncated.mass_covered <= 1.0


CAP_RULES = [
    (n, k)
    for n in range(21)
    for k in range(21)
    if n + k
]


class TestWaldFiniteSum:
    @pytest.mark.parametrize("m", [0, 1, 2, 7])
    @pytest.mark.parametrize("count", [1, 2, 5])
    @pytest.mark.parametrize("x,e", [(1, 0), (3, 2), (5, 3)])
    def test_horner_is_its_defining_sum(self, m, count, x, e):
        # m = 0 is the n - 1 of average_share's boy-closed mass at n = 1
        direct = sum(math.comb(m + j, j) * x**j << e * (count - 1 - j) for j in range(count))
        # from the binomials made as the sum asks, and from a sweep's table of them
        assert series._horner(series._binomials(m, count), x, e) == direct
        assert series._horner(tuple(series._binomials(m, count)), x, e) == direct

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=1e-300, max_value=1.0, exclude_max=True))
    def test_correctly_rounded_on_the_whole_cap_grid(self, p):
        exact_p = Fraction(p)
        for n, k in CAP_RULES:
            boys = symbolic.evaluate_exact(symbolic.expected_boys_exact(n, k), exact_p)
            girls_exact = symbolic.mirror(symbolic.expected_boys_exact(k, n))  # G(n,k,p) = B(k,n,1-p)
            girls = symbolic.evaluate_exact(girls_exact, exact_p)
            assert series.expected_boys((n, k), p, 1e-10).value == float(boys)
            assert series.expected_girls((n, k), p, 1e-10).value == float(girls)
            assert series.expected_family_size((n, k), p, 1e-10).value == float(boys + girls)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 30),
        st.integers(0, 30),
        st.floats(min_value=1e-300, max_value=1.0, exclude_max=True),
    )
    def test_girls_mirror_boys_where_one_minus_p_is_exact(self, n, k, p):
        assume(n + k >= 1 and Fraction(1.0 - p) == 1 - Fraction(p))
        girls = series.expected_girls((n, k), p, 1e-10)
        boys = series.expected_boys((k, n), 1.0 - p, 1e-10)
        assert girls == boys

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 60), st.integers(0, 60), st.floats(0.05, 0.95))
    def test_truncated_moments_approach_from_below(self, n, k, p):
        assume(n + k >= 1)
        boys = series.expected_boys((n, k), p, 1e-10).value
        size = series.expected_family_size((n, k), p, 1e-10).value
        horizon = 2 * math.ceil(size) + 2 * (n + k)
        # every later pmf addend ratio is below r, so the families beyond
        # the horizon hold E[T; T > H] <= (H + 1/(1-r)^2) P(T > H)
        r = max(horizon * x / (horizon + 1 - m) for m, x in ((n, 1 - p), (k, p)) if m)
        assert r < 1.0
        truncated = series.truncated_moments((n, k), p, horizon)
        dropped = 1.0 - truncated.mass_covered
        slack = 1e-12 * size + horizon * 1e-15
        size_deficit = size - truncated.total
        boys_deficit = boys - truncated.boys
        assert (horizon + 1) * dropped - slack <= size_deficit
        assert size_deficit <= (horizon + 1 / (1 - r) ** 2) * dropped + slack
        assert n * dropped - slack <= boys_deficit <= size_deficit + slack

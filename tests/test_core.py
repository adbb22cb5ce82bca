import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from familyplan import core
from familyplan.errors import DomainError

RULES_TO_4 = [(n, k) for n in range(5) for k in range(5) if n + k >= 1]
P_GRID = [0.1, 0.3, 0.5, 0.7, 0.9]


def pmf(rule, p, t):
    return sum(core.stopping_pmf_components(rule, p, t))


class TestValidation:
    def test_rule_rejects_negative_counts(self):
        with pytest.raises(DomainError):
            core.Rule(-1, 0)
        with pytest.raises(DomainError):
            core.Rule(0, -2)

    def test_rule_rejects_non_integers(self):
        with pytest.raises(DomainError):
            core.Rule(1.5, 0)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7, float("nan"), float("inf")])
    def test_probability_rejects_boundary_and_outside(self, p):
        with pytest.raises(DomainError):
            core.BirthProbability(p)

    def test_zero_rule_rejected_by_operations(self):
        zero = core.Rule(0, 0)
        with pytest.raises(DomainError):
            core.stopping_pmf_components(zero, 0.5, 3)
        with pytest.raises(DomainError):
            core.enumerate_brute_force(zero, 0.5, 10)

    def test_pmf_rejects_zero_children(self):
        with pytest.raises(DomainError):
            core.stopping_pmf_components((1, 1), 0.5, 0)


class TestPmf:
    def test_two_boys_rule_needs_boy_boy(self):
        # only the sequence BB stops at 2, probability p^2
        assert pmf((2, 0), 0.5, 2) == pytest.approx(0.25, abs=1e-15)

    def test_one_each_rule_at_two(self):
        # BG and GB, each 1/4
        assert pmf((1, 1), 0.5, 2) == pytest.approx(0.5, abs=1e-15)

    def test_two_one_rule_at_four_matches_enumeration(self):
        # frozen from the sequence walk: 3 boy-last + 1 girl-last sequences of mass 1/16
        enumerated = sum(
            0.5**boys * 0.5**girls
            for boys, girls, _last in core._stopped_sequences(2, 1, 6)
            if boys + girls == 4
        )
        assert enumerated == pytest.approx(0.25, abs=1e-15)
        assert pmf((2, 1), 0.5, 4) == pytest.approx(enumerated, abs=1e-14)

    @pytest.mark.parametrize(
        "rule,expected", [((1, 1), 2), ((2, 0), 2), ((3, 2), 5), ((1, 0), 1), ((0, 1), 1)]
    )
    def test_support_min(self, rule, expected):
        assert core.Rule(*rule).total_required == expected

    @pytest.mark.parametrize("rule", [(1, 1), (3, 2), (2, 0)])
    def test_zero_below_support(self, rule):
        for t in range(1, core.Rule(*rule).total_required):
            assert pmf(rule, 0.3, t) == 0.0

    @pytest.mark.parametrize("rule", RULES_TO_4)
    def test_normalization_against_brute_force(self, rule):
        horizon = 20
        for p in P_GRID:
            total = math.fsum(
                pmf(rule, p, t)
                for t in range(core.Rule(*rule).total_required, horizon + 1)
            )
            oracle = core.enumerate_brute_force(rule, p, horizon)
            assert total == pytest.approx(oracle.mass_covered, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 5),
        k=st.integers(0, 5),
        p=st.floats(0.05, 0.95),
        t=st.integers(1, 30),
    )
    def test_mirror_symmetry(self, n, k, p, t):
        if n + k < 1:
            n = 1
        direct = pmf((n, k), p, t)
        mirrored = pmf((k, n), 1.0 - p, t)
        assert direct == pytest.approx(mirrored, rel=1e-12, abs=1e-300)
        assert 0.0 <= direct <= 1.0


class TestBruteForce:
    def test_single_boy_rule_geometric(self):
        result = core.enumerate_brute_force((1, 0), 0.5, 20)
        assert result.mass_covered == 1.0 - 2.0**-20
        # boys is exactly 1 in every stopped family
        assert result.boys == result.mass_covered

    def test_one_each_rule_family_size(self):
        result = core.enumerate_brute_force((1, 1), 0.5, 20)
        assert result.total == pytest.approx(3.0, abs=1e-3)
        assert result.mass_covered > 1.0 - 1e-4

    def test_two_boys_rule_family_size(self):
        result = core.enumerate_brute_force((2, 0), 0.5, 20)
        assert result.total == pytest.approx(4.0, abs=1e-3)

    def test_rejects_horizon_above_cap(self):
        with pytest.raises(DomainError):
            core.enumerate_brute_force((1, 1), 0.5, core.BRUTE_FORCE_CAP + 1)

    def test_explicit_cap_raise_allows_deeper_walks(self):
        result = core.enumerate_brute_force((2, 1), 0.5, 30, cap=30)
        assert result.mass_covered > 1.0 - 1e-7

    def test_outcomes_have_first_satisfaction_structure(self):
        # the closing birth brings its own sex to exactly the required count
        for boys, girls, last_is_boy in core._stopped_sequences(2, 1, 12):
            if last_is_boy:
                assert boys == 2 and girls >= 1
            else:
                assert girls == 1 and boys >= 2
            assert boys >= 2 and girls >= 1

    def test_outcome_count_matches_direct_walk(self):
        # every stopped leaf is a distinct sequence: cross-check the count
        # for (1,1) at horizon 5: T=t has exactly 2 sequences for t >= 2
        by_total = {}
        for boys, girls, _last in core._stopped_sequences(1, 1, 5):
            by_total[boys + girls] = by_total.get(boys + girls, 0) + 1
        assert by_total == {2: 2, 3: 2, 4: 2, 5: 2}

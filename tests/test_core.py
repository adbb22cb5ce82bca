import gc
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from familyplan import analysis, core, montecarlo, series, share, symbolic
from familyplan.errors import DomainError, NumericError

RULES_TO_4 = [(n, k) for n in range(5) for k in range(5) if n + k >= 1]
RULES_TO_6 = [(n, k) for n in range(7) for k in range(7) if n + k >= 1]
P_GRID = [0.1, 0.3, 0.5, 0.7, 0.9]

# public entries across the layers that take a rule, called with the rule under test
RULE_TAKERS = {
    "as_rule": core.as_rule,
    "expected_boys": lambda rule: series.expected_boys(rule, 0.5, 1e-10),
    "expected_girls": lambda rule: series.expected_girls(rule, 0.5, 1e-10),
    "expected_family_size": lambda rule: series.expected_family_size(rule, 0.5, 1e-10),
    "gender_ratio": lambda rule: series.gender_ratio(rule, 0.5, 1e-10),
    "average_share": lambda rule: share.average_share(rule, 0.5, 1e-10),
    "societal_share": lambda rule: share.societal_share(rule, 0.5, 1e-10),
    "crossing_first": lambda rule: analysis.crossing_probability(rule, (1, 1), 1e-10),
    "crossing_second": lambda rule: analysis.crossing_probability((1, 1), rule, 1e-10),
    "sweep": lambda rule: analysis.sweep([rule], ["F"], 0.1, 0.9, 2, 1e-10),
    "run_simulation": lambda rule: montecarlo.run_simulation(rule, 0.5, 10, 0),
    "sample_outcomes": lambda rule: montecarlo.sample_outcomes(rule, 0.5, 10, 0),
    "simulate_family": lambda rule: montecarlo.simulate_family(rule, 0.5, montecarlo.FamilyStream(0, 0)),
    "truncated_moments": lambda rule: series.truncated_moments(rule, 0.5, 10),
    "enumerate_brute_force": lambda rule: core.enumerate_brute_force(rule, 0.5, 10),
    "stopping_pmf_components": lambda rule: core.stopping_pmf_components(rule, 0.5, 3),
}

# public entries that take a tolerance, called with the tolerance under test
TOL_TAKERS = {
    "expected_boys": lambda tol: series.expected_boys((1, 1), 0.5, tol),
    "expected_girls": lambda tol: series.expected_girls((1, 1), 0.5, tol),
    "expected_family_size": lambda tol: series.expected_family_size((1, 1), 0.5, tol),
    "gender_ratio": lambda tol: series.gender_ratio((1, 1), 0.5, tol),
    "societal_share": lambda tol: share.societal_share((1, 1), 0.5, tol),
    "average_share": lambda tol: share.average_share((1, 1), 0.5, tol),
    "crossing_probability": lambda tol: analysis.crossing_probability((1, 1), (2, 0), tol),
    "sweep": lambda tol: analysis.sweep([(1, 1)], ["F"], 0.1, 0.9, 2, tol),
}


def pmf(rule, p, t):
    return sum(core.stopping_pmf_components(rule, p, t))


def walked_sequences(n, k, limit):
    """Count the birth sequences of length <= limit, pruned at first
    satisfaction, by their (boys, girls) outcome.

    The walk is a plain depth-first enumeration of boy/girl strings; it never
    touches binomial coefficients, which keeps it independent of the series
    formulas it is used to check.
    """
    counts = Counter()

    def walk(boys, girls):
        if boys + girls == limit:
            return
        if boys + 1 >= n and girls >= k:
            counts[boys + 1, girls] += 1
        else:
            walk(boys + 1, girls)
        if boys >= n and girls + 1 >= k:
            counts[boys, girls + 1] += 1
        else:
            walk(boys, girls + 1)

    walk(0, 0)
    return counts


def horizon_with_tail_below(rule, p, tail):
    """The first horizon H with P(T > H) < tail.

    A family still going after H births has fewer than n boys or fewer than
    k girls among them, so P(T > H) is at most the sum of the two binomial
    lower tails.
    """
    n, k = rule
    q = 1.0 - p
    horizon = n + k
    while (
        sum(math.comb(horizon, j) * p**j * q ** (horizon - j) for j in range(n))
        + sum(math.comb(horizon, j) * q**j * p ** (horizon - j) for j in range(k))
        >= tail
    ):
        horizon += 1
    return horizon


class TestValidation:
    def test_rule_rejects_negative_counts(self):
        with pytest.raises(DomainError):
            core.Rule(-1, 0)
        with pytest.raises(DomainError):
            core.Rule(0, -2)

    def test_rule_rejects_non_integers(self):
        with pytest.raises(DomainError):
            core.Rule(1.5, 0)

    # 10**400 is beyond float64, where math.isfinite raises OverflowError
    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7, float("nan"), float("inf"), 10**400])
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

    @pytest.mark.parametrize(
        "rule,message",
        [(rule, "a rule is a Rule or a pair") for rule in (5, (1, 2, 3), (1,), None)]
        + [(rule, r"the \(0,0\) rule stops before the first birth") for rule in ((0, 0), core.Rule(0, 0))],
    )
    @pytest.mark.parametrize("entry", RULE_TAKERS)
    def test_malformed_rule_is_a_domain_error(self, entry, rule, message):
        with pytest.raises(DomainError, match=message):
            RULE_TAKERS[entry](rule)

    @pytest.mark.parametrize("tol", [True, False])
    @pytest.mark.parametrize("entry", TOL_TAKERS)
    def test_boolean_tolerance_is_a_domain_error(self, entry, tol):
        # a bool is an int to Python, but no numeric input takes one
        with pytest.raises(DomainError, match="tol must be a positive real"):
            TOL_TAKERS[entry](tol)


# Each record with one instance of it and its field order, which is that of
# the frozen dataclasses the records were before they became NamedTuples.
RECORDS = {
    "Rule": (core.Rule(2, 3), ("boys_required", "girls_required")),
    "BirthProbability": (core.BirthProbability(0.3), ("p",)),
    "TruncatedMoments": (
        core.enumerate_brute_force((1, 1), 0.5, 6),
        ("mass_covered", "boys", "girls", "total", "girl_share", "martingale"),
    ),
    "SeriesResult": (series.expected_boys((1, 1), 0.5, 1e-10), ("value", "tail_bound", "terms_used")),
    "SweepRow": (analysis.sweep([(1, 1)], ["F"], 0.2, 0.8, 2, 1e-10)[0], ("p", "quantities")),
    "FamilyOutcome": (
        montecarlo.simulate_family((1, 1), 0.5, montecarlo.FamilyStream(0, 0)),
        ("boys", "girls", "total", "martingale_terminal", "girl_share"),
    ),
    "SimulationSummary": (
        montecarlo.run_simulation((1, 1), 0.5, 10, 0),
        (
            "samples", "seed", "mean_boys", "mean_girls", "mean_total", "mean_girl_share",
            "mean_martingale", "se_boys", "se_girls", "se_total", "se_girl_share",
            "se_martingale", "ratio_estimate",
        ),
    ),
    "RatioCertificate": (
        symbolic.verify_ratio_identity(1, 1), ("boys_required", "girls_required", "holds", "lhs", "rhs")
    ),
}


class TestRecords:
    @pytest.mark.parametrize("name", RECORDS)
    def test_fields_keep_their_order_and_cannot_be_assigned(self, name):
        record, fields = RECORDS[name]
        assert type(record).__name__ == name
        assert record._fields == fields
        assert tuple(record) == tuple(getattr(record, field) for field in fields)
        with pytest.raises(AttributeError):
            setattr(record, fields[0], getattr(record, fields[0]))
        with pytest.raises(AttributeError):
            record.unknown_field = 0

    def test_summary_dict_keeps_the_field_order(self):
        summary, fields = RECORDS["SimulationSummary"]
        assert list(summary.to_dict()) == list(fields)
        assert summary.to_dict() == summary._asdict()

    def test_a_record_equals_the_plain_tuple_of_its_fields(self):
        assert core.Rule(2, 3) == (2, 3)
        assert core.Rule(2, 3)._replace(girls_required=1) == core.Rule(2, 1)
        assert core.BirthProbability(0.25) == (0.25,)

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: core.Rule(-1, 0), "boys_required must be >= 0, got -1"),
            (lambda: core.Rule(0, 1.5), "girls_required must be an integer, got 1.5"),
            (lambda: core.Rule(1, 1)._replace(boys_required=-1), "boys_required must be >= 0, got -1"),
            (lambda: core.Rule._make((1, True)), "girls_required must be an integer, got True"),
            (lambda: core.BirthProbability(1.5), r"p must lie strictly in \(0, 1\), got 1.5"),
            (lambda: core.BirthProbability("0.5"), "p must be a real number, got '0.5'"),
            (lambda: core.BirthProbability(0.5)._replace(p=2.0), r"p must lie strictly in \(0, 1\), got 2.0"),
            (lambda: core.BirthProbability._make([math.nan]), r"p must lie strictly in \(0, 1\), got nan"),
        ],
    )
    def test_replace_and_make_check_like_the_constructor(self, make, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            make()


class TestPmf:
    def test_two_boys_rule_needs_boy_boy(self):
        # only the sequence BB stops at 2, probability p^2
        assert pmf((2, 0), 0.5, 2) == pytest.approx(0.25, abs=1e-15)

    def test_one_each_rule_at_two(self):
        # BG and GB, each 1/4
        assert pmf((1, 1), 0.5, 2) == pytest.approx(0.5, abs=1e-15)

    def test_two_one_rule_at_four_matches_enumeration(self):
        # frozen from the sequence walk: 3 boy-last (GGB, GBG, BGG then B) and
        # 1 girl-last (BBB then G) sequences of mass 1/16
        counts = core._stopped_sequences(2, 1, 6)
        assert {outcome: counts[outcome] for outcome in ((2, 2), (3, 1))} == {(2, 2): 3, (3, 1): 1}
        enumerated = sum(
            count * 0.5**boys * 0.5**girls
            for (boys, girls), count in counts.items()
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

    @pytest.mark.parametrize(
        "call",
        [
            lambda: core.stopping_pmf_components((1, 0), 0.5, 10**20),
            lambda: core.stopping_pmf_components((10**20, 1), 0.5, 10**20 + 5),
            lambda: series.truncated_moments((10**20, 1), 0.5, 10**20 + 1),
        ],
        ids=["pmf_1_0", "pmf_huge_n", "truncated_moments"],
    )
    def test_addend_too_large_for_exact_integers_is_a_numeric_error(self, call):
        # 2^(e*t) and c^(t-n) at t = 10^20 overflow the integer digit count
        with pytest.raises(NumericError, match="too large for exact integers"):
            call()

    def test_addend_too_large_for_memory_is_a_numeric_error(self):
        # 2^(10^12) needs 125 GB, which a 1.5 GB address space turns into a
        # MemoryError; run in a child so that the limit stays there
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

        code = (
            "from familyplan import core\n"
            "try:\n"
            "    core.stopping_pmf_components((1, 0), 0.5, 10**12)\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        src = os.path.dirname(os.path.dirname(core.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])),
            preexec_fn=limit_memory,
            timeout=120,
        )
        assert proc.stdout.startswith("NumericError "), proc.stderr
        assert "too large for exact integers" in proc.stdout


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

    def test_thirty_births_cover_nearly_all_mass(self):
        result = core.enumerate_brute_force((2, 1), 0.5, 30)
        assert result.mass_covered > 1.0 - 1e-7

    def test_walk_keeps_nothing_once_it_returns(self):
        gc.collect()
        tracemalloc.start()
        try:
            core.enumerate_brute_force((6, 6), 0.5, 20)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 2**20
        # 2^20 sequences, but the count holds one entry per (boys, girls) state
        assert peak < 2**20

    @pytest.mark.parametrize(
        "rule,horizons", [(rule, (1, 5, 12, 16)) for rule in RULES_TO_6] + [((12, 12), (20,))]
    )
    def test_count_equals_the_recursive_walk(self, rule, horizons):
        for horizon in horizons:
            assert core._stopped_sequences(*rule, horizon) == walked_sequences(*rule, horizon)

    @pytest.mark.parametrize("rule", RULES_TO_4)
    def test_whole_expectations_match_the_exact_values(self, rule):
        # past a horizon that leaves less than 2^-60 of the mass, brute force
        # is the whole expectation, not a truncated one; the exact mass lies
        # within 2^-60 of 1, so it rounds to 1.0, and the oracle's mass is
        # one exact sum rounded once
        for p in P_GRID:
            result = core.enumerate_brute_force(rule, p, horizon_with_tail_below(rule, p, 2**-60))
            assert result.mass_covered == 1.0
            exact = {
                "boys": series.expected_boys(rule, p, 1e-10).value,
                "girls": series.expected_girls(rule, p, 1e-10).value,
                "total": series.expected_family_size(rule, p, 1e-10).value,
                "girl_share": share.average_share(rule, p, 1e-10).value,
            }
            for field, value in exact.items():
                assert getattr(result, field) == pytest.approx(value, rel=1e-12), (p, field)

    @pytest.mark.parametrize("rule", [(0, 1), (2, 1), (3, 3)])
    def test_every_field_is_the_exact_sum_rounded_once(self, rule):
        # the Fraction sums over the counted outcomes, rounded at the end
        for p in P_GRID + [1 / 3]:
            exact_p = Fraction(p)
            fields = [Fraction(0)] * 6
            for (boys, girls), count in core._stopped_sequences(*rule, 25).items():
                weight = count * exact_p**boys * (1 - exact_p) ** girls
                stats = (1, boys, girls, boys + girls, Fraction(girls, boys + girls),
                         boys / exact_p - girls / (1 - exact_p))
                fields = [f + weight * s for f, s in zip(fields, stats)]
            result = core.enumerate_brute_force(rule, p, 25)
            assert tuple(result) == tuple(map(float, fields)), p

    def test_outcomes_have_first_satisfaction_structure(self):
        # the closing birth brings its own sex to exactly the required count,
        # and the other sex is already at least at its own
        counts = core._stopped_sequences(2, 1, 12)
        assert counts and min(counts.values()) >= 1
        for boys, girls in counts:
            assert boys == 2 or girls == 1
            assert boys >= 2 and girls >= 1

    def test_outcome_count_matches_direct_walk(self):
        # every stopped leaf is a distinct sequence: cross-check the count
        # for (1,1) at horizon 5: T=t has exactly 2 sequences for t >= 2
        by_total = {}
        for (boys, girls), count in core._stopped_sequences(1, 1, 5).items():
            by_total[boys + girls] = by_total.get(boys + girls, 0) + count
        assert by_total == {2: 2, 3: 2, 4: 2, 5: 2}

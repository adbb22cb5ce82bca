import csv
import io
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from familyplan import analysis, series, share
from familyplan.core import Rule
from familyplan.errors import BracketingError, DomainError, NumericError

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SMALL_RULES = [(n, k) for n in range(8) for k in range(8) if n + k]


def _exact_sign(a, b, p):
    """Sign of F_a - F_b at the float or dyadic Fraction p, from the exact Wald fractions."""
    numerator, denominator = Fraction(p).as_integer_ratio()
    dyadic = (numerator, denominator.bit_length() - 1, denominator - numerator)
    (num_a, dens_a), (num_b, dens_b) = (series._wald_fraction(Rule(*rule), dyadic) for rule in (a, b))
    cross = num_a * dens_b["family_size"] - num_b * dens_a["family_size"]
    return (cross > 0) - (cross < 0)


def _public_value(kind, rule, p):
    """The public function behind a sweep cell; NaN where it raises NumericError."""
    functions = {
        "F": lambda: series.expected_family_size(rule, p, 1e-10).value,
        "G": lambda: series.expected_girls(rule, p, 1e-10).value,
        "B": lambda: series.expected_boys(rule, p, 1e-10).value,
        "ratio": lambda: series.gender_ratio(rule, p, 1e-10),
        "societal_share": lambda: share.societal_share(rule, p, 1e-10),
        "average_share": lambda: share.average_share(rule, p, 1e-10).value,
    }
    try:
        return functions[kind]()
    except NumericError:
        return math.nan


def _check_crossing_contract(a, b):
    """BracketingError iff one rule needs at least as many boys and girls as
    the other; otherwise the root is the float nearest the exact one, the
    even one on a tie."""
    if (a[0] - b[0]) * (a[1] - b[1]) >= 0:
        with pytest.raises(BracketingError):
            analysis.crossing_probability(a, b, 1e-10)
        return
    root = analysis.crossing_probability(a, b, 1e-10)
    assert 0.0 < root < 1.0
    # the exact root lies between the midpoints to the two neighbours
    below, above = (
        _exact_sign(a, b, (Fraction(root) + Fraction(math.nextafter(root, end))) / 2) for end in (0.0, 1.0)
    )
    assert below * above < 0 or (below * above == 0 and root / math.ulp(root) % 2 == 0)


class TestCrossingProbability:
    def test_one_each_versus_two_boys_is_the_golden_ratio(self):
        root = analysis.crossing_probability((1, 1), (2, 0), 1e-10)
        assert abs(root - GOLDEN) <= 1e-9
        assert root == 0.6180339887498949

    def test_symmetric_pair_crosses_at_even_odds(self):
        # F(1,0,p) = 1/p and F(0,1,p) = 1/(1-p) meet at 1/2
        root = analysis.crossing_probability((1, 0), (0, 1), 1e-10)
        assert abs(root - 0.5) <= 1e-9

    @pytest.mark.parametrize(
        "a,b", [((7, 0), (7, 1)), ((0, 7), (1, 7)), ((1, 7), (2, 7)), ((0, 7), (2, 7))]
    )
    def test_equal_rounded_sizes_are_not_a_root(self, a, b):
        # F(7,1) - F(7,0) = p^7/q > 0, yet both round to 700.0 at p = 0.01;
        # the other pairs tie likewise at 0.99
        with pytest.raises(BracketingError):
            analysis.crossing_probability(a, b, 1e-10)

    def test_exact_tie_on_the_grid_is_a_root(self):
        # F(2,0) = 2/p and F(0,2) = 2/q meet at 1/2, the first midpoint
        assert analysis.crossing_probability((2, 0), (0, 2), 1e-10) == 0.5

    def test_root_below_one_percent_is_found(self):
        # F(1,0) = 1/p and F(0,200) = 200/q meet at 1/201
        root = analysis.crossing_probability((1, 0), (0, 200), 1e-10)
        assert root == 0.004975124378109453 == 1 / 201

    def test_bracket_comes_from_the_rule_counts(self, monkeypatch):
        # the sign near 0 is that of n_a - n_b, so the extreme floats, which
        # cost most of a large pair's run, are never evaluated
        evaluated = []
        wald_fraction = series._wald_fraction

        def recording(rule, dyadic):
            evaluated.append(dyadic)
            return wald_fraction(rule, dyadic)

        monkeypatch.setattr(analysis, "_wald_fraction", recording)
        assert analysis.crossing_probability((3000, 1), (1, 3000), 1e-10) == 0.5
        assert evaluated == [(1, 1, 1), (1, 1, 1)]  # p = 1/2^1

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_adjacent_ends_go_to_the_nearer_and_a_tie_to_the_even(self, monkeypatch, offset):
        # F(0,1) - F(1,0) is replaced by p - x, for x at the midpoint of two
        # adjacent floats, or 2^-80 below or above it; one float of each pair
        # of low ends has an even significand
        for low in (0.6, math.nextafter(0.6, 1.0)):
            high = math.nextafter(low, 1.0)
            x = (Fraction(low) + Fraction(high)) / 2 + Fraction(offset, 2**80)

            def fraction(rule, dyadic):
                a, e, _ = dyadic
                return (a, {"family_size": 1 << e}) if rule == (0, 1) else (x.numerator, {"family_size": x.denominator})

            monkeypatch.setattr(analysis, "_wald_fraction", fraction)
            even = low if low / math.ulp(low) % 2 == 0 else high
            expected = {-1: low, 0: even, 1: high}[offset]
            assert analysis.crossing_probability((0, 1), (1, 0), 1e-10) == expected

    @pytest.mark.parametrize("a", SMALL_RULES, ids=str)
    def test_contract_on_every_small_pair(self, a):
        for b in SMALL_RULES:
            if b != a:
                _check_crossing_contract(a, b)

    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(st.integers(0, 20), st.integers(0, 20)).filter(any),
        st.tuples(st.integers(0, 20), st.integers(0, 20)).filter(any),
    )
    def test_contract_on_sampled_pairs(self, a, b):
        _check_crossing_contract(a, b)

    def test_identical_rules_have_no_bracket(self):
        with pytest.raises(BracketingError):
            analysis.crossing_probability((1, 1), (1, 1), 1e-10)

    def test_tolerance_below_float_spacing_ends(self):
        # the bracket narrows to adjacent floats, never to 1e-300
        root = analysis.crossing_probability((1, 1), (2, 0), 1e-300)
        assert abs(root - 0.6180339887498949) <= math.ulp(0.6180339887498949)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(DomainError):
            analysis.crossing_probability((1, 1), (2, 0), -1e-10)

    def test_no_crossing_names_the_rules_as_pairs(self):
        with pytest.raises(BracketingError, match=r"^family sizes of rules \(7,0\) and \(7,1\) never"):
            analysis.crossing_probability(Rule(7, 0), (7, 1), 1e-10)


class TestSweep:
    def test_anchor_values_at_even_odds(self):
        rows = analysis.sweep([(1, 1), (2, 0)], ["F"], 0.1, 0.9, 81, 1e-10)
        assert len(rows) == 81
        mid = rows[40]
        assert mid.p == pytest.approx(0.5, abs=1e-15)
        assert mid.quantities["F(1,1)"] == pytest.approx(3.0, abs=1e-8)
        assert mid.quantities["F(2,0)"] == pytest.approx(4.0, abs=1e-8)

    def test_ratio_cells_equal_birth_odds(self):
        rows = analysis.sweep([(1, 1), (3, 2)], ["ratio"], 0.2, 0.8, 7, 1e-10)
        for row in rows:
            odds = row.p / (1.0 - row.p)
            for value in row.quantities.values():
                assert abs(value - odds) <= 1e-8

    def test_girls_at_golden_point(self):
        rows = analysis.sweep([(1, 1)], ["G"], 0.618034, 0.7, 2, 1e-10)
        assert rows[0].quantities["G(1,1)"] == pytest.approx(1.236068, abs=1e-5)

    def test_overflowing_cell_is_nan(self):
        # G(1,1) = (1 - p + p^2)/p exceeds float64 at the smallest subnormal
        # p, while B(1,1) there is about 1; at even odds both evaluate
        rows = analysis.sweep([(1, 1)], ["G", "B"], 5e-324, 0.5, 2, 1e-10)
        assert math.isnan(rows[0].quantities["G(1,1)"])
        assert rows[0].quantities["B(1,1)"] == 1.0
        assert rows[1].quantities["G(1,1)"] == 1.5

    def test_large_rule_cells_are_exact(self):
        rows = analysis.sweep([(300, 0)], ["F"], 0.1, 0.5, 2, 1e-10)
        assert rows[0].quantities["F(300,0)"] == 3000.0
        assert rows[1].quantities["F(300,0)"] == 600.0

    def test_rule_too_large_for_exact_integers_is_nan(self):
        huge = [(10**20, 0), (10**20, 1)]
        rows = analysis.sweep(huge + [(1, 1)], ["F", "average_share"], 0.3, 0.7, 2, 1e-10)
        for row in rows:
            for n, k in huge:
                assert math.isnan(row.quantities[f"F({n},{k})"])
                assert math.isnan(row.quantities[f"average_share({n},{k})"])
            assert math.isfinite(row.quantities["F(1,1)"])

    def test_rows_are_monotone_and_aligned(self):
        rows = analysis.sweep([(1, 1), (2, 0)], ["F", "G", "B"], 0.2, 0.8, 13, 1e-8)
        keys = list(rows[0].quantities)
        assert keys == ["F(1,1)", "F(2,0)", "G(1,1)", "G(2,0)", "B(1,1)", "B(2,0)"]
        for earlier, later in zip(rows, rows[1:]):
            assert later.p > earlier.p
            assert list(later.quantities) == keys
        assert rows[0].p == 0.2
        assert rows[-1].p == 0.8

    def test_rerun_reproduces_identical_values(self):
        first = analysis.sweep([(2, 1)], ["F", "average_share"], 0.3, 0.7, 9, 1e-10)
        second = analysis.sweep([(2, 1)], ["F", "average_share"], 0.3, 0.7, 9, 1e-10)
        assert first == second

    def test_failed_cells_marked_not_fatal(self):
        # F(1,1) overflows at 5e-324; average_share lies in [0, 1] and
        # evaluates at every legal p
        rows = analysis.sweep([(1, 1)], ["average_share", "F"], 5e-324, 0.5, 2, 1e-10)
        assert math.isnan(rows[0].quantities["F(1,1)"])
        assert rows[0].quantities["average_share(1,1)"] == 1.0
        assert rows[1].quantities["average_share(1,1)"] == 0.5
        assert rows[1].quantities["F(1,1)"] == 3.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rules=[], quantities=["F"], p_start=0.1, p_end=0.9, steps=3),
            dict(rules=[(1, 1)], quantities=[], p_start=0.1, p_end=0.9, steps=3),
            dict(rules=[(1, 1)], quantities=["X"], p_start=0.1, p_end=0.9, steps=3),
            dict(rules=[(1, 1)], quantities=["F"], p_start=0.9, p_end=0.1, steps=3),
            dict(rules=[(1, 1)], quantities=["F"], p_start=0.1, p_end=0.9, steps=1),
            dict(rules=[(1, 1)], quantities=["F"], p_start=0.0, p_end=0.9, steps=3),
        ],
    )
    def test_invalid_arguments_rejected(self, kwargs):
        with pytest.raises(DomainError):
            analysis.sweep(tol=1e-10, **kwargs)

    @pytest.mark.parametrize("bad", ["0.1", None, True, Fraction(1, 10)])
    @pytest.mark.parametrize("end", ["p_start", "p_end"])
    def test_grid_end_that_is_not_a_real_number_is_a_domain_error(self, end, bad):
        # checked before the ends are compared, which would raise a bare TypeError
        ends = {"p_start": 0.1, "p_end": 0.9, end: bad}
        with pytest.raises(DomainError, match="real numbers"):
            analysis.sweep([(1, 1)], ["F"], steps=3, tol=1e-10, **ends)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(any),
                st.sampled_from([(300, 0), (10**20, 1)]),
            ),
            min_size=1,
            max_size=3,
        ),
        st.one_of(st.just(5e-324), st.floats(1e-300, 0.5)),
        st.one_of(st.just(1.0 - 2.0**-53), st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)),
        st.integers(2, 4),
    )
    def test_cells_equal_the_public_functions_bit_for_bit(self, rules, p_start, p_end, steps):
        # the sweep shares exact work between cells, but must not become a
        # second implementation: NaN exactly where the public function raises
        rows = analysis.sweep(rules, list(analysis.SWEEP_QUANTITIES), p_start, p_end, steps, 1e-10)
        for row in rows:
            for kind in analysis.SWEEP_QUANTITIES:
                for n, k in rules:
                    got = row.quantities[f"{kind}({n},{k})"]
                    assert got.hex() == _public_value(kind, (n, k), row.p).hex(), (kind, (n, k), row.p)

    def test_builds_one_wald_fraction_per_rule_and_p(self, monkeypatch):
        # F, G, B and ratio of one rule at one p share one exact numerator
        calls = []
        wald_fraction = series._wald_fraction

        def recording(rule, dyadic):
            calls.append((rule, dyadic))
            return wald_fraction(rule, dyadic)

        monkeypatch.setattr(series, "_wald_fraction", recording)
        monkeypatch.setattr(analysis, "_wald_fraction", recording)
        analysis.sweep([(1, 1), (3, 2)], ["F", "G", "B", "ratio"], 0.1, 0.9, 5, 1e-10)
        assert len(calls) == 10
        assert len(set(calls)) == 10

    def test_zero_rule_is_refused_while_parsing_the_rules(self):
        # before the quantities are checked, so the unknown "X" is never reported
        with pytest.raises(DomainError, match=r"the \(0,0\) rule"):
            analysis.sweep([(1, 1), (0, 0)], ["X"], 0.1, 0.9, 3, 1e-10)


class TestCsv:
    def test_format_and_round_trip(self):
        rows = analysis.sweep([(1, 1)], ["F", "G"], 0.25, 0.75, 3, 1e-10)
        text = analysis.sweep_to_csv(rows)
        lines = text.split("\n")
        # names carry commas, so the header quotes them per RFC 4180
        assert lines[0] == 'p,"F(1,1)","G(1,1)"'
        assert lines[-1] == ""
        assert len(lines) == 5
        assert not any(line != line.rstrip() for line in lines)
        assert "\r" not in text
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 3
        for row, record in zip(rows, parsed):
            assert float(record["p"]) == row.p
            assert float(record["F(1,1)"]) == row.quantities["F(1,1)"]
            assert float(record["G(1,1)"]) == row.quantities["G(1,1)"]

    def test_empty_sweep_rejected(self):
        with pytest.raises(DomainError):
            analysis.sweep_to_csv([])

    def test_every_quantity_near_the_grid_edge_is_pinned_to_the_byte(self):
        # at p = 5e-324, F, G and ratio of both rules overflow float64
        rows = analysis.sweep([(1, 1), (300, 0)], list(analysis.SWEEP_QUANTITIES), 5e-324, 0.5, 3, 1e-10)
        assert analysis.sweep_to_csv(rows) == (
            'p,"F(1,1)","F(300,0)","G(1,1)","G(300,0)","B(1,1)","B(300,0)","ratio(1,1)","ratio(300,0)",'
            '"societal_share(1,1)","societal_share(300,0)","average_share(1,1)","average_share(300,0)"\n'
            "4.9406564584124654e-324,nan,nan,nan,nan,1,300,nan,nan,1,1,1,1\n"
            "0.25,4.333333333333333,1200,3.25,900,1.0833333333333333,300,0.33333333333333331,"
            "0.33333333333333331,0.75,0.75,0.65094809698204592,0.74937395921588756\n"
            "0.5,3,600,1.5,300,1.5,300,1,1,0.5,0.5,0.5,0.49916667129619341\n"
        )

import os
import resource
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from familyplan import series, symbolic
from familyplan.errors import DomainError, NumericError
from familyplan.symbolic import Polynomial, RationalFunction, _power_product

# p and 1 - p
P_VAR = Polynomial([0, 1])
ONE_MINUS_P = Polynomial([1, -1])

small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=7).map(Polynomial)
# (a, b) of the denominator p^a (1-p)^b
exponent_pairs = st.tuples(st.integers(0, 3), st.integers(0, 3))


def taylor_coefficients(f: RationalFunction, count: int) -> list[Fraction]:
    """Power-series expansion around 0 by the division recurrence.

    Independent of the derivative oracle below: only needs the raw
    coefficient sequences of numerator and denominator.
    """
    den = f.denominator.coefficients
    num = f.numerator.coefficients
    assert den and den[0] != 0, "expansion needs a nonzero constant term"
    out: list[Fraction] = []
    for i in range(count):
        acc = num[i] if i < len(num) else Fraction(0)
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * out[i - j]
        out.append(acc / den[0])
    return out


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        assert Polynomial([1, 2, 0, 0]).coefficients == (Fraction(1), Fraction(2))
        assert Polynomial([0, 0]).is_zero()
        assert Polynomial([]).coefficients == ()

    @settings(max_examples=100, deadline=None)
    @given(a=small_polys, b=small_polys, c=small_polys)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + a * -1 == Polynomial()

    def test_evaluate(self):
        poly = Polynomial([1, -1, 1])
        assert poly.evaluate(Fraction(1, 2)) == Fraction(3, 4)

    @settings(max_examples=200, deadline=None)
    @given(
        poly=st.lists(st.integers(-(10**30), 10**30), max_size=12).map(Polynomial),
        x=st.one_of(
            st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
            st.fractions(max_denominator=10**12),
        ),
    )
    def test_evaluate_equals_horner_in_fractions(self, poly, x):
        expected = Fraction(0)
        for c in reversed(poly.coefficients):
            expected = expected * x + c
        assert poly.evaluate(x) == expected

    @pytest.mark.parametrize("bad", [Fraction(1, 3), Fraction(4, 2), 0.1, 1.0, True])
    def test_fraction_float_and_bool_coefficients_rejected(self, bad):
        with pytest.raises(DomainError):
            Polynomial([1, bad])


class TestRationalFunction:
    @pytest.mark.parametrize("exponents", [P_VAR, 2, (1,), (-1, 0), (0, True), [0, 1]])
    def test_exponents_must_be_a_pair_of_non_negative_ints(self, exponents):
        with pytest.raises(DomainError):
            RationalFunction(P_VAR, exponents)

    @settings(max_examples=60, deadline=None)
    @given(num=small_polys, exponents=exponent_pairs)
    def test_repr_evaluates_back_to_an_equal_value(self, num, exponents):
        f = RationalFunction(num, exponents)
        names = {"RationalFunction": RationalFunction, "Polynomial": Polynomial}
        assert eval(repr(f), names) == f

    def test_canonical_form_cancels_p_and_one_minus_p(self):
        # (p^2 - p) / (1 - p) reduces to -p
        f = RationalFunction(Polynomial([0, -1, 1]), (0, 1))
        assert f == RationalFunction(Polynomial([0, -1]))
        assert f.exponents == (0, 0)
        # 3 p^2 (1-p) / (p^3 (1-p)^2) reduces to 3 / (p (1-p))
        g = RationalFunction(_power_product(2, 1) * 3, (3, 2))
        assert g.numerator == Polynomial([3])
        assert g.exponents == (1, 1)
        assert g.denominator == P_VAR * ONE_MINUS_P

    @settings(max_examples=60, deadline=None)
    @given(num=small_polys, exponents=exponent_pairs)
    def test_canonicalization_is_idempotent(self, num, exponents):
        once = RationalFunction(num, exponents)
        twice = RationalFunction(once.numerator, once.exponents)
        assert once == twice
        x = Fraction(1, 3)
        assert symbolic.evaluate_exact(once, x) == num.evaluate(x) / _power_product(*exponents).evaluate(x)
        a, b = once.exponents
        assert a == 0 or once.numerator.evaluate(Fraction(0)) != 0
        assert b == 0 or once.numerator.evaluate(Fraction(1)) != 0

    @settings(max_examples=60, deadline=None)
    @given(num=small_polys, exponents=exponent_pairs)
    def test_mirror_is_an_involution(self, num, exponents):
        f = RationalFunction(num, exponents)
        assert symbolic.mirror(symbolic.mirror(f)) == f

    @settings(max_examples=60, deadline=None)
    @given(
        num=small_polys,
        exponents=exponent_pairs,
        x=st.fractions(Fraction(1, 100), Fraction(99, 100), max_denominator=100),
    )
    def test_mirror_substitutes_one_minus_p(self, num, exponents, x):
        f = RationalFunction(num, exponents)
        assert symbolic.evaluate_exact(symbolic.mirror(f), x) == symbolic.evaluate_exact(f, 1 - x)

    def test_mirror_of_a_non_function_is_a_domain_error(self):
        with pytest.raises(DomainError):
            symbolic.mirror("x")

    def test_mirror_anchors(self):
        odds = RationalFunction(P_VAR, (0, 1))
        assert symbolic.mirror(odds) == RationalFunction(ONE_MINUS_P, (1, 0))
        assert symbolic.mirror(RationalFunction(2)) == RationalFunction(2)

    def test_display_uses_integer_coefficients(self):
        assert str(RationalFunction(P_VAR, (0, 1))) == "(p)/(1 - p)"
        assert str(RationalFunction(Polynomial([1, -1, 1]), (0, 1))) == (
            "(1 - p + p^2)/(1 - p)"
        )
        assert str(RationalFunction(2)) == "(2)/(1)"

    @pytest.mark.parametrize("other", [True, 1.5, Fraction(1, 2)])
    def test_equality_with_a_non_polynomial_scalar_is_false(self, other):
        assert (RationalFunction(P_VAR) == other) is False
        assert (Polynomial([0, 1]) == other) is False


def differentiate(f: RationalFunction, order: int) -> RationalFunction:
    """The order-th derivative of N / (p^a (1-p)^b), one quotient-rule step at a time:
    (N' p(1-p) - a N (1-p) + b N p) / (p^(a+1) (1-p)^(b+1))."""
    for _ in range(order):
        num, (a, b) = f.numerator, f.exponents
        slope = Polynomial([i * c for i, c in enumerate(num.coefficients)][1:])
        f = RationalFunction(
            slope * _power_product(1, 1) + num * ONE_MINUS_P * -a + num * P_VAR * b,
            (a + 1, b + 1),
        )
    return f


class TestDifferentiate:
    def test_quotient_rule_anchor(self):
        odds = RationalFunction(P_VAR, (0, 1))
        expected = RationalFunction(Polynomial([1]), (0, 2))
        assert differentiate(odds, 1) == expected

    def test_second_derivative_against_series_expansion(self):
        # d^2/dp^2 of p^3/(1-p) must expand to sum of l(l-1) p^(l-2), l >= 3
        f = RationalFunction(_power_product(3, 0), (0, 1))
        second = differentiate(f, 2)
        coefficients = taylor_coefficients(second, 31)
        for m, coefficient in enumerate(coefficients):
            l = m + 2
            expected = l * (l - 1) if l >= 3 else 0
            assert coefficient == expected, m


class TestExpectedBoysExact:
    def test_single_girl_rule_is_the_birth_odds(self):
        assert symbolic.expected_boys_exact(0, 1) == RationalFunction(P_VAR, (0, 1))

    def test_one_each_rule(self):
        expected = RationalFunction(Polynomial([1, -1, 1]), (0, 1))
        assert symbolic.expected_boys_exact(1, 1) == expected

    def test_two_boys_rule_is_constant(self):
        assert symbolic.expected_boys_exact(2, 0) == RationalFunction(2)

    def test_rejects_zero_rule_and_takes_rules_past_20(self):
        with pytest.raises(DomainError):
            symbolic.expected_boys_exact(0, 0)
        # B(n,0) = n: the family stops at its n-th boy
        assert symbolic.expected_boys_exact(21, 0) == RationalFunction(21)


def chain_scale(n: int, k: int) -> int:
    """(n-1)! (k-1)!, a factor taken as 1 when its count is 0: it clears the
    denominators of the derivative formula's two factorials."""
    return factorial(max(n - 1, 0)) * factorial(max(k - 1, 0))


def derivative_chain_boys(n: int, k: int) -> RationalFunction:
    """chain_scale(n, k) B(n,k) by the paper's derivative formula, one
    derivative at a time, in integers."""
    total = n + k - 1
    result = RationalFunction(Polynomial())
    if n >= 1:
        base = RationalFunction(_power_product(0, total), (1, 0))
        scale = n * (-1) ** (n - 1) * chain_scale(n, k) // factorial(n - 1)
        result = result + differentiate(base, n - 1) * _power_product(n, 0) * scale
    if k >= 1:
        base = RationalFunction(_power_product(total, 0), (0, 1))
        scale = chain_scale(n, k) // factorial(k - 1)
        result = result + differentiate(base, k) * _power_product(1, k) * scale
    return result


def test_leibniz_boys_equal_derivative_chain():
    for n in range(21):
        for k in range(21):
            if n + k < 1:
                continue
            chain = derivative_chain_boys(n, k)
            assert chain == symbolic.expected_boys_exact(n, k) * chain_scale(n, k), (n, k)


def leibniz_double_loop(n: int, k: int) -> Polynomial:
    """M(n,k) = (1-p) B(n,k) by the Leibniz expansion term by term: each
    C(N,j) p^a (1-p)^b expanded by the binomial theorem, O((n+k)^2) terms."""
    total = n + k - 1
    terms = [(n * comb(total, j), j, total + 1 - j) for j in range(n)]
    terms += [(k * comb(total, j), total + 1 - j, j) for j in range(min(k, total) + 1)]
    coeffs = [0] * (total + 2)
    for scale, a, b in terms:
        for i in range(b + 1):
            coeffs[a + i] += (-1) ** i * scale * comb(b, i)
    return Polynomial(coeffs)


def test_cdf_numerator_equals_the_leibniz_double_loop():
    build = symbolic._leibniz_numerator.__wrapped__
    for n in range(41):
        for k in range(41):
            if n + k >= 1:
                assert build(n, k) == leibniz_double_loop(n, k), (n, k)


@pytest.mark.parametrize("rule", [(21, 0), (0, 21), (60, 45), (200, 3), (3, 200), (150, 150)])
@pytest.mark.parametrize("p", [0.3, 0.5, 977 / 1024, 1e-3])
def test_uncapped_exact_boys_round_to_the_wald_value(rule, p):
    # both values are correctly rounded, so they agree bit for bit
    boys = symbolic.expected_boys_exact(*rule)
    assert float(symbolic.evaluate_exact(boys, Fraction(p))) == series.expected_boys(rule, p, 1e-10).value


def test_a_rule_too_large_for_exact_integers_is_a_numeric_error():
    # a numerator of 10^20 coefficients cannot even be indexed
    with pytest.raises(NumericError, match=r"rule \(100000000000000000000,1\) is too large"):
        symbolic.expected_boys_exact(10**20, 1)
    with pytest.raises(NumericError, match="too large for exact integers"):
        symbolic.verify_ratio_identity(10**20, 1)


def test_a_rule_too_large_for_memory_is_a_numeric_error():
    # a numerator of 10^12 coefficients needs 8 TB, which a 1.5 GB address
    # space turns into a MemoryError; run in a child so that the limit stays there
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    code = (
        "from familyplan import symbolic\n"
        "try:\n"
        "    symbolic.expected_boys_exact(10**12, 0)\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
    )
    src = os.path.dirname(os.path.dirname(symbolic.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])),
        preexec_fn=limit_memory,
        timeout=120,
    )
    assert proc.stdout == "NumericError rule (1000000000000,0) is too large for exact integers\n", proc.stderr


class TestRatioIdentity:
    @pytest.mark.parametrize("rule", [(1, 1), (2, 0), (0, 1), (3, 2), (21, 0), (0, 21), (60, 45), (300, 300)])
    def test_anchor_rules_hold(self, rule):
        cert = symbolic.verify_ratio_identity(*rule)
        assert cert.holds
        assert cert.lhs == cert.rhs

    def test_whole_cap_grid_holds(self):
        for n in range(21):
            for k in range(21):
                if n + k < 1:
                    continue
                assert symbolic.verify_ratio_identity(n, k).holds is True, (n, k)

    def test_sides_equal_the_multiplied_boys_functions(self):
        # the certificate compares M(n,k)(p) with M(k,n)(1-p); multiplying B
        # by 1-p and the mirrored B by p must give the same two sides
        for n in range(21):
            for k in range(21):
                if n + k < 1:
                    continue
                cert = symbolic.verify_ratio_identity(n, k)
                assert cert.lhs == symbolic.expected_boys_exact(n, k) * ONE_MINUS_P, (n, k)
                assert cert.rhs == symbolic.mirror(symbolic.expected_boys_exact(k, n)) * P_VAR, (n, k)

    @pytest.mark.parametrize("rule", [(0, 0), (True, 1), (-1, 2)])
    def test_rejects_a_rule_before_building_it(self, rule, monkeypatch):
        built = []
        monkeypatch.setattr(symbolic, "_leibniz_numerator", lambda n, k: built.append((n, k)))
        with pytest.raises(DomainError):
            symbolic.verify_ratio_identity(*rule)
        assert built == []

    def test_large_rule_numerators_are_not_kept(self):
        # one (300,300) numerator has 601 coefficients of up to 600 bits
        symbolic.verify_ratio_identity(300, 300)
        before = symbolic._leibniz_numerator.cache_info()
        symbolic.verify_ratio_identity(300, 300)
        symbolic.expected_boys_exact(300, 300)
        assert symbolic._leibniz_numerator.cache_info() == before

    def test_repeated_small_grid_builds_no_new_numerator(self):
        grid = [(n, k) for n in range(3) for k in range(3) if n + k]
        for rule in grid:
            symbolic.verify_ratio_identity(*rule)
        before = symbolic._leibniz_numerator.cache_info()
        for rule in grid:
            symbolic.verify_ratio_identity(*rule)
        after = symbolic._leibniz_numerator.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 2 * len(grid)


class TestEvaluateExact:
    def test_one_each_rule_at_even_odds(self):
        boys = symbolic.expected_boys_exact(1, 1)
        assert symbolic.evaluate_exact(boys, Fraction(1, 2)) == Fraction(3, 2)

    def test_birth_odds_at_even_odds(self):
        odds = RationalFunction(P_VAR, (0, 1))
        assert symbolic.evaluate_exact(odds, Fraction(1, 2)) == 1

    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1), Fraction(3, 2), 0.5])
    def test_poles_and_points_outside_the_domain_are_domain_errors(self, p):
        f = RationalFunction(Polynomial([1]), (1, 1))
        with pytest.raises(DomainError):
            symbolic.evaluate_exact(f, p)

    def test_polynomial_is_evaluated_as_a_function(self):
        assert symbolic.evaluate_exact(Polynomial([1, 1]), Fraction(1, 2)) == Fraction(3, 2)

    def test_non_function_is_a_domain_error(self):
        with pytest.raises(DomainError):
            symbolic.evaluate_exact(None, Fraction(1, 2))

    def test_exact_value_matches_series_for_a_larger_rule(self):
        boys_exact = symbolic.expected_boys_exact(3, 2)
        value = float(symbolic.evaluate_exact(boys_exact, Fraction(1, 3)))
        numeric = series.expected_boys((3, 2), 1.0 / 3.0, 1e-12)
        assert value == pytest.approx(numeric.value, abs=1e-9)


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("k", range(7))
def test_exact_and_series_boys_agree_on_grid(n, k):
    if n + k < 1:
        return
    exact = symbolic.expected_boys_exact(n, k)
    for tenth in range(1, 10):
        value = float(symbolic.evaluate_exact(exact, Fraction(tenth, 10)))
        numeric = series.expected_boys((n, k), tenth / 10.0, 1e-12)
        assert abs(value - numeric.value) <= 1e-9, (n, k, tenth)


def expected_min_stopping_time(n: int, k: int, p: Fraction) -> Fraction:
    """E[min(T_B(n), T_G(k))] = sum over t of P(fewer than n boys and k girls after t births)."""
    q = 1 - p
    return sum(
        (
            comb(t, b) * p**b * q ** (t - b)
            for t in range(n + k - 1)
            for b in range(max(0, t - k + 1), min(n, t + 1))
        ),
        Fraction(0),
    )


@pytest.mark.parametrize("p", [Fraction(1, 7), Fraction(1, 2), Fraction(5, 6), Fraction(977, 1024)])
def test_exact_boys_equal_wald_construction(p):
    # T = max(T_B(n), T_G(k)) = T_B(n) + T_G(k) - min(...) and Wald's identity
    # E[B] = p E[T]: a finite sum that shares nothing with the derivative algebra.
    for n in range(21):
        for k in range(21):
            if n + k < 1:
                continue
            wald = p * (n / p + k / (1 - p) - expected_min_stopping_time(n, k, p))
            exact = symbolic.evaluate_exact(symbolic.expected_boys_exact(n, k), p)
            assert exact == wald, (n, k)

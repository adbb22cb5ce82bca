from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from familyplan import series, symbolic
from familyplan.errors import DomainError, PoleError
from familyplan.symbolic import ONE_MINUS_P, P_VAR, Polynomial, RationalFunction, _power_product

small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=7).map(Polynomial)
# c p^a (1-p)^b, c != 0: the only denominators RationalFunction accepts
denominators = st.builds(
    lambda c, a, b: Polynomial([c]) * _power_product(a, b),
    st.integers(-9, 9).filter(bool),
    st.integers(0, 3),
    st.integers(0, 3),
)


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
        assert Polynomial([]).degree == -1

    @settings(max_examples=100, deadline=None)
    @given(a=small_polys, b=small_polys, c=small_polys)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == Polynomial()

    def test_evaluate(self):
        poly = Polynomial([1, -1, 1])
        assert poly.evaluate(Fraction(1, 2)) == Fraction(3, 4)

    def test_integral_coefficients_are_stored_as_int(self):
        coefficients = Polynomial([Fraction(4, 2), Fraction(1, 3)]).coefficients
        assert type(coefficients[0]) is int
        assert coefficients == (2, Fraction(1, 3))

    @pytest.mark.parametrize("bad", [0.1, 1.0, True])
    def test_float_and_bool_coefficients_rejected(self, bad):
        with pytest.raises(DomainError):
            Polynomial([1, bad])


class TestRationalFunction:
    def test_denominator_must_be_nonzero(self):
        with pytest.raises(DomainError):
            RationalFunction(P_VAR, Polynomial())

    def test_denominator_must_be_a_power_product(self):
        with pytest.raises(DomainError):
            RationalFunction(P_VAR, Polynomial([1, 0, 5]))
        with pytest.raises(DomainError):
            RationalFunction(1, Polynomial([Fraction(-1, 2), 1]))

    def test_canonical_form_cancels_p_and_one_minus_p(self):
        # (p^2 - p) / (2p - 2) reduces to p/2
        f = RationalFunction(Polynomial([0, -1, 1]), Polynomial([-2, 2]))
        assert f == RationalFunction(Polynomial([0, Fraction(1, 2)]))
        assert f.exponents == (0, 0)
        # p^2 (1-p) / (3 p^3 (1-p)^2) reduces to (1/3) / (p (1-p))
        g = RationalFunction(_power_product(2, 1), 3 * _power_product(3, 2))
        assert g.numerator == Polynomial([Fraction(1, 3)])
        assert g.exponents == (1, 1)
        assert g.denominator == P_VAR * ONE_MINUS_P

    @settings(max_examples=60, deadline=None)
    @given(num=small_polys, den=denominators)
    def test_canonicalization_is_idempotent(self, num, den):
        once = RationalFunction(num, den)
        twice = RationalFunction(once.numerator, once.denominator)
        assert once == twice
        x = Fraction(1, 3)
        assert once.evaluate(x) == num.evaluate(x) / den.evaluate(x)
        a, b = once.exponents
        assert a == 0 or once.numerator.evaluate(Fraction(0)) != 0
        assert b == 0 or once.numerator.evaluate(Fraction(1)) != 0

    @settings(max_examples=60, deadline=None)
    @given(num=small_polys, den=denominators)
    def test_mirror_is_an_involution(self, num, den):
        f = RationalFunction(num, den)
        assert symbolic.mirror(symbolic.mirror(f)) == f

    @settings(max_examples=60, deadline=None)
    @given(
        num=st.lists(st.fractions(-9, 9, max_denominator=9), max_size=7).map(Polynomial),
        den=denominators,
        x=st.fractions(Fraction(1, 100), Fraction(99, 100), max_denominator=100),
    )
    def test_mirror_substitutes_one_minus_p(self, num, den, x):
        f = RationalFunction(num, den)
        assert symbolic.mirror(f).evaluate(x) == f.evaluate(1 - x)

    def test_mirror_anchors(self):
        odds = RationalFunction(P_VAR, ONE_MINUS_P)
        assert symbolic.mirror(odds) == RationalFunction(ONE_MINUS_P, P_VAR)
        assert symbolic.mirror(RationalFunction(2)) == RationalFunction(2)

    def test_display_uses_integer_coefficients(self):
        assert str(RationalFunction(P_VAR, ONE_MINUS_P)) == "(p)/(1 - p)"
        assert str(RationalFunction(Polynomial([1, -1, 1]), ONE_MINUS_P)) == (
            "(1 - p + p^2)/(1 - p)"
        )
        assert str(RationalFunction(2)) == "(2)/(1)"
        half = RationalFunction(Polynomial([Fraction(1, 2)]), P_VAR)
        assert str(half) == "(1)/(2p)"

    @pytest.mark.parametrize("other", [True, 1.5])
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
            slope * _power_product(1, 1) - num * ONE_MINUS_P * a + num * P_VAR * b,
            _power_product(a + 1, b + 1),
        )
    return f


class TestDifferentiate:
    def test_quotient_rule_anchor(self):
        odds = RationalFunction(P_VAR, ONE_MINUS_P)
        expected = RationalFunction(Polynomial([1]), _power_product(0, 2))
        assert differentiate(odds, 1) == expected

    def test_second_derivative_against_series_expansion(self):
        # d^2/dp^2 of p^3/(1-p) must expand to sum of l(l-1) p^(l-2), l >= 3
        f = RationalFunction(_power_product(3, 0), ONE_MINUS_P)
        second = differentiate(f, 2)
        coefficients = taylor_coefficients(second, 31)
        for m, coefficient in enumerate(coefficients):
            l = m + 2
            expected = l * (l - 1) if l >= 3 else 0
            assert coefficient == expected, m


class TestExpectedBoysExact:
    def test_single_girl_rule_is_the_birth_odds(self):
        assert symbolic.expected_boys_exact(0, 1) == RationalFunction(P_VAR, ONE_MINUS_P)

    def test_one_each_rule(self):
        expected = RationalFunction(Polynomial([1, -1, 1]), ONE_MINUS_P)
        assert symbolic.expected_boys_exact(1, 1) == expected

    def test_two_boys_rule_is_constant(self):
        assert symbolic.expected_boys_exact(2, 0) == RationalFunction(2)

    def test_rejects_zero_rule_and_cap(self):
        with pytest.raises(DomainError):
            symbolic.expected_boys_exact(0, 0)
        with pytest.raises(DomainError):
            symbolic.expected_boys_exact(symbolic.EXACT_RULE_CAP + 1, 0)


def derivative_chain_boys(n: int, k: int) -> RationalFunction:
    """B(n,k) by the paper's derivative formula, one derivative at a time."""
    total = n + k - 1
    result = RationalFunction(Polynomial())
    if n >= 1:
        base = RationalFunction(_power_product(0, total), P_VAR)
        scale = Fraction(n * (-1) ** (n - 1), factorial(n - 1))
        result = result + differentiate(base, n - 1) * _power_product(n, 0) * scale
    if k >= 1:
        base = RationalFunction(_power_product(total, 0), ONE_MINUS_P)
        scale = Fraction(1, factorial(k - 1))
        result = result + differentiate(base, k) * _power_product(1, k) * scale
    return result


def test_leibniz_boys_equal_derivative_chain():
    cap = symbolic.EXACT_RULE_CAP
    for n in range(cap + 1):
        for k in range(cap + 1):
            if n + k < 1:
                continue
            boys = symbolic.expected_boys_exact(n, k)
            chain = derivative_chain_boys(n, k)
            assert boys.numerator.coefficients == chain.numerator.coefficients, (n, k)
            assert boys.exponents == chain.exponents, (n, k)
            assert all(type(c) is int for c in boys.numerator.coefficients), (n, k)


class TestRatioIdentity:
    @pytest.mark.parametrize("rule", [(1, 1), (2, 0), (0, 1), (3, 2)])
    def test_anchor_rules_hold(self, rule):
        cert = symbolic.verify_ratio_identity(*rule)
        assert cert.holds
        assert cert.lhs == cert.rhs

    def test_whole_cap_grid_holds(self):
        cap = symbolic.EXACT_RULE_CAP
        for n in range(cap + 1):
            for k in range(cap + 1):
                if n + k < 1:
                    continue
                assert symbolic.verify_ratio_identity(n, k).holds is True, (n, k)

    def test_rejects_zero_rule(self):
        with pytest.raises(DomainError):
            symbolic.verify_ratio_identity(0, 0)


class TestEvaluateExact:
    def test_one_each_rule_at_even_odds(self):
        boys = symbolic.expected_boys_exact(1, 1)
        assert symbolic.evaluate_exact(boys, Fraction(1, 2)) == Fraction(3, 2)

    def test_birth_odds_at_even_odds(self):
        odds = RationalFunction(P_VAR, ONE_MINUS_P)
        assert symbolic.evaluate_exact(odds, Fraction(1, 2)) == 1

    def test_pole_reported_distinctly_from_domain(self):
        f = RationalFunction(Polynomial([1]), P_VAR * ONE_MINUS_P)
        with pytest.raises(PoleError):
            f.evaluate(Fraction(0))
        with pytest.raises(PoleError):
            f.evaluate(Fraction(1))
        with pytest.raises(DomainError):
            symbolic.evaluate_exact(f, Fraction(0))
        with pytest.raises(DomainError):
            symbolic.evaluate_exact(f, Fraction(3, 2))
        with pytest.raises(DomainError):
            symbolic.evaluate_exact(f, 0.5)

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
    cap = symbolic.EXACT_RULE_CAP
    for n in range(cap + 1):
        for k in range(cap + 1):
            if n + k < 1:
                continue
            wald = p * (n / p + k / (1 - p) - expected_min_stopping_time(n, k, p))
            exact = symbolic.evaluate_exact(symbolic.expected_boys_exact(n, k), p)
            assert exact == wald, (n, k)

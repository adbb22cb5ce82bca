"""Expected boys, girls and family size by Wald's finite sum.

The rule (n, k) stops at T = max(T_B(n), T_G(k)), the later of the n-th boy
and the k-th girl.  By optional stopping (Wald 1944) E[B] = p*E[T],
E[G] = q*E[T] and E[T] = n/p + k/q - E[min(T_B(n), T_G(k))], where

    E[min] = n p^n sum_{g<k} C(n+g, g) q^g + k q^k sum_{b<n} C(k+b, b) p^b.

The float p is exactly a/2^e, so that sum is evaluated in integers and
divided once: each value is the correctly rounded expectation at p, with
tail_bound 0.  The cost grows like (n + k)^2.  The average girl share
E[girls/T] lives in share.py, in closed form.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, NamedTuple

from .core import (
    _SMALL_RULE_SIZE, BirthProbability, Rule, TruncatedMoments, _check_int, _dyadic, _exact_moments,
    _pmf_addends, as_probability, as_rule,
)
from .errors import DomainError, NumericError


class SeriesResult(NamedTuple):
    """A value, tail_bound and terms_used n + k, the terms of its finite sum.

    The sum is finite, so tail_bound, which bounds the truncation only, is 0.
    It does not bound the rounding: the value is the correctly rounded
    expectation at the float p, within half an ulp of the exact one."""

    value: float
    tail_bound: float
    terms_used: int


def _check_tolerance(tol: float) -> float:
    if isinstance(tol, bool) or not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be a positive real, got {tol!r}")
    return float(tol)


def _binomials(m: int, count: int) -> Iterator[int]:
    """C(m+j, j) for j = count-1 down to 0, each from the one before; count >= 1."""
    coefficient = comb(m + count - 1, count - 1)
    for j in range(count - 1, 0, -1):
        yield coefficient
        coefficient = coefficient * j // (m + j)
    yield 1  # C(m, 0) = 1, even at m = 0


@lru_cache(maxsize=_SMALL_RULE_SIZE**2)
def _binomial_table(m: int, count: int) -> tuple[int, ...]:
    """_binomials(m, count), kept: called only for m + count <= _SMALL_RULE_SIZE,
    so that it holds at most 2016 tuples of at most 63 coefficients."""
    return tuple(_binomials(m, count))


def _horner(coefficients: Iterable[int], x: int, e: int) -> int:
    """sum_j C_j x^j 2^(e*(count-1-j)) by Horner in x, from C_(count-1) down to C_0."""
    total, shift = 0, 0
    for coefficient in coefficients:
        total = total * x + (coefficient << shift)
        shift += e
    return total


def _wald_fraction(rule: Rule, dyadic: tuple[int, int, int]) -> tuple[int, dict[str, int]]:
    """Exact numerator of E[T] times p ("boys"), q ("girls") or 1 ("family_size"),
    and the denominator > 0 of each, at p = a/2^e and q = c/2^e given as the
    dyadic (a, e, c), which need not be a float: the three share the numerator.
    E[min]'s coefficients C(n+g, g), g < k, and C(k+b, b), b < n, come from
    _binomial_table for a rule of at most _SMALL_RULE_SIZE children; a larger
    rule's are made as _horner asks for them."""
    n, k = rule.boys_required, rule.girls_required
    a, e, c = dyadic
    try:
        # mins is E[min] * 2^(e*(n+k-1)), and E[T] = numerator / (a * c * 2^(e*(n+k-1)));
        # the shift comes first, so a rule too large for it fails before the sums run
        numerator = (n * c + k * a) << e * (n + k)
        if n and k:
            made = _binomial_table if n + k <= _SMALL_RULE_SIZE else _binomials
            numerator -= a * c * (n * a**n * _horner(made(n, k), c, e) + k * c**k * _horner(made(k, n), a, e))
        shift = e * (n + k - 1)
        return numerator, {"boys": c << e + shift, "girls": a << e + shift, "family_size": a * c << shift}
    except (OverflowError, MemoryError):
        raise NumericError(f"rule ({n},{k}) is too large for exact integers") from None


def _wald_value(
    rule: Rule,
    prob: BirthProbability,
    fraction: tuple[int, dict[str, int]],
    quantity: str,
) -> float:
    """One quantity of rule at prob from its _wald_fraction: "boys", "girls" or
    "family_size" rounded once, or "ratio", the rounded boys over the rounded
    girls; NumericError where a rounded value is beyond float64."""
    if quantity == "ratio":
        return _wald_value(rule, prob, fraction, "boys") / _wald_value(rule, prob, fraction, "girls")
    numerator, denominators = fraction
    try:
        return numerator / denominators[quantity]
    except OverflowError:
        name = f"{quantity} of rule ({rule.boys_required},{rule.girls_required})"
        raise NumericError(f"{name} at p={prob.p!r} overflows float64") from None


def _wald_sum(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    tol: float,
    *quantities: str,
) -> list[SeriesResult]:
    """_wald_fraction, each quantity taken by _wald_value."""
    rule = as_rule(rule)
    prob = as_probability(p)
    _check_tolerance(tol)
    fraction = _wald_fraction(rule, _dyadic(prob))
    return [
        SeriesResult(value=_wald_value(rule, prob, fraction, q), tail_bound=0.0, terms_used=rule.total_required)
        for q in quantities
    ]


def expected_boys(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    tol: float,
) -> SeriesResult:
    """Expected number of boys at the stopping time, p*E[T]; tol is unused."""
    return _wald_sum(rule, p, tol, "boys")[0]


def expected_girls(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    tol: float,
) -> SeriesResult:
    """Expected number of girls at the stopping time, q*E[T]; tol is unused."""
    return _wald_sum(rule, p, tol, "girls")[0]


def expected_family_size(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    tol: float,
) -> SeriesResult:
    """Expected number of children E(T) at the stopping time; tol is unused."""
    return _wald_sum(rule, p, tol, "family_size")[0]


def gender_ratio(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    tol: float,
) -> float:
    """Ratio of expected boys to expected girls: the birth odds p/(1-p) for
    every rule, within two ulps, as B and G are each correctly rounded."""
    return _wald_sum(rule, p, tol, "ratio")[0].value


def closed_form(quantity: str, p: BirthProbability | float) -> float:
    """Closed-form family demographics for the (1,1) rule (H) and (2,0) rule (S).

    Quantities: family size F, expected girls G, expected boys B, each for
    the one-boy-one-girl rule (suffix _H) and the two-boys rule (suffix _S).
    """
    prob = as_probability(p)
    pp, q = prob.p, prob.q
    if quantity == "F_H":
        return (pp * pp - pp + 1.0) / (pp - pp * pp)
    if quantity == "F_S":
        return 2.0 / pp
    if quantity == "G_H":
        return (pp * pp - pp + 1.0) / pp
    if quantity == "G_S":
        return 2.0 * q / pp
    if quantity == "B_H":
        return (pp * pp - pp + 1.0) / q
    if quantity == "B_S":
        return 2.0
    raise DomainError(
        f"unknown quantity {quantity!r}; expected one of ('F_H', 'F_S', 'G_H', 'G_S', 'B_H', 'B_S')"
    )


def truncated_moments(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    max_children: int,
) -> TruncatedMoments:
    """The pmf-weighted partial sums of the moments over families with T <= max_children.

    Each pmf addend's exact numerator is shifted to 2^(e*max_children), with
    p = a/2^e, and core._exact_moments rounds each field once, so the result
    equals core.enumerate_brute_force over the same horizon bit for bit.
    """
    rule = as_rule(rule)
    prob = as_probability(p)
    _check_int("max_children", max_children, 1)

    n, k = rule.boys_required, rule.girls_required
    e = _dyadic(prob)[1]

    def entries():
        pmf = _pmf_addends(rule, prob, rule.total_required)
        for t, (boy_last, girl_last, _) in zip(range(rule.total_required, max_children + 1), pmf):
            yield n, t - n, boy_last << e * (max_children - t)
            yield t - k, k, girl_last << e * (max_children - t)

    return _exact_moments(entries(), max_children, prob)

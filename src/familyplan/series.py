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
from dataclasses import dataclass
from math import comb

from .core import (
    BirthProbability, Rule, TruncatedMoments, _check_int, _dyadic, _outcome_moments, _pmf_addends,
    _require_stoppable, as_probability, as_rule,
)
from .errors import DomainError, NumericError

CLOSED_FORM_QUANTITIES = ("F_H", "F_S", "G_H", "G_S", "B_H", "B_S")


@dataclass(frozen=True)
class SeriesResult:
    """A value and a bound on its distance from the exact expectation: 0, as
    every value is the correctly rounded expectation at the float p, with
    terms_used n + k, the terms of its finite sum."""

    value: float
    tail_bound: float
    terms_used: int

    def __post_init__(self) -> None:
        if self.terms_used < 1:
            raise DomainError("terms_used must be >= 1")
        if self.tail_bound < 0.0:
            raise DomainError("tail_bound must be >= 0")


def _check_tolerance(tol: float) -> float:
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be a positive real, got {tol!r}")
    return float(tol)


def _horner(m: int, count: int, x: int, e: int) -> int:
    """sum_{j<count} C(m+j, j) x^j 2^(e*(count-1-j)), by Horner in x."""
    total, coefficient = 0, comb(m + count - 1, count - 1)
    for j in range(count - 1, -1, -1):
        total = total * x + (coefficient << e * (count - 1 - j))
        coefficient = coefficient * j // (m + j)
    return total


def _wald_fraction(rule: Rule, prob: BirthProbability, quantity: str) -> tuple[int, int]:
    """Exact (numerator, denominator > 0) of E[T] times p ("boys"), q ("girls") or 1 ("family_size")."""
    n, k = rule.boys_required, rule.girls_required
    a, e, c = _dyadic(prob)
    # mins is E[min] * 2^(e*(n+k-1)), and E[T] = numerator / (a * c * 2^(e*(n+k-1)))
    mins = n * a**n * _horner(n, k, c, e) + k * c**k * _horner(k, n, a, e) if n and k else 0
    numerator = ((n * c + k * a) << e * (n + k)) - a * c * mins
    scale = {"boys": c << e, "girls": a << e, "family_size": a * c}[quantity]
    return numerator, scale << e * (n + k - 1)


def _wald_sum(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    tol: float,
    quantity: str,
) -> SeriesResult:
    """_wald_fraction, rounded once."""
    rule = _require_stoppable(as_rule(rule))
    prob = as_probability(p)
    _check_tolerance(tol)
    numerator, denominator = _wald_fraction(rule, prob, quantity)
    try:
        value = numerator / denominator
    except OverflowError:
        name = f"{quantity} of rule ({rule.boys_required},{rule.girls_required})"
        raise NumericError(f"{name} at p={prob.p!r} overflows float64") from None
    return SeriesResult(value=value, tail_bound=0.0, terms_used=rule.total_required)


def expected_boys(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    tol: float,
) -> SeriesResult:
    """Expected number of boys at the stopping time, p*E[T]; tol is unused."""
    return _wald_sum(rule, p, tol, "boys")


def expected_girls(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    tol: float,
) -> SeriesResult:
    """Expected number of girls at the stopping time, q*E[T]; tol is unused."""
    return _wald_sum(rule, p, tol, "girls")


def expected_family_size(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    tol: float,
) -> SeriesResult:
    """Expected number of children E(T) at the stopping time; tol is unused."""
    return _wald_sum(rule, p, tol, "family_size")


def gender_ratio(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    tol: float,
) -> float:
    """Ratio of expected boys to expected girls: the birth odds p/(1-p) for
    every rule, within two ulps, as B and G are each correctly rounded."""
    return expected_boys(rule, p, tol).value / expected_girls(rule, p, tol).value


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
        f"unknown quantity {quantity!r}; expected one of {CLOSED_FORM_QUANTITIES}"
    )


def truncated_moments(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    max_children: int,
) -> TruncatedMoments:
    """Partial sums of every series, restricted to families with T <= max_children.

    Directly comparable with core.enumerate_brute_force over the same horizon.
    """
    rule = _require_stoppable(as_rule(rule))
    prob = as_probability(p)
    _check_int("max_children", max_children, 1)

    n, k = rule.boys_required, rule.girls_required

    def addends():
        pmf = _pmf_addends(rule, prob, rule.total_required)
        for t in range(rule.total_required, max_children + 1):
            boy_last, girl_last = next(pmf)
            yield n, t - n, boy_last
            yield t - k, k, girl_last

    return _outcome_moments(addends(), prob)

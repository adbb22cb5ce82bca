"""Expected boys, girls and family size by Wald's finite sum; the girl-share series.

The rule (n, k) stops at T = max(T_B(n), T_G(k)), the later of the n-th boy
and the k-th girl.  By optional stopping (Wald 1944) E[B] = p*E[T],
E[G] = q*E[T] and E[T] = n/p + k/q - E[min(T_B(n), T_G(k))], where

    E[min] = n p^n sum_{g<k} C(n+g, g) q^g + k q^k sum_{b<n} C(k+b, b) p^b.

The float p is exactly a/2^e, so that sum is evaluated in integers and
divided once: each value is the correctly rounded expectation at p, with
tail_bound 0.  The cost grows like (n + k)^2.

average_share, E[girls/T], sums the pmf addends of families closed by the
n-th boy, weighted (T-n)/T, and by the k-th girl, weighted k/T, over
T >= n + k.  With m the closing count and x the other sex's probability,
once the weight is positive r = T*x/(T+1-m) * max(1, w(T+1)/w(T)) bounds
every later term ratio (both factors are nonincreasing in T), so when
r < 1 the dropped tail is at most term * r / (1 - r).  tail_bound adds a
running rounding bound (Higham, Accuracy and Stability, ch. 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb, fsum

from .core import (
    BirthProbability,
    Rule,
    TruncatedMoments,
    _check_int,
    _outcome_moments,
    _require_stoppable,
    as_probability,
    as_rule,
    pmf_support_min,
    stopping_pmf_components,
)
from .errors import DomainError, ExtremeProbabilityError, NumericError, TermCapError

# The girl-share series needs ~1/min(p, 1-p) terms; refuse p that would burn the cap.
SERIES_P_MIN = 1e-6
TERM_CAP = 100_000

CLOSED_FORM_QUANTITIES = ("F_H", "F_S", "G_H", "G_S", "B_H", "B_S")

_UNIT = 2.0**-53
# Roundings in one girl-share term w * (C * p**boys * q**girls): the weight
# quotient, C to float, three products and two pows, each within one ulp
# (two units); one more per girl when q = 1 - p is inexact.
_TERM_ROUNDINGS = 9


@dataclass(frozen=True)
class SeriesResult:
    """A value and a bound on its distance from the exact expectation: 0 for
    the finite sums, rounded once (terms_used n + k), and for average_share
    the dropped tail plus the rounding of the summed terms."""

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


def _wald_sum(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    tol: float,
    quantity: str,
) -> SeriesResult:
    """E[T] times p ("boys"), q ("girls") or 1 ("family_size"), rounded once."""
    rule = _require_stoppable(as_rule(rule))
    prob = as_probability(p)
    _check_tolerance(tol)
    n, k = rule.boys_required, rule.girls_required
    a, power = prob.p.as_integer_ratio()
    e, c = power.bit_length() - 1, power - a
    # mins is E[min] * 2^(e*(n+k-1)), and E[T] = numerator / (a * c * 2^(e*(n+k-1)))
    mins = n * a**n * _horner(n, k, c, e) + k * c**k * _horner(k, n, a, e) if n and k else 0
    numerator = ((n * c + k * a) << e * (n + k)) - a * c * mins
    scale = {"boys": c << e, "girls": a << e, "family_size": a * c}[quantity]
    try:
        value = numerator / (scale << e * (n + k - 1))
    except OverflowError:
        raise NumericError(f"{quantity} of rule ({n},{k}) at p={prob.p!r} overflows float64") from None
    return SeriesResult(value=value, tail_bound=0.0, terms_used=n + k)


def _weighted_series(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    tol: float,
) -> SeriesResult:
    """Sum the girl-share terms until the tail rule meets tol.

    Each branch gets an equal part of tol and is summed by one fsum.
    """
    rule = _require_stoppable(as_rule(rule))
    prob = as_probability(p)
    if not SERIES_P_MIN <= prob.p <= 1.0 - SERIES_P_MIN:
        message = f"p={prob.p!r} is outside [{SERIES_P_MIN}, {1.0 - SERIES_P_MIN}]; "
        raise ExtremeProbabilityError(message + "series evaluation would need an impractical number of terms")
    tol = _check_tolerance(tol)
    n, k = rule.boys_required, rule.girls_required
    pp, q = prob.p, prob.q
    q_inexact = fsum((1.0, -pp, -q)) != 0.0
    # (closing count m, other-sex probability x, boys and girls per extra child)
    branches = [b for b in ((n, q, 0, 1), (k, pp, 1, 0)) if b[0] >= 1]
    branch_tol = tol / len(branches)
    values, bounds, terms_used = [], [], 0
    for m, x, add_boys, add_girls in branches:
        size, boys, girls = n + k, n, k
        w = girls / size
        terms: list[float] = []
        girl_terms = 0.0  # running sum of term * girls
        last = size + TERM_CAP
        while True:
            try:
                t = w * (comb(size - 1, m - 1) * pp**boys * q**girls)
            except OverflowError:
                message = f"series term at T={size} overflows float64 for rule ({n},{k}) at p={pp!r}"
                raise NumericError(message) from None
            terms.append(t)
            girl_terms += t * girls
            following = size + 1
            w_next = (girls + add_girls) / following
            if w > 0:
                # the module's tail rule; the weight ratio counts only above 1
                r = size * x / (following - m)
                if w_next > w:
                    r *= w_next / w
                if r < 1.0:
                    bound = t * r / (1.0 - r)
                    if bound <= branch_tol:
                        break
            if following >= last:
                raise TermCapError(f"series did not reach tolerance {tol} within {TERM_CAP} terms")
            size, w = following, w_next
            boys += add_boys
            girls += add_girls
        value = fsum(terms)
        # u / (1 - m u) is Higham's gamma_m per rounding, m the most in any term
        gamma = _UNIT / (1.0 - (_TERM_ROUNDINGS + q_inexact * girls) * _UNIT)
        values.append(value)
        bounds += [bound, gamma * (_TERM_ROUNDINGS * value + q_inexact * girl_terms), _UNIT * value]
        terms_used += len(terms)

    value = fsum(values)
    bounds.append(_UNIT * value)
    return SeriesResult(value=value, tail_bound=fsum(bounds), terms_used=terms_used)


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
        for t in range(pmf_support_min(rule), max_children + 1):
            boy_last, girl_last = stopping_pmf_components(rule, prob, t)
            yield n, t - n, boy_last
            yield t - k, k, girl_last

    return _outcome_moments(addends(), prob)

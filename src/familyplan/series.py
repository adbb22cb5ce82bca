"""Truncated-series evaluation of the rule expectations, with tail bounds.

Every expectation here is a sum over family sizes T >= n + k of a weight
times one of the two pmf addends from :mod:`familyplan.core`: families
closed by their n-th boy and families closed by their k-th girl.  With m
the closing count and x the probability of the other sex, a branch's
addend has successor ratio T*x/(T+1-m), nonincreasing in T.  Each weight
has the form w(T) = a*T + b, optionally divided by T, with a >= 0; where
its ratio w(T+1)/w(T) exceeds 1 that ratio is nonincreasing too.  So once
w(T) > 0 the one tail rule

    r = T*x/(T+1-m) * max(1, w(T+1)/w(T))

bounds every later term ratio, and when r < 1 the dropped tail is at most
term * r / (1 - r).  That is the tail bound reported in every
SeriesResult.  It bounds the truncation only, not the floating-point
rounding of the summed terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb, fsum

from .core import (
    BirthProbability,
    Rule,
    TruncatedMoments,
    _require_stoppable,
    as_probability,
    as_rule,
    pmf_support_min,
    stopping_pmf_components,
)
from .errors import DomainError, ExtremeProbabilityError, NumericError, TermCapError

# Term counts scale like 1/min(p, 1-p); refuse probabilities that would
# burn the cap instead of converging.
SERIES_P_MIN = 1e-6
TERM_CAP = 100_000

CLOSED_FORM_QUANTITIES = ("F_H", "F_S", "G_H", "G_S", "B_H", "B_S")

# Weights (a, b) meaning a*T + b on families closed by a boy and by a girl,
# for a rule (n, k); the flag divides both weights by T.
_WEIGHTS = {
    "boys": (lambda n, k: ((0, n), (1, -k)), False),
    "family_size": (lambda n, k: ((1, 0), (1, 0)), False),
    "girl_share": (lambda n, k: ((1, -n), (0, k)), True),
}


@dataclass(frozen=True)
class SeriesResult:
    """A truncated series value with a bound on the dropped tail.

    tail_bound covers truncation only; the rounding of the summed terms is
    not included.  Near float64 precision the value can sit farther from
    the exact sum than that: expected_family_size((5,0), 0.3, 1e-13) is
    9.89e-14 from 5/p against a tail_bound of 8.17e-14.
    """

    value: float
    tail_bound: float
    terms_used: int

    def __post_init__(self) -> None:
        if self.terms_used < 1:
            raise DomainError("terms_used must be >= 1")
        if self.tail_bound < 0.0:
            raise DomainError("tail_bound must be >= 0")


def _check_series_probability(prob: BirthProbability) -> BirthProbability:
    if not SERIES_P_MIN <= prob.p <= 1.0 - SERIES_P_MIN:
        raise ExtremeProbabilityError(
            f"p={prob.p!r} is outside [{SERIES_P_MIN}, {1.0 - SERIES_P_MIN}]; "
            "series evaluation would need an impractical number of terms"
        )
    return prob


def _check_tolerance(tol: float) -> float:
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be a positive real, got {tol!r}")
    return float(tol)


def _weighted_series(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    tol: float,
    quantity: str,
) -> SeriesResult:
    """Sum a quantity's weighted pmf addends until the tail rule meets tol.

    When both branches can close a family each gets half of tol.  Terms are
    accumulated with fsum, so each branch value is its correctly rounded
    partial sum.
    """
    rule = _require_stoppable(as_rule(rule))
    prob = _check_series_probability(as_probability(p))
    tol = _check_tolerance(tol)

    n, k = rule.boys_required, rule.girls_required
    pp, q = prob.p, prob.q
    weights, per_child = _WEIGHTS[quantity]
    boy_closed, girl_closed = weights(n, k)
    # (closing count m, other-sex probability x, weight, boys and girls
    # added per extra child); both branches start at T = n + k.
    branches = [
        branch
        for branch in ((n, q, boy_closed, 0, 1), (k, pp, girl_closed, 1, 0))
        if branch[0] >= 1
    ]
    branch_tol = tol / len(branches)
    cap = TERM_CAP
    values: list[float] = []
    bounds: list[float] = []
    terms_used = 0
    for m, x, (a, b), add_boys, add_girls in branches:
        size, boys, girls = n + k, n, k
        w = (a * size + b) / size if per_child else a * size + b
        terms: list[float] = []
        last = size + cap
        while True:
            try:
                t = w * (comb(size - 1, m - 1) * pp**boys * q**girls)
            except OverflowError:
                raise NumericError(
                    f"series term at T={size} overflows float64 for rule "
                    f"({n},{k}) at p={pp!r}"
                ) from None
            terms.append(t)
            following = size + 1
            w_next = (a * following + b) / following if per_child else a * following + b
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
                raise TermCapError(
                    f"series did not reach tolerance {tol} within {cap} terms"
                )
            size = following
            boys += add_boys
            girls += add_girls
            w = w_next
        values.append(fsum(terms))
        bounds.append(bound)
        terms_used += len(terms)

    return SeriesResult(
        value=fsum(values), tail_bound=fsum(bounds), terms_used=terms_used
    )


def expected_boys(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    tol: float,
) -> SeriesResult:
    """Expected number of boys at the stopping time.

    Boy-last families contribute weight n, girl-last families weight T - k.
    """
    return _weighted_series(rule, p, tol, "boys")


def expected_girls(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    tol: float,
) -> SeriesResult:
    """Expected number of girls, via the swap symmetry G(n,k,p) = B(k,n,1-p)."""
    rule = _require_stoppable(as_rule(rule))
    prob = as_probability(p)
    return expected_boys(rule.mirrored(), BirthProbability(prob.q), tol)


def expected_family_size(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    tol: float,
) -> SeriesResult:
    """Expected number of children E(T) at the stopping time."""
    return _weighted_series(rule, p, tol, "family_size")


def gender_ratio(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    tol: float,
) -> float:
    """Ratio of expected boys to expected girls.

    Equals the birth odds p/(1-p) for every rule, up to truncation error.
    """
    boys = expected_boys(rule, p, tol)
    girls = expected_girls(rule, p, tol)
    return boys.value / girls.value


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
    if not isinstance(max_children, int) or isinstance(max_children, bool):
        raise DomainError(f"max_children must be an integer, got {max_children!r}")
    if max_children < 1:
        raise DomainError(f"max_children must be >= 1, got {max_children}")

    n, k = rule.boys_required, rule.girls_required
    pp, q = prob.p, prob.q
    mass: list[float] = []
    boys_acc: list[float] = []
    girls_acc: list[float] = []
    total_acc: list[float] = []
    share_acc: list[float] = []
    mart_acc: list[float] = []
    for t in range(pmf_support_min(rule), max_children + 1):
        boy_last, girl_last = stopping_pmf_components(rule, prob, t)
        mass.append(boy_last + girl_last)
        boys_acc.append(n * boy_last + (t - k) * girl_last)
        girls_acc.append((t - n) * boy_last + k * girl_last)
        total_acc.append(t * (boy_last + girl_last))
        share_acc.append(((t - n) / t) * boy_last + (k / t) * girl_last)
        mart_acc.append(
            (n / pp - (t - n) / q) * boy_last + ((t - k) / pp - k / q) * girl_last
        )

    return TruncatedMoments(
        mass_covered=fsum(mass),
        boys=fsum(boys_acc),
        girls=fsum(girls_acc),
        total=fsum(total_acc),
        girl_share=fsum(share_acc),
        martingale=fsum(mart_acc),
    )

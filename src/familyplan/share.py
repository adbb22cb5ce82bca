"""Girl-share analysis: societal share, per-family average share, and the gap.

Two different notions of "share of girls" for a rule:

* societal share g = E[girls] / E[T], the population-level fraction;
* average share g_bar = E[girls / T], averaging each family's own fraction.

For the two-boys rule the average share has the logarithmic closed form
1 - 2r(1 + r ln p) with r = p/(1-p), and it sits strictly below the
societal share 1-p; the general-rule series here reduces to exactly that
case at (2,0).  The gap g - g_bar is what an individual family perceives
as asymmetry even though the population-level ratio is fair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BirthProbability, Rule, as_probability
from .series import (
    SeriesResult,
    _weighted_series,
    expected_family_size,
    expected_girls,
)


@dataclass(frozen=True)
class ShareReport:
    """Societal and per-family-average girl shares, and their difference."""

    societal_share: float
    average_share: float
    gap: float


def societal_share(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    tol: float,
) -> float:
    """E[girls] / E[T]; equals 1-p for the (2,0) rule."""
    girls = expected_girls(rule, p, tol)
    size = expected_family_size(rule, p, tol)
    return girls.value / size.value


def average_share(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    tol: float,
) -> SeriesResult:
    """E[girls / T]: the pmf addends weighted by each branch's girl fraction.

    Boy-last families of size T hold T - n girls, girl-last families hold
    exactly k, so the weights are (T-n)/T and k/T.  It is the package's one
    truncated series: tail_bound covers its truncation and its rounding.
    """
    return _weighted_series(rule, p, tol)


def shammai_average_share_closed_form(p: BirthProbability | float) -> float:
    """Average girl share of the (2,0) rule: 1 - 2r(1 + r ln p), r = p/(1-p)."""
    prob = as_probability(p)
    odds = prob.p / prob.q
    return 1.0 - 2.0 * odds * (1.0 + odds * math.log(prob.p))


def share_report(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    tol: float,
) -> ShareReport:
    """Bundle societal share, average share, and their gap."""
    societal = societal_share(rule, p, tol)
    average = average_share(rule, p, tol)
    return ShareReport(
        societal_share=societal,
        average_share=average.value,
        gap=societal - average.value,
    )

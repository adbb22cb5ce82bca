"""Stopping rules, birth probabilities, and the exact stopping-time pmf.

A rule "(n, k)" means: keep having children until at least ``n`` boys and
``k`` girls have been born.  Writing T for the first time the rule is
satisfied and l = T - 1, the pmf of T splits into two addends:

* the last child is a boy (possible only when n >= 1):
      C(l, n-1) * p^n * (1-p)^(T-n)
* the last child is a girl (possible only when k >= 1):
      C(l, k-1) * p^(T-k) * (1-p)^k

both supported on T >= n + k.  When n = 0 or k = 0 the corresponding
addend is dropped.  The float p is exactly a/2^e, so each addend is
computed as one integer over 2^(e*T) and rounded once.

This module also hosts the brute-force oracle, the independent ground truth
for every truncated expectation in the package.  It counts the birth
sequences one birth at a time, by additions alone, so it shares no algebra
with the series machinery, and it keeps one count per (boys, girls)
outcome.  It and series.truncated_moments, whose weights come from
binomial ratios instead, round the same exact sums once, in
_exact_moments, so the two agree bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError, NumericError


def _check_int(name: str, value: object, minimum: int | None = None) -> int:
    """Return value if it is an int (not a bool) and at least minimum."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    return value


class Rule(NamedTuple("Rule", [("boys_required", int), ("girls_required", int)])):
    """A stopping rule: have children until boys_required boys and
    girls_required girls are born."""

    __slots__ = ()

    def __new__(cls, boys_required: int, girls_required: int) -> Rule:
        _check_int("boys_required", boys_required, 0)
        _check_int("girls_required", girls_required, 0)
        return tuple.__new__(cls, (boys_required, girls_required))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    @property
    def total_required(self) -> int:
        return self.boys_required + self.girls_required


class BirthProbability(NamedTuple("BirthProbability", [("p", float)])):
    """Probability of a boy at each birth, strictly inside (0, 1)."""

    __slots__ = ()

    def __new__(cls, p: float) -> BirthProbability:
        if not isinstance(p, (int, float)) or isinstance(p, bool):
            raise DomainError(f"p must be a real number, got {p!r}")
        if not 0.0 < p < 1.0:  # also refuses nan and inf
            raise DomainError(f"p must lie strictly in (0, 1), got {p!r}")
        return tuple.__new__(cls, (float(p),))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    @property
    def q(self) -> float:
        """Probability of a girl."""
        return 1.0 - self.p

    @property
    def odds(self) -> float:
        """Birth odds p/(1-p)."""
        return self.p / (1.0 - self.p)


def _dyadic(prob: BirthProbability) -> tuple[int, int, int]:
    """(a, e, c) with the float p = a/2^e exactly and q = 1 - p = c/2^e."""
    a, power = prob.p.as_integer_ratio()
    return a, power.bit_length() - 1, power - a


def as_rule(rule: Rule | tuple[int, int]) -> Rule:
    """Coerce a (n, k) pair into a Rule; anything else, and the (0,0) rule,
    is a DomainError."""
    if not isinstance(rule, Rule):
        try:
            n, k = rule
        except (TypeError, ValueError):
            raise DomainError(f"a rule is a Rule or a pair (n, k), got {rule!r}") from None
        rule = Rule(n, k)
    if rule.total_required < 1:
        raise DomainError(
            "the (0,0) rule stops before the first birth; expectations over it are undefined"
        )
    return rule


def as_probability(p: BirthProbability | float) -> BirthProbability:
    """Coerce a bare float into a BirthProbability."""
    if isinstance(p, BirthProbability):
        return p
    return BirthProbability(p)


def _pmf_addends(rule: Rule, prob: BirthProbability, t: int) -> Iterator[tuple[int, int, int]]:
    """The (boy-last, girl-last) numerators of P(T = t) and their denominator
    2^(e*t), then those of P(T = t + 1), ...

    With p = a/2^e and q = c/2^e the boy-last numerator is the integer
    C(t-1, n-1) a^n c^(t-n), and t -> t + 1 multiplies it by
    t c / (t - n + 1) exactly; the girl-last one likewise, with a and c
    swapped.  t must be at least n + k.
    """
    n, k = rule.boys_required, rule.girls_required
    a, e, c = _dyadic(prob)
    try:
        boys = math.comb(t - 1, n - 1) * a**n * c ** (t - n) if n else 0
        girls = math.comb(t - 1, k - 1) * a ** (t - k) * c**k if k else 0
        while True:
            yield boys, girls, 1 << e * t
            boys = boys * t * c // (t - n + 1)
            girls = girls * t * a // (t - k + 1)
            t += 1
    except (OverflowError, MemoryError):
        raise NumericError(f"P(T = {t}) of rule ({n},{k}) is too large for exact integers") from None


def stopping_pmf_components(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    total_children: int,
) -> tuple[float, float]:
    """The (boy-last, girl-last) addends of P(T = total_children).

    Each addend is correctly rounded at the float p, however large its
    binomial coefficient.
    """
    rule = as_rule(rule)
    prob = as_probability(p)
    _check_int("total_children", total_children, 1)
    if total_children < rule.total_required:
        return (0.0, 0.0)
    boys, girls, scale = next(_pmf_addends(rule, prob, total_children))
    return boys / scale, girls / scale


class TruncatedMoments(NamedTuple):
    """Expectations restricted to families that finish within the horizon.

    Every field is E[stat * 1{T <= horizon}] except mass_covered, which is
    P(T <= horizon).  girl_share weights girls/T, martingale weights
    boys/p - girls/(1-p).  Each field is correctly rounded at the float p.
    """

    mass_covered: float
    boys: float
    girls: float
    total: float
    girl_share: float
    martingale: float


def _family_statistics(
    boys: int, girls: int, prob: BirthProbability
) -> tuple[int, int, int, float, float]:
    """The (boys, girls, total, girl share, martingale) of one stopped family.

    The order is that of the means in montecarlo.SimulationSummary.
    The martingale boys/p - girls/(1-p) has mean zero at the stopping time
    (optional stopping).
    """
    total = boys + girls
    return boys, girls, total, girls / total, boys / prob.p - girls / prob.q


def _exact_moments(
    entries: Iterable[tuple[int, int, int]], horizon: int, prob: BirthProbability
) -> TruncatedMoments:
    """The moments of (boys, girls, weight) entries, one per outcome, each
    weight an integer over 2^(e*horizon) with p = a/2^e and q = c/2^e.

    Each field sums its integer numerators and divides once, so it is
    correctly rounded: girl_share scales girls/T by the lcm of the totals
    present to stay in integers, and the martingale boys/p - girls/q is
    2^e (boys c - girls a)/(a c).
    """
    a, e, c = _dyadic(prob)
    mass = boys_sum = girls_sum = share_sum = martingale_sum = 0
    lcm = 1
    try:
        for boys, girls, weight in entries:
            total = boys + girls
            grown = math.lcm(lcm, total)
            share_sum, lcm = share_sum * (grown // lcm), grown
            mass += weight
            boys_sum += weight * boys
            girls_sum += weight * girls
            share_sum += weight * (lcm // total * girls)
            martingale_sum += weight * (boys * c - girls * a)
        scale = 1 << e * horizon
    except (OverflowError, MemoryError):
        raise NumericError(f"the moments over {horizon} births are too large for exact integers") from None
    return TruncatedMoments(
        mass / scale,
        boys_sum / scale,
        girls_sum / scale,
        (boys_sum + girls_sum) / scale,
        share_sum / (scale * lcm),
        (martingale_sum << e) / (a * c * scale),
    )


def _stopped_sequences(n: int, k: int, limit: int) -> Counter[tuple[int, int]]:
    """Count the birth sequences of length <= limit, pruned at first
    satisfaction, by their (boys, girls) outcome.

    live maps the boys of the unstopped sequences after t births to how many
    there are; each birth splits every state in two and moves the sequences
    it stops into the outcome counts.  Only additions are used, never a
    binomial coefficient, which keeps the count independent of the series
    formulas it is used to check.
    """
    counts: Counter[tuple[int, int]] = Counter()
    live = {0: 1}
    for t in range(limit):
        grown: Counter[int] = Counter()
        for boys, count in live.items():
            for b, g in ((boys + 1, t - boys), (boys, t - boys + 1)):
                if b >= n and g >= k:
                    counts[b, g] += count
                else:
                    grown[b] += count
        live = grown
    return counts


def enumerate_brute_force(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    max_children: int,
) -> TruncatedMoments:
    """Probability-weighted statistics over all families with T <= max_children.

    Each stopped sequence has probability p^boys * (1-p)^girls, so with
    p = a/2^e, q = c/2^e and H = max_children an outcome of T births weighs
    its count of sequences times a^boys c^girls 2^(e(H-T)) over 2^(eH), and
    _exact_moments rounds each field once.  Truncated expectations here come
    straight from the sample space with no series algebra involved.
    """
    rule = as_rule(rule)
    prob = as_probability(p)
    _check_int("max_children", max_children, 1)

    n, k = rule.boys_required, rule.girls_required
    counts = _stopped_sequences(n, k, max_children)
    a, e, c = _dyadic(prob)

    def entries() -> Iterator[tuple[int, int, int]]:
        # A family stops at its n-th boy or its k-th girl, so every outcome lies
        # on the line boys = n or girls = k.  Each line is walked out from
        # (n, k) with one running power a^boys c^girls; pop counts the corner once.
        corner = a**n * c**k
        for step, line in (
            (c, [(n, girls) for girls in range(k, max_children - n + 1)]),
            (a, [(boys, k) for boys in range(n, max_children - k + 1)]),
        ):
            power = corner
            for boys, girls in line:
                yield boys, girls, counts.pop((boys, girls), 0) * power << e * (max_children - boys - girls)
                power *= step

    return _exact_moments(entries(), max_children, prob)

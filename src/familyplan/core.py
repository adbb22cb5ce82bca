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

This module also hosts the brute-force oracle: a depth-first walk over raw
birth sequences that shares no algebra with the series machinery and acts
as the independent ground truth for every truncated expectation in the
package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import Iterable, Iterator

from .errors import DomainError

# Enumeration is exponential in the worst case; the cap keeps 2^max_children
# walks tractable.
BRUTE_FORCE_CAP = 24


def _check_int(name: str, value: object, minimum: int | None = None) -> int:
    """Return value if it is an int (not a bool) and at least minimum."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class Rule:
    """A stopping rule: have children until boys_required boys and
    girls_required girls are born."""

    boys_required: int
    girls_required: int

    def __post_init__(self) -> None:
        for name in ("boys_required", "girls_required"):
            _check_int(name, getattr(self, name), 0)

    @property
    def total_required(self) -> int:
        return self.boys_required + self.girls_required


@dataclass(frozen=True)
class BirthProbability:
    """Probability of a boy at each birth, strictly inside (0, 1)."""

    p: float

    def __post_init__(self) -> None:
        p = self.p
        if not isinstance(p, (int, float)) or isinstance(p, bool):
            raise DomainError(f"p must be a real number, got {p!r}")
        if not math.isfinite(p) or not 0.0 < p < 1.0:
            raise DomainError(f"p must lie strictly in (0, 1), got {p!r}")
        object.__setattr__(self, "p", float(p))

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
    """Coerce a (n, k) pair into a Rule; anything else is a DomainError."""
    if isinstance(rule, Rule):
        return rule
    try:
        n, k = rule
    except (TypeError, ValueError):
        raise DomainError(f"a rule is a Rule or a pair (n, k), got {rule!r}") from None
    return Rule(n, k)


def as_probability(p: BirthProbability | float) -> BirthProbability:
    """Coerce a bare float into a BirthProbability."""
    if isinstance(p, BirthProbability):
        return p
    return BirthProbability(p)


def _require_stoppable(rule: Rule) -> Rule:
    if rule.total_required < 1:
        raise DomainError(
            "the (0,0) rule stops before the first birth; expectations over it are undefined"
        )
    return rule


def _pmf_addends(rule: Rule, prob: BirthProbability, t: int) -> Iterator[tuple[float, float]]:
    """The (boy-last, girl-last) addends of P(T = t), then of P(T = t + 1), ...

    With p = a/2^e and q = c/2^e the boy-last addend is the integer
    C(t-1, n-1) a^n c^(t-n) over 2^(e*t), rounded once, and t -> t + 1
    multiplies that integer by t c / (t - n + 1) exactly; the girl-last
    addend likewise, with a and c swapped.  t must be at least n + k.
    """
    n, k = rule.boys_required, rule.girls_required
    a, e, c = _dyadic(prob)
    boys = math.comb(t - 1, n - 1) * a**n * c ** (t - n) if n else 0
    girls = math.comb(t - 1, k - 1) * a ** (t - k) * c**k if k else 0
    while True:
        scale = 1 << e * t
        yield boys / scale, girls / scale
        boys = boys * t * c // (t - n + 1)
        girls = girls * t * a // (t - k + 1)
        t += 1


def stopping_pmf_components(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    total_children: int,
) -> tuple[float, float]:
    """The (boy-last, girl-last) addends of P(T = total_children).

    Each addend is correctly rounded at the float p, however large its
    binomial coefficient.
    """
    rule = _require_stoppable(as_rule(rule))
    prob = as_probability(p)
    _check_int("total_children", total_children, 1)
    if total_children < rule.total_required:
        return (0.0, 0.0)
    return next(_pmf_addends(rule, prob, total_children))


@dataclass(frozen=True)
class TruncatedMoments:
    """Expectations restricted to families that finish within the horizon.

    Every field is E[stat * 1{T <= horizon}] except mass_covered, which is
    P(T <= horizon).  girl_share weights girls/T, martingale weights
    boys/p - girls/(1-p).
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

    The order is that of the TruncatedMoments fields after mass_covered.
    The martingale boys/p - girls/(1-p) has mean zero at the stopping time
    (optional stopping).
    """
    total = boys + girls
    return boys, girls, total, girls / total, boys / prob.p - girls / prob.q


def _outcome_moments(
    entries: Iterable[tuple[int, int, float]], prob: BirthProbability
) -> TruncatedMoments:
    """Sum weight and weight * statistic over (boys, girls, weight) entries.

    One fsum per field, so each field is the correctly rounded sum of its
    products, whatever the order of the entries.  The statistics of an
    outcome are computed once, however many entries share it.
    """
    stats: dict[tuple[int, int], tuple[int, int, int, float, float]] = {}
    mass: list[float] = []
    weighted: list[list[float]] = [[] for _ in range(5)]
    boys_w, girls_w, total_w, share_w, martingale_w = weighted
    for boys, girls, weight in entries:
        key = boys, girls
        if key not in stats:
            stats[key] = _family_statistics(boys, girls, prob)
        b, g, total, share, martingale = stats[key]
        mass.append(weight)
        boys_w.append(weight * b)
        girls_w.append(weight * g)
        total_w.append(weight * total)
        share_w.append(weight * share)
        martingale_w.append(weight * martingale)
    return TruncatedMoments(fsum(mass), *map(fsum, weighted))


def _stopped_sequences(n: int, k: int, limit: int) -> list[tuple[int, int, bool]]:
    """All birth sequences of length <= limit, pruned at first satisfaction.

    Returns one (boys, girls, last_is_boy) triple per stopped sequence.  The
    walk is a plain depth-first enumeration of boy/girl strings; it never
    touches binomial coefficients, which keeps it independent of the series
    formulas it is used to check.
    """
    leaves: list[tuple[int, int, bool]] = []

    def walk(boys: int, girls: int) -> None:
        if boys + girls == limit:
            return
        if boys + 1 >= n and girls >= k:
            leaves.append((boys + 1, girls, True))
        else:
            walk(boys + 1, girls)
        if boys >= n and girls + 1 >= k:
            leaves.append((boys, girls + 1, False))
        else:
            walk(boys, girls + 1)

    walk(0, 0)
    return leaves


def enumerate_brute_force(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    max_children: int,
) -> TruncatedMoments:
    """Probability-weighted statistics over all families with T <= max_children.

    Each stopped sequence contributes p^boys * (1-p)^girls, so truncated
    expectations here come straight from the sample space with no series
    algebra involved.
    """
    rule = _require_stoppable(as_rule(rule))
    prob = as_probability(p)
    _check_int("max_children", max_children, 1)
    if max_children > BRUTE_FORCE_CAP:
        raise DomainError(
            f"max_children={max_children} exceeds the enumeration cap of {BRUTE_FORCE_CAP}"
        )

    pp, q = prob.p, prob.q
    return _outcome_moments(
        (
            (boys, girls, pp**boys * q**girls)
            for boys, girls, _last in _stopped_sequences(
                rule.boys_required, rule.girls_required, max_children
            )
        ),
        prob,
    )

"""Rule comparison: equal-family-size crossings and parameter sweeps.

The (1,1) and (2,0) rules produce equal average family sizes at exactly
one birth probability, p = (sqrt(5) - 1) / 2; ``crossing_probability``
locates such crossings for any rule pair by bisecting (0, 1) on the exact
sign of the family-size difference.  ``sweep`` tabulates any of the
rule quantities over a p grid for CSV emission.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .core import _SMALL_RULE_SIZE, BirthProbability, Rule, _check_int, _dyadic, as_rule
from .errors import BracketingError, DomainError, NumericError
from .series import _check_tolerance, _wald_binomials, _wald_fraction, _wald_value
from .share import _average_share, _share_terms

# the _wald_value quantity behind each Wald column
_WALD_QUANTITIES = {"F": "family_size", "G": "girls", "B": "boys", "ratio": "ratio"}
SWEEP_QUANTITIES = ("F", "G", "B", "ratio", "societal_share", "average_share")


class SweepRow(NamedTuple):
    """One grid point: p and the requested quantities, keyed by name."""

    p: float
    quantities: dict[str, float]


def crossing_probability(
    rule_a: Rule | tuple[int, int],
    rule_b: Rule | tuple[int, int],
    tol: float,
) -> float:
    """Birth probability at which the two rules have equal average family size.

    Bisects [0, 1] on the exact sign of F_a - F_b, from cross-multiplying
    the two Wald fractions of F, and returns the first midpoint where it is
    0, or else, once the ends are adjacent floats, the one nearer the root
    (the even one on a tie); tol is checked but unused.  The sign keeps one
    value on (0, 1), and BracketingError is raised, iff one rule needs at
    least as many boys and girls as the other, i.e. iff
    (n_a - n_b)(k_a - k_b) >= 0; otherwise it goes like (n_a - n_b)/p near 0
    and (k_a - k_b)/q near 1, so the rule counts give the sign at the low
    end without evaluating it.
    """
    rule_a, rule_b = as_rule(rule_a), as_rule(rule_b)
    _check_tolerance(tol)

    def sign(dyadic: tuple[int, int, int]) -> int:
        (num_a, dens_a), (num_b, dens_b) = (_wald_fraction(rule, dyadic) for rule in (rule_a, rule_b))
        cross = num_a * dens_b["family_size"] - num_b * dens_a["family_size"]
        return (cross > 0) - (cross < 0)

    (n_a, k_a), (n_b, k_b) = rule_a, rule_b
    if (n_a - n_b) * (k_a - k_b) >= 0:
        raise BracketingError(
            f"family sizes of rules ({n_a},{k_a}) and ({n_b},{k_b}) never change order on (0, 1)"
        )
    s_low = (n_a > n_b) - (n_a < n_b)
    low, high = 0.0, 1.0
    while True:
        mid = 0.5 * (low + high)
        if mid in (low, high):
            break
        s_mid = sign(_dyadic(BirthProbability(mid)))
        if s_mid == 0:
            return mid
        low, high = (mid, high) if s_mid == s_low else (low, mid)
    # low, high = L/2^e, (L+1)/2^e: the sign at (2L+1)/2^(e+1), no float,
    # picks the nearer, and a zero there is a tie, which goes to the even one
    e = max(end.as_integer_ratio()[1] for end in (low, high)).bit_length() - 1
    lower = int(math.ldexp(low, e))
    s_mid = sign((2 * lower + 1, e + 1, (2 << e) - 2 * lower - 1))
    return high if (s_mid == s_low if s_mid else lower % 2) else low


def sweep(
    rules: list[Rule | tuple[int, int]],
    quantities: list[str],
    p_start: float,
    p_end: float,
    steps: int,
    tol: float,
) -> list[SweepRow]:
    """Evaluate each quantity for each rule on a uniform p grid.

    A cell that fails numerically (a value beyond float64) is marked NaN
    instead of aborting the sweep; average_share lies in [0, 1] and always
    has a value.  Rows are ordered by grid index; columns by quantity kind,
    then rule.  Each cell equals its public function (expected_*, gender_ratio,
    societal_share, average_share) bit for bit, and is NaN where that raises
    NumericError; the arguments are checked once, a rule or quantity given
    twice is a DomainError, F, G, B and ratio of one rule at one p share one
    Wald fraction, and the average shares of one p share its logarithms.
    """
    return list(_sweep_rows(rules, quantities, p_start, p_end, steps, tol)[1])


def _sweep_rows(
    rules: list[Rule | tuple[int, int]], quantities: list[str],
    p_start: float, p_end: float, steps: int, tol: float,
) -> tuple[list[str], Iterator[SweepRow]]:
    """sweep's checks, all at once, then its column names and a lazy generator of its rows."""
    parsed_rules = [as_rule(r) for r in rules]
    if not parsed_rules:
        raise DomainError("at least one rule is required")
    if not quantities:
        raise DomainError("at least one quantity is required")
    for kind in quantities:
        if kind not in SWEEP_QUANTITIES:
            raise DomainError(f"unknown quantity {kind!r}; expected one of {SWEEP_QUANTITIES}")
    for index, (n, k) in enumerate(parsed_rules):
        if (n, k) in parsed_rules[:index]:
            raise DomainError(f"rule ({n},{k}) is given twice; a sweep takes each rule once")
    for index, kind in enumerate(quantities):
        if kind in quantities[:index]:
            raise DomainError(f"quantity {kind!r} is given twice; a sweep takes each quantity once")
    _check_int("steps", steps, 2)
    if any(not isinstance(end, (int, float)) or isinstance(end, bool) for end in (p_start, p_end)):
        raise DomainError(f"the grid ends must be real numbers, got [{p_start!r}, {p_end!r}]")
    if not (0.0 < p_start < p_end < 1.0):
        raise DomainError(f"the grid must satisfy 0 < p_start < p_end < 1, got [{p_start}, {p_end}]")
    _check_tolerance(tol)

    names = [f"{kind}({n},{k})" for kind in quantities for n, k in parsed_rules]
    kinds = [_WALD_QUANTITIES.get(kind, kind) for kind in quantities]  # a Wald one as _wald_value's
    wald = any(kind in _WALD_QUANTITIES for kind in quantities)
    binomials, terms = zip(*[_rule_tables(rule, wald, "average_share" in quantities) for rule in parsed_rules])
    span = p_end - p_start

    def rows() -> Iterator[SweepRow]:
        for i in range(steps):
            p = p_end if i == steps - 1 else p_start + i * span / (steps - 1)
            prob = BirthProbability(p)
            dyadic = _dyadic(prob)
            fractions = [
                _or_else(None, _wald_fraction, r, dyadic, b) for r, b in zip(parsed_rules, binomials) if wald
            ]
            logs: dict = {}  # each precision's logarithms, once for all the row's rules
            cells: list[float] = []
            for kind in kinds:
                if kind == "average_share":
                    cells += [
                        _or_else(math.nan, _average_share, r, prob, dyadic, logs, t)
                        for r, t in zip(parsed_rules, terms)
                    ]
                elif kind == "societal_share":
                    cells += [prob.q] * len(parsed_rules)
                else:
                    cells += [
                        math.nan if f is None else _or_else(math.nan, _wald_value, r, prob, f, kind)
                        for r, f in zip(parsed_rules, fractions)
                    ]
            yield SweepRow(p=p, quantities=dict(zip(names, cells)))

    return names, rows()


def _or_else(failed: Any, function: Callable[..., Any], *args: Any) -> Any:
    """function(*args), or failed where it raises NumericError."""
    try:
        return function(*args)
    except NumericError:
        return failed


def _rule_tables(rule: Rule, wald: bool, shares: bool) -> tuple[tuple | None, tuple | None]:
    """What a sweep builds once for a rule and passes to each row: the rule's
    _wald_binomials if wald and n, k >= 1, and its _share_terms if shares.
    Each is None where not asked for, and both for a rule of more than
    _SMALL_RULE_SIZE children (a table holds some (n+k)^2 bits), whose sums
    make their own integers, as a one-shot call's do."""
    n, k = rule
    if n + k > _SMALL_RULE_SIZE:
        return None, None
    binomials = tuple(map(tuple, _wald_binomials(n, k))) if wald and n and k else None
    return binomials, _share_terms(rule) if shares else None


def sweep_to_csv(rows: list[SweepRow]) -> str:
    """Serialize sweep rows: header ``p,<names...>``, 17 significant digits, LF.

    Quantity names contain commas (e.g. ``F(1,1)``), so header fields are
    quoted per RFC 4180; numeric cells never need quoting.
    """
    if not rows:
        raise DomainError("cannot serialize an empty sweep")
    return "".join(_csv_lines(list(rows[0].quantities), rows))


def _csv_lines(names: list[str], rows: Iterable[SweepRow]) -> Iterator[str]:
    """sweep_to_csv's lines, each formatted when it is asked for."""
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(["p"] + names)
    yield header.getvalue()
    line = ",".join(["%.17g"] * (len(names) + 1)) + "\n"
    for row in rows:
        if list(row.quantities) != names:
            raise DomainError("sweep rows carry inconsistent quantity names")
        yield line % (row.p, *row.quantities.values())

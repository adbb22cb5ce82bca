"""Rule comparison: equal-family-size crossings and parameter sweeps.

The (1,1) and (2,0) rules produce equal average family sizes at exactly
one birth probability, p = (sqrt(5) - 1) / 2; ``crossing_probability``
locates such crossings for any rule pair by scanning for a sign change of
the family-size difference and bisecting.  ``sweep`` tabulates any of the
rule quantities over a p grid for CSV emission.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass

from . import share as share_mod
from .core import BirthProbability, Rule, _check_int, as_probability, as_rule
from .errors import BracketingError, DomainError, NumericError
from .series import (
    _check_tolerance,
    expected_boys,
    expected_family_size,
    expected_girls,
    gender_ratio,
)

SCAN_LOW = 0.01
SCAN_HIGH = 0.99
SCAN_POINTS = 97

SWEEP_QUANTITIES = ("F", "G", "B", "ratio", "societal_share", "average_share")


class MultipleCrossingsWarning(UserWarning):
    """The scan found more than one sign change; the leftmost root is returned."""


@dataclass(frozen=True)
class SweepRow:
    """One grid point: p and the requested quantities, keyed by name."""

    p: float
    quantities: dict[str, float]


def crossing_probability(
    rule_a: Rule | tuple[int, int],
    rule_b: Rule | tuple[int, int],
    tol: float,
) -> float:
    """Birth probability at which the two rules have equal average family size.

    Scans SCAN_POINTS points on [SCAN_LOW, SCAN_HIGH] for a sign change of
    F_a - F_b, then bisects the leftmost bracket until it is narrower than
    tol.  Series evaluations run at tol/10 so truncation error cannot flip
    a bracketing sign.  Raises BracketingError when the curves never cross;
    warns via MultipleCrossingsWarning when more than one bracket exists.
    """
    rule_a = as_rule(rule_a)
    rule_b = as_rule(rule_b)
    tol = _check_tolerance(tol)
    series_tol = tol / 10.0

    def difference(p: float) -> float:
        prob = BirthProbability(p)
        return (
            expected_family_size(rule_a, prob, series_tol).value
            - expected_family_size(rule_b, prob, series_tol).value
        )

    step = (SCAN_HIGH - SCAN_LOW) / (SCAN_POINTS - 1)
    grid = [SCAN_LOW + i * step for i in range(SCAN_POINTS)]
    values = [difference(p) for p in grid]

    brackets = [
        (grid[i], grid[i + 1])
        for i in range(len(grid) - 1)
        if values[i] * values[i + 1] < 0.0
    ]
    if not brackets:
        # a grid point can sit exactly on an isolated root; identically
        # zero differences (coinciding curves) are not a crossing
        if any(v != 0.0 for v in values):
            for p, value in zip(grid, values):
                if value == 0.0:
                    return p
        raise BracketingError(
            f"family sizes of {rule_a} and {rule_b} never change order on "
            f"[{SCAN_LOW}, {SCAN_HIGH}]"
        )
    if len(brackets) > 1:
        warnings.warn(
            f"{len(brackets)} sign changes found; returning the leftmost root",
            MultipleCrossingsWarning,
            stacklevel=2,
        )

    low, high = brackets[0]
    f_low = difference(low)
    while high - low > tol:
        mid = 0.5 * (low + high)
        f_mid = difference(mid)
        if f_mid == 0.0:
            return mid
        if (f_low < 0.0) != (f_mid < 0.0):
            high = mid
        else:
            low, f_low = mid, f_mid
    return 0.5 * (low + high)


def _quantity_value(
    kind: str,
    rule: Rule,
    prob: BirthProbability,
    tol: float,
) -> float:
    if kind == "F":
        return expected_family_size(rule, prob, tol).value
    if kind == "G":
        return expected_girls(rule, prob, tol).value
    if kind == "B":
        return expected_boys(rule, prob, tol).value
    if kind == "ratio":
        return gender_ratio(rule, prob, tol)
    if kind == "societal_share":
        return share_mod.societal_share(rule, prob, tol)
    if kind == "average_share":
        return share_mod.average_share(rule, prob, tol).value
    raise DomainError(f"unknown quantity {kind!r}; expected one of {SWEEP_QUANTITIES}")


def quantity_label(kind: str, rule: Rule) -> str:
    return f"{kind}({rule.boys_required},{rule.girls_required})"


def sweep(
    rules: list[Rule | tuple[int, int]],
    quantities: list[str],
    p_start: float,
    p_end: float,
    steps: int,
    tol: float,
) -> list[SweepRow]:
    """Evaluate each quantity for each rule on a uniform p grid.

    A cell whose series evaluation fails numerically is marked NaN instead
    of aborting the sweep.  Rows are ordered by grid index; columns by
    quantity kind, then rule.
    """
    parsed_rules = [as_rule(r) for r in rules]
    if not parsed_rules:
        raise DomainError("at least one rule is required")
    if not quantities:
        raise DomainError("at least one quantity is required")
    for kind in quantities:
        if kind not in SWEEP_QUANTITIES:
            raise DomainError(
                f"unknown quantity {kind!r}; expected one of {SWEEP_QUANTITIES}"
            )
    _check_int("steps", steps, 2)
    if not (0.0 < p_start < p_end < 1.0):
        raise DomainError(
            f"the grid must satisfy 0 < p_start < p_end < 1, got [{p_start}, {p_end}]"
        )
    tol = _check_tolerance(tol)

    span = p_end - p_start
    rows: list[SweepRow] = []
    for i in range(steps):
        p = p_end if i == steps - 1 else p_start + i * span / (steps - 1)
        prob = as_probability(p)
        cells: dict[str, float] = {}
        for kind in quantities:
            for rule in parsed_rules:
                try:
                    value = _quantity_value(kind, rule, prob, tol)
                except NumericError:
                    value = math.nan
                cells[quantity_label(kind, rule)] = value
        rows.append(SweepRow(p=p, quantities=cells))
    return rows


def sweep_to_csv(rows: list[SweepRow]) -> str:
    """Serialize sweep rows: header ``p,<names...>``, 17 significant digits, LF.

    Quantity names contain commas (e.g. ``F(1,1)``), so header fields are
    quoted per RFC 4180; numeric cells never need quoting.
    """
    if not rows:
        raise DomainError("cannot serialize an empty sweep")
    names = list(rows[0].quantities)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["p"] + names)
    for row in rows:
        if list(row.quantities) != names:
            raise DomainError("sweep rows carry inconsistent quantity names")
        writer.writerow(
            [f"{row.p:.17g}"] + [f"{row.quantities[name]:.17g}" for name in names]
        )
    return buffer.getvalue()

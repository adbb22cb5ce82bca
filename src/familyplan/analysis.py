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
from dataclasses import dataclass

from . import share as share_mod
from .core import BirthProbability, Rule, _check_int, _require_stoppable, as_probability, as_rule
from .errors import BracketingError, DomainError, NumericError
from .series import (
    _check_tolerance,
    _wald_fraction,
    expected_boys,
    expected_family_size,
    expected_girls,
    gender_ratio,
)

# Each entry looks its function up when called, so rebinding a module
# attribute (as a tracer does) reaches the sweep.
_QUANTITIES = {
    "F": lambda rule, prob, tol: expected_family_size(rule, prob, tol).value,
    "G": lambda rule, prob, tol: expected_girls(rule, prob, tol).value,
    "B": lambda rule, prob, tol: expected_boys(rule, prob, tol).value,
    "ratio": lambda rule, prob, tol: gender_ratio(rule, prob, tol),
    "societal_share": lambda rule, prob, tol: share_mod.societal_share(rule, prob, tol),
    "average_share": lambda rule, prob, tol: share_mod.average_share(rule, prob, tol).value,
}
SWEEP_QUANTITIES = tuple(_QUANTITIES)


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

    Bisects [0, 1] on the exact sign of F_a - F_b, from cross-multiplying
    the two Wald fractions of F, and returns the first midpoint where it is
    0, or else a midpoint once the ends are adjacent floats; tol is checked
    but unused.  The sign keeps one value on (0, 1), and BracketingError is
    raised, iff one rule needs at least as many boys and girls as the other;
    otherwise it goes like (n_a - n_b)/p near 0 and (k_a - k_b)/q near 1,
    so the extreme floats 2^-1074 and 1 - 2^-53 bracket a root.
    """
    rule_a = _require_stoppable(as_rule(rule_a))
    rule_b = _require_stoppable(as_rule(rule_b))
    _check_tolerance(tol)

    def sign(p: float) -> int:
        prob = BirthProbability(p)
        (num_a, den_a), (num_b, den_b) = (
            _wald_fraction(rule, prob, "family_size") for rule in (rule_a, rule_b)
        )
        cross = num_a * den_b - num_b * den_a
        return (cross > 0) - (cross < 0)

    s_low = sign(math.ulp(0.0))
    if s_low * sign(1.0 - 2.0**-53) >= 0:
        raise BracketingError(
            f"family sizes of {rule_a} and {rule_b} never change order on (0, 1)"
        )
    low, high = 0.0, 1.0
    while True:
        mid = 0.5 * (low + high)
        if mid in (low, high):
            return mid
        s_mid = sign(mid)
        if s_mid == 0:
            return mid
        low, high = (mid, high) if s_mid == s_low else (low, mid)


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
    then rule.
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
                    value = _QUANTITIES[kind](rule, prob, tol)
                except NumericError:
                    value = math.nan
                cells[f"{kind}({rule.boys_required},{rule.girls_required})"] = value
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

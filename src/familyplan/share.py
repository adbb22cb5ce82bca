"""Girl-share analysis: societal share, per-family average share, and the gap.

Two different notions of "share of girls" for a rule:

* societal share g = E[girls] / E[T], the population-level fraction;
* average share g_bar = E[girls / T], averaging each family's own fraction.

For the two-boys rule the average share has the logarithmic closed form
1 - 2r(1 + r ln p) with r = p/(1-p), and it sits strictly below the
societal share 1-p; every rule's has the form R0 + R1 ln p + R2 ln(1-p),
R0, R1, R2 rational in p.  The gap g - g_bar is what an individual family
perceives as asymmetry even though the population-level ratio is fair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BirthProbability, Rule, _dyadic, _require_stoppable, as_probability, as_rule
from .errors import NumericError
from .series import SeriesResult, _check_tolerance

# Bits beyond the cancellation of the logarithm terms and the bits of e: one
# round settles nearly every value; each further round of Ziv's doubles them.
_GUARD_BITS = 64
_ZIV_ROUNDS = 8


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
    """E[girls] / E[T] = 1-p for every rule, as E[G] = q E[T] (Wald); tol is
    checked but unused."""
    _require_stoppable(as_rule(rule))
    _check_tolerance(tol)
    return as_probability(p).q


def _atanh(num: int, den: int, bits: int) -> tuple[int, int]:
    """2^bits * atanh(num/den) for |num/den| <= 1/3, and a bound on its error.

    Each power of z = num/den, floored from the last, is short by under
    1/(1 - z^2) <= 9/8 units, so each of the M terms is short by under 2.2
    and the tail once a power floors to 0 is under (9/8)^2: under 2 * odd.
    """
    power, total, odd = (abs(num) << bits) // den, 0, 1
    while power:
        total += power // odd
        power = power * num * num // (den * den)
        odd += 2
    return (total if num >= 0 else -total), 2 * odd


def _ln(x: int, e: int, bits: int, ln_2: tuple[int, int]) -> tuple[int, int]:
    """2^bits * ln(x/2^e) for an integer x >= 1, and a bound on its error,
    given ln_2 = 2^bits * ln 2 and its error bound; with x/2^t in
    [1/sqrt(2), sqrt(2)), ln x = 2 atanh((x - 2^t)/(x + 2^t)) + t ln 2."""
    t = x.bit_length() - (2 * x * x < 1 << 2 * x.bit_length())
    value, error = _atanh(x - (1 << t), x + (1 << t), bits + 1)
    return value + (t - e) * ln_2[0], error + abs(t - e) * ln_2[1]


def _branch(m: int, x: int, y: int, e: int, size: int, lcm: int) -> tuple[int, int, int]:
    """Families closed by the m-th child of the sex born with probability x/2^e.

    With y = 2^e - x, returns (mass, rational, log) over lcm * y^m * 2^(e*size):
    sum_{T>=size} P(closed at T) = mass, and sum_{T>=size} P(closed at T)/T =
    rational + log * ln(x/2^e).  From T = m that sum is (x/y)^m (-1)^m ln(x/2^e)
    + sum_{j<m-1} (-1)^j (x/y)^(j+1)/(m-1-j) (put u = 1 - y t in 1/T =
    int_0^1 t^(T-1) dt); the head m <= T < size is subtracted from both.
    """
    x_m, y_m = x**m, y**m
    # sum_{j<m-1} (-1)^j x^(j+1) y^(m-1-j) lcm/(m-1-j), by Horner in x
    rational, y_power = 0, y
    for j in range(m - 2, -1, -1):
        rational = rational * x + (-1) ** j * (lcm // (m - 1 - j)) * y_power
        y_power *= y
    rational = rational * x << e * size
    mass = lcm * y_m << e * size
    for t in range(m, size):
        head = math.comb(t - 1, m - 1) * x_m * y ** (t - m) << e * (size - t)
        mass -= head * lcm * y_m
        rational -= head * y_m * (lcm // t)
    return mass, rational, (-1) ** m * x_m * lcm << e * size


def average_share(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    tol: float,
) -> SeriesResult:
    """E[girls / T], correctly rounded at the float p; tol is checked but unused.

    Boy-closed families of size T hold T - n girls and girl-closed ones k,
    so E[girls/T] = P(boy-closed) - n sum_B P/T + k sum_G P/T, two _branch
    sums: over lcm(1..n+k) c^n a^k 2^(e(n+k)), with p = a/2^e and q = c/2^e,
    rational + u ln p + v ln q in integers.  The precision of the logarithms
    is raised until both ends of their error interval round to one float
    (Ziv's strategy).  That ends, as the value is transcendental (Baker)
    unless u ln p + v ln q = 0: at a float p, only n = k at 1/2, value 1/2."""
    rule = _require_stoppable(as_rule(rule))
    prob = as_probability(p)
    _check_tolerance(tol)
    n, k = rule.boys_required, rule.girls_required
    (a, e, c), size = _dyadic(prob), n + k
    lcm = math.lcm(*range(1, size + 1))
    mass_b, rational_b, log_b = _branch(n, a, c, e, size, lcm) if n else (0, 0, 0)
    rational_g, log_g = _branch(k, c, a, e, size, lcm)[1:] if k else (0, 0)
    denominator = lcm * c**n * a**k << e * size
    rational = a**k * (mass_b - n * rational_b) + k * c**n * rational_g
    u, v = -n * a**k * log_b, k * c**n * log_g
    cancelled = max(abs(u), abs(v)).bit_length() - denominator.bit_length()
    bits = _GUARD_BITS + max(cancelled, 0) + e.bit_length()
    for _ in range(_ZIV_ROUNDS):
        ln_2 = _atanh(1, 3, bits + 1)  # ln 2 = 2 atanh(1/3)
        (ln_p, error_p), (ln_q, error_q) = _ln(a, e, bits, ln_2), _ln(c, e, bits, ln_2)
        total = (rational << bits) + u * ln_p + v * ln_q
        error = abs(u) * error_p + abs(v) * error_q
        low = (total - error) / (denominator << bits)  # int / int rounds correctly
        if low == (total + error) / (denominator << bits):
            return SeriesResult(value=low, tail_bound=0.0, terms_used=size)
        bits *= 2
    raise NumericError(f"average_share of rule ({n},{k}) at p={prob.p!r} unsettled at {bits // 2} bits")


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

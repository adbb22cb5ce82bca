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
from functools import lru_cache
from typing import Iterable, Iterator

from .core import BirthProbability, Rule, _dyadic, as_probability, as_rule
from .errors import NumericError
from .series import SeriesResult, _check_tolerance

# Bits beyond the cancellation of the logarithm terms and the bits of e: one
# round settles nearly every value; each further round of Ziv's doubles them.
_GUARD_BITS = 64
_ZIV_ROUNDS = 8
# The precisions _ln_2 keeps, so that it holds at most 128 values of 512 bytes:
# a sweep of rules up to (6,6) asks for at most 224 bits, while (40,40) at
# p = 5e-324 asks for 43040, and each further Ziv round doubles that.
_LN_2_CACHED_BITS = 1 << 12


def societal_share(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    tol: float,
) -> float:
    """E[girls] / E[T] = 1-p for every rule, as E[G] = q E[T] (Wald); tol is
    checked but unused."""
    as_rule(rule)
    _check_tolerance(tol)
    return as_probability(p).q


def _atanh(num: int, den: int, bits: int) -> tuple[int, int]:
    """2^bits * atanh(num/den) for |num/den| <= 1/3, and a bound on its error.

    Each power of z = num/den, floored from the last, is short by under
    1/(1 - z^2) <= 9/8 units, so each of the M terms is short by under 2.2
    and the tail once a power floors to 0 is under (9/8)^2: under 2 * odd.
    """
    power, total, odd = (abs(num) << bits) // den, 0, 1
    num_2, den_2 = num * num, den * den
    while power:
        total += power // odd
        power = power * num_2 // den_2
        odd += 2
    return (total if num >= 0 else -total), 2 * odd


@lru_cache(maxsize=128)
def _ln_2(bits: int) -> tuple[int, int]:
    """2^bits * ln 2 = 2^(bits+1) atanh(1/3), and a bound on its error; a
    sweep asks for a few dozen precisions over and over."""
    return _atanh(1, 3, bits + 1)


def _ln(x: int, e: int, bits: int) -> tuple[int, int]:
    """2^bits * ln(x/2^e) for an integer x >= 1, and a bound on its error;
    with x/2^t in [1/sqrt(2), sqrt(2)), ln x = 2 atanh((x - 2^t)/(x + 2^t)) + t ln 2."""
    t = x.bit_length() - (2 * x * x < 1 << 2 * x.bit_length())
    value, error = _atanh(x - (1 << t), x + (1 << t), bits + 1)
    ln_2, ln_2_error = (_ln_2 if bits <= _LN_2_CACHED_BITS else _ln_2.__wrapped__)(bits)
    return value + (t - e) * ln_2, error + abs(t - e) * ln_2_error


def _branch_terms(m: int, size: int, lcm: int) -> tuple[Iterable[int], Iterable[tuple[int, int]]]:
    """_branch's integers that depend on the rule alone, made as it asks for
    them: (-1)^j lcm/(m-1-j) for j = m-2 down to 0, and C(t-1, m-1) with
    C(t-1, m-1) lcm/t for t = size-1 down to m."""

    def head() -> Iterator[tuple[int, int]]:
        coefficient = math.comb(size - 1, m - 1)
        for t in range(size - 1, m - 1, -1):
            coefficient = coefficient * (t - m + 1) // t  # C(t-1, m-1) from C(t, m-1)
            yield coefficient, coefficient * (lcm // t)

    alternating = (-(lcm // (m - 1 - j)) if j % 2 else lcm // (m - 1 - j) for j in range(m - 2, -1, -1))
    return alternating, head()


def _branch(
    m: int, x: int, y: int, e: int, size: int, lcm: int,
    terms: tuple[Iterable[int], Iterable[tuple[int, int]]] | None = None,
) -> tuple[int, int, int]:
    """Families closed by the m-th child of the sex born with probability x/2^e.

    With y = 2^e - x, returns (rational, log) over lcm * y^m * 2^(e*size),
    sum_{T>=size} P(closed at T)/T = rational + log * ln(x/2^e), and
    2^(e*size) P(closed by this sex).  From T = m that sum is (x/y)^m (-1)^m
    ln(x/2^e) + sum_{j<m-1} (-1)^j (x/y)^(j+1)/(m-1-j) (put u = 1 - y t in
    1/T = int_0^1 t^(T-1) dt); the head m <= T < size is summed by Horner in
    y, weighted by lcm/T for the rational part and unweighted for the mass.
    terms are _branch_terms(m, size, lcm), which a sweep builds once per
    rule; without them the sums make their own.
    """
    alternating, head_terms = terms or _branch_terms(m, size, lcm)
    x_m, y_m = x**m, y**m
    # sum_{j<m-1} (-1)^j x^(j+1) y^(m-1-j) lcm/(m-1-j), by Horner in x
    rational, y_power = 0, y
    for term in alternating:
        rational = rational * x + term * y_power
        y_power *= y
    head, weighted, shift = 0, 0, e
    for coefficient, weight in head_terms:
        head = head * y + (coefficient << shift)
        weighted = weighted * y + (weight << shift)
        shift += e
    rational = (rational * x << e * size) - x_m * y_m * weighted
    return rational, (-1) ** m * x_m * lcm << e * size, (1 << e * size) - x_m * head


def _share_terms(rule: Rule) -> tuple[int, tuple | None, tuple | None]:
    """lcm(1..n+k) and the boy and the girl branch's _branch_terms, built at
    once: what a sweep shares between the rows of one rule."""
    n, k = rule
    lcm = math.lcm(*range(1, n + k + 1))
    return lcm, *(tuple(map(tuple, _branch_terms(m, n + k, lcm))) if m else None for m in (n, k))


def average_share(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    tol: float,
) -> SeriesResult:
    """E[girls / T], correctly rounded at the float p; tol is checked but unused."""
    rule = as_rule(rule)
    prob = as_probability(p)
    _check_tolerance(tol)
    value = _average_share(rule, prob, _dyadic(prob), {})
    return SeriesResult(value=value, tail_bound=0.0, terms_used=rule.total_required)


def _average_share(
    rule: Rule,
    prob: BirthProbability,
    dyadic: tuple[int, int, int],
    logs: dict[int, tuple[tuple[int, int], tuple[int, int]]],
    terms: tuple[int, tuple | None, tuple | None] | None = None,
) -> float:
    """average_share's value, for arguments already checked, from the dyadic
    of prob and the rule's _share_terms, if a sweep built them (without them
    the sums make their own).  logs maps a precision to _ln of p and of q at
    it, and gains each one this call computes: a sweep's row passes one to
    all its rules.

    Boy-closed families of size T hold T - n girls and girl-closed ones k,
    so E[girls/T] = P(boy-closed) - n sum_B P/T + k sum_G P/T, all three from
    _branch: over lcm(1..n+k) c^n a^k 2^(e(n+k)), with p = a/2^e and q = c/2^e,
    rational + u ln p + v ln q in integers.  The precision of the logarithms,
    a multiple of 32 bits so that rules can share it, is raised until both
    ends of their error interval round to one float (Ziv's strategy).  That
    ends, as the value is transcendental (Baker) unless u ln p + v ln q = 0:
    at a float p, only n = k at 1/2, value 1/2."""
    n, k = rule.boys_required, rule.girls_required
    (a, e, c), size = dyadic, n + k
    try:
        lcm, boy_terms, girl_terms = terms or (math.lcm(*range(1, size + 1)), None, None)
        rational_b, log_b, boy_closed = _branch(n, a, c, e, size, lcm, boy_terms) if n else (0, 0, 0)
        rational_g, log_g, _ = _branch(k, c, a, e, size, lcm, girl_terms) if k else (0, 0, 0)
        denominator = lcm * c**n * a**k << e * size
    except (OverflowError, MemoryError):
        raise NumericError(f"rule ({n},{k}) is too large for exact integers") from None
    rational = a**k * (lcm * c**n * boy_closed - n * rational_b) + k * c**n * rational_g
    u, v = -n * a**k * log_b, k * c**n * log_g
    cancelled = max(abs(u), abs(v)).bit_length() - denominator.bit_length()
    bits = -(-(_GUARD_BITS + max(cancelled, 0) + e.bit_length()) // 32) * 32
    for _ in range(_ZIV_ROUNDS):
        if bits not in logs:
            logs[bits] = _ln(a, e, bits), _ln(c, e, bits)
        (ln_p, error_p), (ln_q, error_q) = logs[bits]
        total = (rational << bits) + u * ln_p + v * ln_q
        error = abs(u) * error_p + abs(v) * error_q
        low = (total - error) / (denominator << bits)  # int / int rounds correctly
        if low == (total + error) / (denominator << bits):
            return low
        bits *= 2
    raise NumericError(f"average_share of rule ({n},{k}) at p={prob.p!r} unsettled at {bits // 2} bits")


def shammai_average_share_closed_form(p: BirthProbability | float) -> float:
    """Average girl share of the (2,0) rule: 1 - 2r(1 + r ln p), r = p/(1-p)."""
    prob = as_probability(p)
    odds = prob.p / prob.q
    return 1.0 - 2.0 * odds * (1.0 + odds * math.log(prob.p))


"""Exact rational-function algebra over the birth probability p.

The paper gives expected boys for a rule (n, k) as

    B(n,k,p) = n/(n-1)! * p^n * (-1)^(n-1) * d^(n-1)/dp^(n-1)[ (1-p)^(n+k-1) / p ]
             + p (1-p)^k / (k-1)!          * d^k/dp^k      [ p^(n+k-1) / (1-p) ]

(first term dropped when n = 0, second when k = 0).  The general Leibniz
rule expands both derivatives: with N = n+k-1 and q = 1-p, B = M/q, where

    M = n sum_{j<n} C(N,j) p^j q^(N+1-j) + k sum_{j<=min(k,N)} C(N,j) p^(N+1-j) q^j

has integer coefficients and degree at most N+1.  Both sums are binomial
CDFs: with F_m(p) = P(Bin(N,p) < m), and F_m = 0 for m <= 0,

    M = n q F_n + k p (1 - F_{n-1}),

and the upper tail has the closed form

    1 - F_m = P(Bin(N,p) >= m) = sum_{j=m..N} (-1)^(j-m) C(N,j) C(j-1,m-1) p^j,

whose coefficients follow from c_m = C(N,m) by the exact ratio
c_{j+1} / c_j = (N-j) j / ((j+1)(j+1-m)).  So M takes O(n+k) big-int
steps.  The ratio identity

    (1-p) B(n,k,p)  =  p B(k,n,1-p)

is the polynomial equality M(n,k)(p) = M(k,n)(1-p), and equal canonical
forms of its two sides are a proof for that (n, k), not an approximation.
Any rule that ``as_rule`` accepts is taken; one too large for exact
integers raises NumericError.

Every function built here has a denominator p^a (1-p)^b, so a
RationalFunction is both built from and stored as N(p) / (p^a (1-p)^b):
a numerator polynomial N with int coefficients and the exponents (a, b).
The canonical form cancels the only factors N can share with the
denominator: while a > 0 and N(0) = 0, N loses a factor p; while b > 0
and N(1) = 0, N loses a factor 1-p.  Equal functions therefore have
equal canonical forms, with no polynomial GCD.
``evaluate_exact`` is the one evaluator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb
from typing import Iterable, NamedTuple, Sequence

from .core import as_rule
from .errors import DomainError, NumericError

# The rules whose numerators _leibniz_numerator keeps, so that its 512 entries
# hold at most 65 coefficients each: every verify grid (n, k <= 20) is cached,
# while one (2000,2000) numerator alone is 1.5 MB.
_CACHED_RULE_SIZE = 64


def _exact(value: int) -> int:
    """An int coefficient; anything else, bool included, raises DomainError."""
    if type(value) is not int:
        raise DomainError(f"polynomial coefficients must be int, got {type(value).__name__} {value!r}")
    return value


class Polynomial:
    """Dense polynomial in p with int coefficients.

    Coefficient i multiplies p^i; a coefficient of any other type, Fraction,
    float and bool included, raises DomainError.  Trailing zeros are
    stripped on construction, so equality is structural; the zero
    polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int] = ()) -> None:
        coeffs = [_exact(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    def is_zero(self) -> bool:
        return not self.coefficients

    def __eq__(self, other: object) -> bool:
        if type(other) is int:
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        other = _as_poly(other)
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] += c
        return Polynomial(summed)

    __radd__ = __add__

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def evaluate(self, x: Fraction) -> Fraction:
        """The value at a rational x = u/v: sum c_i u^i v^(d-i) in integers,
        by Horner in u, over v^d (scale ends one factor v past it)."""
        u, v = x.numerator, x.denominator
        acc, scale = 0, 1
        for c in reversed(self.coefficients):
            acc = acc * u + c * scale
            scale *= v
        return Fraction(acc * v, scale)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coefficients)!r})"

    def __str__(self) -> str:
        return format_polynomial(self)


def _as_poly(value: "Polynomial | int") -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if type(value) is int:
        return Polynomial([value])
    raise DomainError(f"cannot interpret {value!r} as a polynomial")


def _power_product(a: int, b: int) -> Polynomial:
    """p^a (1-p)^b, expanded by the binomial theorem."""
    return Polynomial([0] * a + [(-1) ** j * comb(b, j) for j in range(b + 1)])


def _divide_out(coefficients: Sequence[int], a: int, b: int) -> tuple[list[int], int, int]:
    """Divide up to a factors p, then up to b factors 1-p, out of a polynomial.

    Each loop stops at the first factor that does not divide.  Returns the
    quotient's coefficients and how many factors p and 1-p came out; the
    zero polynomial takes them all.
    """
    if not coefficients:
        return [], a, b
    shift = 0
    while shift < a and coefficients[shift] == 0:
        shift += 1
    coeffs = list(coefficients[shift:])
    ones = 0
    while ones < b and sum(coeffs) == 0:
        # N = (1-p) Q with N(1) = 0 gives q_i = c_0 + ... + c_i (synthetic division)
        coeffs = list(accumulate(coeffs))[:-1]
        ones += 1
    return coeffs, shift, ones


def format_polynomial(poly: Polynomial) -> str:
    """Ascending-power human form, e.g. ``1 - p + p^2``."""
    if poly.is_zero():
        return "0"
    pieces: list[str] = []
    for i, c in enumerate(poly.coefficients):
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if i == 0:
            body = str(mag)
        else:
            var = "p" if i == 1 else f"p^{i}"
            body = var if mag == 1 else f"{mag}{var}"
        if not pieces:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f"{sign} {body}")
    return " ".join(pieces)


class RationalFunction:
    """N(p) / (p^a (1-p)^b), built from and kept as N and (a, b) in canonical form.

    ``numerator`` is N and ``exponents`` is (a, b).  Canonical means
    N(0) != 0 when a > 0 and N(1) != 0 when b > 0, so N shares no factor
    with the denominator, and equality of canonical forms is equality of
    the functions.  The zero function has exponents (0, 0).
    """

    __slots__ = ("numerator", "exponents")

    def __init__(
        self,
        numerator: Polynomial | int,
        exponents: tuple[int, int] = (0, 0),
    ) -> None:
        """numerator / (p^a (1-p)^b) for exponents (a, b), brought to canonical form."""
        if not (
            isinstance(exponents, tuple)
            and len(exponents) == 2
            and all(type(e) is int and e >= 0 for e in exponents)
        ):
            raise DomainError(f"exponents must be a pair of non-negative ints, got {exponents!r}")
        a, b = exponents
        coeffs, da, db = _divide_out(_as_poly(numerator).coefficients, a, b)
        object.__setattr__(self, "numerator", Polynomial(coeffs))
        object.__setattr__(self, "exponents", (a - da, b - db))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RationalFunction is immutable")

    @property
    def denominator(self) -> Polynomial:
        """p^a (1-p)^b, expanded."""
        return _power_product(*self.exponents)

    def __eq__(self, other: object) -> bool:
        if type(other) is int or isinstance(other, Polynomial):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (
            self.numerator == other.numerator
            and self.exponents == other.exponents
        )

    def __hash__(self) -> int:
        return hash((self.numerator, self.exponents))

    def __add__(self, other: "RationalFunction | Polynomial | int") -> "RationalFunction":
        other = _as_rational(other)
        (a1, b1), (a2, b2) = self.exponents, other.exponents
        a, b = max(a1, a2), max(b1, b2)
        return RationalFunction(
            self.numerator * _power_product(a - a1, b - b1)
            + other.numerator * _power_product(a - a2, b - b2),
            (a, b),
        )

    __radd__ = __add__

    def __mul__(self, other: "RationalFunction | Polynomial | int") -> "RationalFunction":
        other = _as_rational(other)
        (a1, b1), (a2, b2) = self.exponents, other.exponents
        return RationalFunction(self.numerator * other.numerator, (a1 + a2, b1 + b2))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"RationalFunction({self.numerator!r}, {self.exponents!r})"

    def __str__(self) -> str:
        return f"({format_polynomial(self.numerator)})/({format_polynomial(self.denominator)})"


def _as_rational(value: "RationalFunction | Polynomial | int") -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    return RationalFunction(value)


def mirror(f: "RationalFunction | Polynomial | int") -> RationalFunction:
    """Substitute p -> 1-p: N(1-p) / ((1-p)^a p^b), N(1-p) by an integer Taylor shift."""
    f = _as_rational(f)
    # dividing by p - 1 leaves the next coefficient of N(1+x) as the remainder
    coeffs, shifted = f.numerator.coefficients[::-1], []
    while coeffs:
        *coeffs, value = accumulate(coeffs)
        shifted.append(-value if len(shifted) % 2 else value)
    a, b = f.exponents
    return RationalFunction(Polynomial(shifted), (b, a))


def _upper_tail(total: int, m: int) -> list[int]:
    """The coefficients of P(Bin(total, p) >= m) in p, constant term first."""
    if m <= 0:
        return [1] + [0] * total
    coeffs = [0] * (total + 1)
    c = comb(total, m)
    for j in range(m, total + 1):
        coeffs[j] = -c if (j - m) % 2 else c
        c = c * (total - j) * j // ((j + 1) * (j + 1 - m))
    return coeffs


@lru_cache(maxsize=512)
def _leibniz_numerator(n: int, k: int) -> Polynomial:
    """M(n,k) = (1-p) B(n,k) = n (1-p) F_n + k p (1 - F_{n-1})."""
    total = n + k - 1
    try:
        # n (1-p) F_n = n (1-p) (1 - P(Bin >= n)), then k p P(Bin >= n-1)
        coeffs = [n, -n] + [0] * total
        for i, c in enumerate(_upper_tail(total, n)):
            coeffs[i] -= n * c
            coeffs[i + 1] += n * c
        for i, c in enumerate(_upper_tail(total, n - 1)):
            coeffs[i + 1] += k * c
    except (OverflowError, MemoryError):
        raise NumericError(f"rule ({n},{k}) is too large for exact integers") from None
    return Polynomial(coeffs)


def _numerator(n: int, k: int) -> Polynomial:
    """_leibniz_numerator(n, k), from its cache only for a small rule."""
    return (_leibniz_numerator if n + k <= _CACHED_RULE_SIZE else _leibniz_numerator.__wrapped__)(n, k)


def expected_boys_exact(n: int, k: int) -> RationalFunction:
    """B(n,k,p) as an exact rational function on (0,1), in O(n+k) big-int steps."""
    as_rule((n, k))
    return RationalFunction(_numerator(n, k), (0, 1))


class RatioCertificate(NamedTuple):
    """Audit record for one rule: both sides of (1-p)B(n,k,p) = p B(k,n,1-p)."""

    boys_required: int
    girls_required: int
    holds: bool
    lhs: RationalFunction
    rhs: RationalFunction


def verify_ratio_identity(n: int, k: int) -> RatioCertificate:
    """Certify (1-p) B(n,k,p) = p B(k,n,1-p) as M(n,k)(p) = M(k,n)(1-p).

    Because both sides are canonical, holds=True is a proof that the rule's
    gender ratio equals the birth odds everywhere on (0,1).  M takes O(n+k)
    big-int steps, but its mirror is a Taylor shift of O((n+k)^2) additions,
    so a certificate costs O((n+k)^2) and a grid of them the fourth power of
    its side.  A rule too large for exact integers raises NumericError.
    """
    as_rule((n, k))
    lhs = RationalFunction(_numerator(n, k))
    rhs = mirror(RationalFunction(_numerator(k, n)))
    return RatioCertificate(boys_required=n, girls_required=k, holds=lhs == rhs, lhs=lhs, rhs=rhs)


def evaluate_exact(f: "RationalFunction | Polynomial | int", p: Fraction) -> Fraction:
    """Evaluate at an exact rational birth probability in (0,1)."""
    f = _as_rational(f)
    if not isinstance(p, Fraction):
        raise DomainError(
            f"p must be an exact Fraction, got {type(p).__name__} {p!r}"
        )
    if not Fraction(0) < p < Fraction(1):
        raise DomainError(f"p must lie strictly in (0, 1), got {p}")
    a, b = f.exponents
    return f.numerator.evaluate(p) / (p**a * (1 - p) ** b)

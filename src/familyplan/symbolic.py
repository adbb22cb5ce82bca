"""Exact rational-function algebra over the birth probability p.

The paper gives expected boys for a rule (n, k) as

    B(n,k,p) = n/(n-1)! * p^n * (-1)^(n-1) * d^(n-1)/dp^(n-1)[ (1-p)^(n+k-1) / p ]
             + p (1-p)^k / (k-1)!          * d^k/dp^k      [ p^(n+k-1) / (1-p) ]

(first term dropped when n = 0, second when k = 0).  The general Leibniz
rule expands both derivatives: with N = n+k-1 and q = 1-p, B = M/q, where

    M = n sum_{j<n} C(N,j) p^j q^(N+1-j) + k sum_{j<=min(k,N)} C(N,j) p^(N+1-j) q^j

has integer coefficients and degree at most N+1.  Building both sides of

    (1-p) B(n,k,p)  =  p B(k,n,1-p)

and canonicalizing turns the ratio-invariance claim into a structural
equality of polynomials: a proof for that (n, k), not an approximation.

Every function built here has a denominator p^a (1-p)^b, so a
RationalFunction is stored as N(p) / (p^a (1-p)^b): a numerator
polynomial N and the exponents (a, b).  Coefficients are int, or
Fraction where not integral.  The canonical form cancels the only
factors N can share with the denominator: while a > 0 and N(0) = 0, N
loses a factor p; while b > 0 and N(1) = 0, N loses a factor 1-p.  Equal
functions therefore have equal canonical forms, with no polynomial GCD.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, lcm
from typing import Iterable, Sequence, Union

from .core import _check_int
from .errors import DomainError, PoleError

# B = M/(1-p), M the integer Leibniz expansion, takes O((n+k)^2) operations;
# the cap bounds a verify grid, whose work grows as the fourth power of it.
EXACT_RULE_CAP = 20

Scalar = Union[int, Fraction]


def _exact(value: Scalar) -> Scalar:
    """An int or Fraction coefficient, as int when it is integral."""
    if type(value) is int:  # the common case; isinstance against Fraction is slow
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise DomainError(
            f"polynomial coefficients must be int or Fraction, got {type(value).__name__} {value!r}"
        )
    return value.numerator if value.denominator == 1 else value


class Polynomial:
    """Dense polynomial in p with exact rational coefficients.

    Coefficient i multiplies p^i.  Integral coefficients are stored as int,
    the others as Fraction; float and bool coefficients raise DomainError.
    Trailing zeros are stripped on construction, so equality is structural;
    the zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[Scalar] = ()) -> None:
        coeffs = [_exact(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = _as_poly(other)
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] += c
        return Polynomial(summed)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coefficients])

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        return _as_poly(other) + (-self)

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
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
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coefficients)!r})"

    def __str__(self) -> str:
        return format_polynomial(self)


def _as_poly(value: "Polynomial | Scalar") -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Polynomial([value])
    raise DomainError(f"cannot interpret {value!r} as a polynomial")


#: p and 1 - p, the two factors of the ratio identity.
P_VAR = Polynomial([0, 1])
ONE_MINUS_P = Polynomial([1, -1])


def _power_product(a: int, b: int) -> Polynomial:
    """p^a (1-p)^b, expanded by the binomial theorem."""
    return Polynomial([0] * a + [(-1) ** j * comb(b, j) for j in range(b + 1)])


def _divide_out(coefficients: Sequence[Scalar], a: int, b: int) -> tuple[list[Scalar], int, int]:
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
    """Ascending-power human form, e.g. ``1 - p + p^2``.

    Assumes integer coefficients (callers normalize first); falls back to
    fraction literals otherwise.
    """
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
    """N(p) / (p^a (1-p)^b), kept in canonical form.

    ``numerator`` is N and ``exponents`` is (a, b).  Canonical means
    N(0) != 0 when a > 0 and N(1) != 0 when b > 0, so N shares no factor
    with the denominator, and equality of canonical forms is equality of
    the functions.  The zero function has exponents (0, 0).
    """

    __slots__ = ("numerator", "exponents")

    def __init__(
        self,
        numerator: Polynomial | Scalar,
        denominator: Polynomial | Scalar = 1,
    ) -> None:
        """numerator / denominator, where the denominator is c p^a (1-p)^b with c != 0."""
        num = _as_poly(numerator)
        den = _as_poly(denominator)
        if den.is_zero():
            raise DomainError("denominator must not be the zero polynomial")
        rest, a, b = _divide_out(den.coefficients, den.degree, den.degree)
        if len(rest) != 1:
            raise DomainError(f"denominator {den} is not of the form c p^a (1-p)^b")
        self._assign(num * (1 / Fraction(rest[0])), a, b)

    @classmethod
    def _reduced(cls, numerator: Polynomial, a: int, b: int) -> "RationalFunction":
        """numerator / (p^a (1-p)^b), brought to canonical form."""
        self = object.__new__(cls)
        self._assign(numerator, a, b)
        return self

    def _assign(self, numerator: Polynomial, a: int, b: int) -> None:
        coeffs, da, db = _divide_out(numerator.coefficients, a, b)
        object.__setattr__(self, "numerator", Polynomial(coeffs))
        object.__setattr__(self, "exponents", (a - da, b - db))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RationalFunction is immutable")

    @property
    def denominator(self) -> Polynomial:
        """p^a (1-p)^b, expanded."""
        return _power_product(*self.exponents)

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, Polynomial)) and not isinstance(other, bool):
            other = RationalFunction(_as_poly(other))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (
            self.numerator == other.numerator
            and self.exponents == other.exponents
        )

    def __hash__(self) -> int:
        return hash((self.numerator, self.exponents))

    def __add__(self, other: "RationalFunction | Polynomial | Scalar") -> "RationalFunction":
        other = _as_rational(other)
        (a1, b1), (a2, b2) = self.exponents, other.exponents
        a, b = max(a1, a2), max(b1, b2)
        return RationalFunction._reduced(
            self.numerator * _power_product(a - a1, b - b1)
            + other.numerator * _power_product(a - a2, b - b2),
            a,
            b,
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._reduced(-self.numerator, *self.exponents)

    def __sub__(self, other: "RationalFunction | Polynomial | Scalar") -> "RationalFunction":
        return self + (-_as_rational(other))

    def __rsub__(self, other: "RationalFunction | Polynomial | Scalar") -> "RationalFunction":
        return _as_rational(other) + (-self)

    def __mul__(self, other: "RationalFunction | Polynomial | Scalar") -> "RationalFunction":
        other = _as_rational(other)
        (a1, b1), (a2, b2) = self.exponents, other.exponents
        return RationalFunction._reduced(self.numerator * other.numerator, a1 + a2, b1 + b2)

    __rmul__ = __mul__

    def evaluate(self, x: Fraction) -> Fraction:
        a, b = self.exponents
        if (a and x == 0) or (b and x == 1):
            raise PoleError(f"denominator vanishes at p = {x}")
        return self.numerator.evaluate(x) / (x**a * (1 - x) ** b)

    def integer_normalized(self) -> tuple[Polynomial, Polynomial]:
        """Scale to coprime integer coefficients for display.

        The denominator p^a (1-p)^b has coprime integer coefficients and
        lowest-order coefficient 1, so scaling both sides by the lcm of the
        numerator's coefficient denominators is enough; it reproduces the
        familiar forms like p/(1 - p).
        """
        scale = lcm(*(c.denominator for c in self.numerator.coefficients))
        return self.numerator * scale, self.denominator * scale

    def __repr__(self) -> str:
        return f"RationalFunction({self.numerator!r}, {self.denominator!r})"

    def __str__(self) -> str:
        num, den = self.integer_normalized()
        return f"({format_polynomial(num)})/({format_polynomial(den)})"


def _as_rational(value: "RationalFunction | Polynomial | Scalar") -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    return RationalFunction(_as_poly(value))


def mirror(f: RationalFunction) -> RationalFunction:
    """Substitute p -> 1-p: N(1-p) / ((1-p)^a p^b), N(1-p) by an integer Taylor shift."""
    # dividing by p - 1 leaves the next coefficient of N(1+x) as the remainder
    coeffs, shifted = f.numerator.coefficients[::-1], []
    while coeffs:
        *coeffs, value = accumulate(coeffs)
        shifted.append(-value if len(shifted) % 2 else value)
    a, b = f.exponents
    return RationalFunction._reduced(Polynomial(shifted), b, a)


def _check_rule_caps(n: int, k: int) -> None:
    for name, value in (("n", n), ("k", k)):
        _check_int(name, value, 0)
    if n + k < 1:
        raise DomainError("the (0,0) rule has no expected-boys function")
    if n > EXACT_RULE_CAP or k > EXACT_RULE_CAP:
        raise DomainError(
            f"rule ({n},{k}) exceeds the exact-arithmetic cap of {EXACT_RULE_CAP} per count"
        )


@lru_cache(maxsize=512)
def _expected_boys_exact_cached(n: int, k: int) -> RationalFunction:
    total = n + k - 1
    terms = [(n * comb(total, j), j, total + 1 - j) for j in range(n)]
    terms += [(k * comb(total, j), total + 1 - j, j) for j in range(min(k, total) + 1)]
    coeffs = [0] * (total + 2)
    for scale, a, b in terms:
        for i in range(b + 1):
            coeffs[a + i] += (-1) ** i * scale * comb(b, i)
    return RationalFunction._reduced(Polynomial(coeffs), 0, 1)


def expected_boys_exact(n: int, k: int) -> RationalFunction:
    """B(n,k,p) as an exact rational function on (0,1)."""
    _check_rule_caps(n, k)
    return _expected_boys_exact_cached(n, k)


@dataclass(frozen=True)
class RatioCertificate:
    """Audit record for one rule: both sides of (1-p)B(n,k,p) = p B(k,n,1-p)."""

    boys_required: int
    girls_required: int
    holds: bool
    lhs: RationalFunction
    rhs: RationalFunction


def verify_ratio_identity(n: int, k: int) -> RatioCertificate:
    """Certify (1-p) B(n,k,p) = p B(k,n,1-p) as an exact polynomial identity.

    Because both sides are canonical, holds=True is a proof that the rule's
    gender ratio equals the birth odds everywhere on (0,1).
    """
    lhs = expected_boys_exact(n, k) * RationalFunction(ONE_MINUS_P)
    rhs = mirror(expected_boys_exact(k, n)) * RationalFunction(P_VAR)
    return RatioCertificate(
        boys_required=n,
        girls_required=k,
        holds=(lhs - rhs).is_zero(),
        lhs=lhs,
        rhs=rhs,
    )


def evaluate_exact(f: RationalFunction, p: Fraction) -> Fraction:
    """Evaluate at an exact rational birth probability in (0,1)."""
    if isinstance(p, int) or isinstance(p, float) or not isinstance(p, Fraction):
        raise DomainError(
            f"p must be an exact Fraction, got {type(p).__name__} {p!r}"
        )
    if not Fraction(0) < p < Fraction(1):
        raise DomainError(f"p must lie strictly in (0, 1), got {p}")
    return f.evaluate(p)

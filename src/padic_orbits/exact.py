"""Exact arithmetic kernel: rationals, p-adic valuations, and the q^(1/2) scalar algebra.

Every closed-form quantity in this package is a rational number times an
integer or half-integer power of the residue cardinality q.  ``QHalfPower``
represents such scalars exactly; plain rationals are ``fractions.Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Union

RationalLike = Union[int, Fraction]

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3e24 (covers 2^64).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality check for n < 2^64 (and a fair bit beyond)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def is_squarefree(n: int) -> bool:
    """True iff the integer n is squarefree (0 is not)."""
    n = abs(n)
    if n == 0:
        return False
    if n % 4 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        while n % d == 0:
            n //= d
        d += 2
    return True


def squarefree_part(x: Fraction) -> int:
    """The unique squarefree integer d with x = d * (rational square), x != 0."""
    if x == 0:
        raise ValueError("squarefree part of zero undefined")
    n = x.numerator * x.denominator  # same square class as x
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                out *= d
        d += 1 if d == 2 else 2
    return sign * out * n


def fundamental_discriminant(d: int) -> int:
    """Fundamental discriminant of Q(sqrt(d)) for squarefree d != 0, 1."""
    if d in (0, 1) or not is_squarefree(d):
        raise ValueError(f"{d} is not squarefree != 0, 1")
    return d if d % 4 == 1 else 4 * d


def is_fundamental_discriminant(D: int) -> bool:
    if D == 0 or D == 1:
        return False
    if D % 4 == 1:
        return is_squarefree(D)
    if D % 4 == 0:
        d = D // 4
        return d % 4 in (2, 3) and is_squarefree(d)
    return False


def ord_p(x: RationalLike, p: int) -> int:
    """Normalized p-adic valuation of a nonzero rational; ord_p(p) = 1."""
    _require_prime(p)
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of zero undefined")
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


@dataclass(frozen=True)
class QHalfPower:
    """An exact scalar coeff * q^(half_exp / 2) relative to a fixed q.

    The canonical zero has coeff = 0 and half_exp = 0.  Values whose
    half-exponents differ by an odd amount are never equal (for prime q,
    sqrt(q) is irrational), and adding them is rejected rather than
    approximated.
    """

    coeff: Fraction
    half_exp: int
    q: int

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(self.coeff))
        if self.q < 1:
            raise ValueError("q must be a positive integer")
        if self.coeff == 0 and self.half_exp != 0:
            object.__setattr__(self, "half_exp", 0)

    # -- canonical value key: absorb the even part of the exponent ------
    def _key(self):
        if self.coeff == 0:
            return (Fraction(0), 0, self.q)
        k, parity = divmod(self.half_exp, 2)
        return (self.coeff * Fraction(self.q) ** k, parity, self.q)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QHalfPower(Fraction(other), 0, self.q)
        if not isinstance(other, QHalfPower):
            return NotImplemented
        if self.q != other.q:
            return False
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def is_zero(self) -> bool:
        return self.coeff == 0

    def is_rational(self) -> bool:
        return self.coeff == 0 or self.half_exp % 2 == 0

    def as_fraction(self) -> Fraction:
        """Exact rational value; error if an odd power of sqrt(q) remains."""
        if self.coeff == 0:
            return Fraction(0)
        if self.half_exp % 2:
            raise ValueError("value contains an odd power of sqrt(q)")
        return self.coeff * Fraction(self.q) ** (self.half_exp // 2)

    def __float__(self) -> float:
        return float(self.coeff) * float(self.q) ** (self.half_exp / 2)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QHalfPower(self.coeff * other, self.half_exp, self.q)
        if not isinstance(other, QHalfPower):
            return NotImplemented
        self._check_q(other)
        return QHalfPower(self.coeff * other.coeff, self.half_exp + other.half_exp, self.q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return QHalfPower(self.coeff / other, self.half_exp, self.q)
        if not isinstance(other, QHalfPower):
            return NotImplemented
        self._check_q(other)
        if other.coeff == 0:
            raise ZeroDivisionError("division by zero")
        return QHalfPower(self.coeff / other.coeff, self.half_exp - other.half_exp, self.q)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QHalfPower(Fraction(other), 0, self.q) / self
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QHalfPower(Fraction(other), 0, self.q)
        if not isinstance(other, QHalfPower):
            return NotImplemented
        self._check_q(other)
        if self.coeff == 0:
            return other
        if other.coeff == 0:
            return self
        if (self.half_exp - other.half_exp) % 2:
            raise ValueError("incommensurable half-powers")
        h = min(self.half_exp, other.half_exp)
        q = Fraction(self.q)
        c = (self.coeff * q ** ((self.half_exp - h) // 2)
             + other.coeff * q ** ((other.half_exp - h) // 2))
        return QHalfPower(c, h, self.q)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QHalfPower(Fraction(other), 0, self.q)
        return self + QHalfPower(-other.coeff, other.half_exp, other.q)

    def __neg__(self):
        return QHalfPower(-self.coeff, self.half_exp, self.q)

    def _check_q(self, other: "QHalfPower") -> None:
        if self.q != other.q:
            raise ValueError(f"mismatched residue cardinalities {self.q} and {other.q}")

    def sqrt(self) -> "QHalfPower":
        """Exact square root when it stays inside the coeff * q^(k/2) algebra."""
        if self.coeff == 0:
            return qhalf_zero(self.q)
        if self.coeff < 0:
            raise ValueError("square root of a negative scalar")
        num, den = self.coeff.numerator, self.coeff.denominator
        rn, rd = isqrt(num), isqrt(den)
        if rn * rn != num or rd * rd != den:
            raise ValueError("coefficient is not a rational square")
        if self.half_exp % 2:
            raise ValueError("value outside Q(sqrt q) scalar algebra")
        return QHalfPower(Fraction(rn, rd), self.half_exp // 2, self.q)

    def to_json(self) -> dict:
        return {
            "coeff_num": str(self.coeff.numerator),
            "coeff_den": str(self.coeff.denominator),
            "q": self.q,
            "half_exp": self.half_exp,
        }

    def __repr__(self):
        if self.half_exp == 0 or self.coeff == 0:
            return f"{self.coeff}"
        return f"{self.coeff}*{self.q}^({self.half_exp}/2)"


def qhalf(coeff: RationalLike, q: int, half_exp: int = 0) -> QHalfPower:
    return QHalfPower(Fraction(coeff), half_exp, q)


def qhalf_zero(q: int) -> QHalfPower:
    return QHalfPower(Fraction(0), 0, q)


def abs_p(x: RationalLike, p: int) -> QHalfPower:
    """p-adic absolute value |x|_p = q^(-ord_p x) as a QHalfPower (|0| = 0)."""
    _require_prime(p)
    x = Fraction(x)
    if x == 0:
        return qhalf_zero(p)
    return QHalfPower(Fraction(1), -2 * ord_p(x, p), p)


def frac_to_json(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)

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

# Miller-Rabin witnesses: the primes to 41, deterministic below the least
# strong pseudoprime to all of them, psi_13 = 3317044064679887385961981.
# At and above psi_13 the test is a strong probable-prime test to 13 bases.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..41: exact for n < psi_13 (about 3.3e24),
    and a strong probable-prime test to those 13 bases from psi_13 on."""
    if n < 2:
        return False
    # Miller-Rabin below needs every witness to be a unit mod n.
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True   # a composite below 43^2 has a prime factor of at most 41
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


def _check_budget(what: str, value: int, cap: int, work: str, *inputs: int) -> None:
    """The package's one budget refusal: what, its value, the cap and the work it bounds.

    ``what`` is a format string for ``inputs``.  The message is built only
    on refusal, and an input or value too long to print is named by its bits.
    """
    if value > cap:
        raise ValueError(f"{what.format(*map(_printable, inputs))} = {_printable(value)} "
                         f"must be at most {cap}: {work}")


def _printable(n: int) -> str:
    try:
        return str(n)
    except ValueError:   # past Python's limit on int-to-str conversion
        return f"an integer of {n.bit_length()} bits"


# The print budget: the bits of the largest power a printed result may hold.
# 12,000 bits is under 3,613 decimal digits, inside Python's 4,300-digit limit
# on int-to-str conversion; an input past it is refused before any power.
_PRINT_BITS = 12_000
_PRINT_WORK = "printed results are capped in bits, under the 4,300-digit int-to-str limit"


class _Prime(int):
    """An int that ``_require_prime`` has tested; it passes again untested."""

    __slots__ = ()


def _require_prime(p: int) -> _Prime:
    """p, tested once; callers pass the result on, so p is not tested again."""
    if isinstance(p, _Prime):
        return p
    # p^2 or more is printed wherever p is taken: p's size goes before primality
    _check_budget("bits of p", p.bit_length(), _PRINT_BITS // 2, _PRINT_WORK)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _Prime(p)


# Trial division tries at most 5 * 10^5 divisors, however large |n| is; any
# |n| whose cofactor drops below the bound's square is admitted.
_TRIAL_BOUND = 10 ** 6


def is_squarefree(n: int) -> bool:
    """True iff the integer n is squarefree (0 is not)."""
    return n != 0 and all(e == 1 for _, e in _prime_powers(n))


def _prime_powers(n: int):
    """Yield (p, e) for each prime power p^e exactly dividing |n|, by trial division."""
    n = abs(n)
    d = 2
    while d * d <= n and d <= _TRIAL_BOUND:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            yield d, e
        d += 1 if d == 2 else 2
    if d * d <= n:   # the bound stopped the loop, not the cofactor
        _check_budget("trial divisor", d, _TRIAL_BOUND,
                      f"a cofactor above {_TRIAL_BOUND}^2 with no smaller prime factor remains")
    if n > 1:
        yield n, 1


def squarefree_part(x: Fraction) -> int:
    """The unique squarefree integer d with x = d * (rational square), x != 0."""
    if x == 0:
        raise ValueError("squarefree part of zero undefined")
    # x has the square class of numerator * denominator; the two are coprime,
    # so each is factored on its own within the trial-division budget.  A
    # perfect square, such as the denominator t^2 of a discriminant built
    # from a rational trace, contributes nothing and is not factored.
    out = -1 if x < 0 else 1
    for n in (abs(x.numerator), x.denominator):
        if isqrt(n) ** 2 == n:
            continue
        for p, e in _prime_powers(n):
            if e % 2:
                out *= p
    return out


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
    if x == 0:
        raise ValueError("valuation of zero undefined")
    n, d = (x, 1) if isinstance(x, int) else (x.numerator, x.denominator)
    return _ord(n, p) - _ord(d, p)


def _ord(n: int, p: int) -> int:
    """ord_p of a nonzero integer, for a p already checked to be prime."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class QHalfPower:
    """An exact scalar coeff * q^(half_exp / 2) relative to a fixed q.

    The package's local quantities are products and quotients of such
    scalars, so the class multiplies, divides and compares exactly and has
    no addition: ``a + b`` raises ``TypeError``, so mixing half-powers is an
    error rather than an approximation.  The canonical zero has coeff = 0
    and half_exp = 0.  Values whose half-exponents differ by an odd amount
    are never equal (for prime q, sqrt(q) is irrational).  A value with no
    odd power of sqrt(q) equals its rational, and so equals such a value at
    any other q; values with an odd power are equal only at the same q.
    Equality is therefore an equivalence, and ``__hash__`` agrees with it.
    """

    coeff: Fraction
    half_exp: int
    q: int

    def __post_init__(self):
        if not isinstance(self.coeff, Fraction):
            object.__setattr__(self, "coeff", Fraction(self.coeff))
        if self.q < 1:
            raise ValueError("q must be a positive integer")
        if self.coeff == 0 and self.half_exp != 0:
            object.__setattr__(self, "half_exp", 0)

    # -- canonical value key: absorb the even part of the exponent ------
    def _key(self):
        if self.coeff == 0:
            return (0, 0, self.q)
        k, parity = divmod(self.half_exp, 2)
        c = self.coeff
        if k > 0:
            c *= self.q ** k
        elif k < 0:
            c /= self.q ** -k
        return (c, parity, self.q)

    def _coerce(self, other):
        """other as a QHalfPower (rationals at q^0), or NotImplemented if foreign."""
        if isinstance(other, (int, Fraction)):
            return QHalfPower(other, 0, self.q)
        return other if isinstance(other, QHalfPower) else NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # With no odd power of sqrt(q) left the value is the rational c,
        # whatever q is; odd half-powers are equal only at the same q.
        c, parity, q = self._key()
        return (c, parity) == other._key()[:2] and (not parity or q == other.q)

    def __hash__(self):
        c, parity, q = self._key()
        # A value with no odd power of sqrt(q) equals its rational, so it
        # must hash as that rational.
        return hash((c, parity, q)) if parity else hash(c)

    def as_fraction(self) -> Fraction:
        """Exact rational value; error if an odd power of sqrt(q) remains."""
        if self.coeff == 0:
            return Fraction(0)
        if self.half_exp % 2:
            raise ValueError("value contains an odd power of sqrt(q)")
        return self.coeff * Fraction(self.q) ** (self.half_exp // 2)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_q(other)
        return QHalfPower(self.coeff * other.coeff, self.half_exp + other.half_exp, self.q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_q(other)
        if other.coeff == 0:
            raise ZeroDivisionError("division by zero")
        return QHalfPower(self.coeff / other.coeff, self.half_exp - other.half_exp, self.q)

    def _check_q(self, other: "QHalfPower") -> None:
        if self.q != other.q:
            raise ValueError(f"mismatched residue cardinalities {self.q} and {other.q}")

    def to_json(self) -> dict:
        return {
            "coeff_num": str(self.coeff.numerator),
            "coeff_den": str(self.coeff.denominator),
            "q": self.q,
            "half_exp": self.half_exp,
        }


def qhalf(coeff: RationalLike, q: int, half_exp: int = 0) -> QHalfPower:
    return QHalfPower(coeff, half_exp, q)


def abs_p(x: RationalLike, p: int) -> QHalfPower:
    """p-adic absolute value |x|_p = q^(-ord_p x) of a nonzero rational x, as a QHalfPower."""
    return QHalfPower(Fraction(1), -2 * ord_p(x, p), p)


def frac_to_json(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)

"""Exact arithmetic kernel: rationals, p-adic valuations, and the q^(1/2) scalar algebra.

Every closed-form quantity in this package is a rational number times an
integer or half-integer power of the residue cardinality q.  ``QHalfPower``
represents such scalars exactly; plain rationals are ``fractions.Fraction``.
``to_json`` is the package's one rule for printing any of its values.
"""

from enum import Enum
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


def disc_split(x: RationalLike) -> tuple[int, int, int]:
    """(D0, f_num, f_den) with x = D0 (f_num / f_den)^2, f in lowest terms, for x != 0.

    D0 is the fundamental discriminant of Q(sqrt x), or 1 for a square x, and
    for x = t^2 - 4n, f is the conductor of Z[gamma].  x's numerator and
    denominator are coprime and factored once each, and the split is built
    and checked in integers.
    """
    num, den = x.numerator, x.denominator
    if num == 0:
        raise ValueError("the split of zero is undefined")
    a, u = _square_split(abs(num))
    b, v = _square_split(den) if den > 1 else (1, 1)
    D0, f_num, f_den = (a if num > 0 else -a) * b, u, b * v   # x = D0 (u / (b v))^2
    if D0 % 4 != 1:   # the discriminant is 4 D0, and f halves
        D0, f_num, f_den = (4 * D0, u // 2, f_den) if u % 2 == 0 else (4 * D0, u, 2 * f_den)
    if D0 * f_num * f_num * den != num * f_den * f_den:
        raise ArithmeticError(f"the split of {_printable(num)}/{_printable(den)} as D0 f^2 "
                              f"does not multiply back")
    return D0, f_num, f_den


def _square_split(n: int) -> tuple[int, int]:
    """(core, root) with n = core root^2 and core squarefree; a square n is not factored."""
    root = isqrt(n)
    if root * root == n:
        return 1, root
    core = root = 1
    for p, e in _prime_powers(n):
        if e % 2:
            core *= p
        if e > 1:
            root *= p ** (e // 2)
    return core, root


def is_fundamental_discriminant(D: int) -> bool:
    # D = 1 (mod 4), or D = 4 d with d = 2, 3 (mod 4), before D is factored
    return D != 1 and (D % 4 == 1 or D % 16 in (8, 12)) and disc_split(D)[0] == D


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


class QHalfPower:
    """An exact scalar coeff * q^(half_exp / 2) relative to a fixed q.

    The package's local quantities are products and quotients of such
    scalars at one place, so at one q, and that is all the class does: it
    multiplies, divides and compares a QHalfPower with another at the same
    q.  A product or quotient with one at another q raises ``ValueError``,
    and with anything else, an int or a ``Fraction`` included, ``TypeError``;
    ``==`` with either is False.  There is no addition: ``a + b`` raises
    ``TypeError``, so mixing half-powers is an error rather than an
    approximation.  The canonical zero has coeff = 0 and half_exp = 0.
    Values whose half-exponents differ by an odd amount are never equal
    (for prime q, sqrt(q) is irrational).  The class defines ``__eq__`` and
    no ``__hash__``, so it is unhashable.  It is not a tuple: a tuple base
    would make ``a + b`` concatenate and ``a < b`` compare.
    """

    __slots__ = ("coeff", "half_exp", "q")

    def __init__(self, coeff: RationalLike, half_exp: int, q: int):
        if not isinstance(coeff, Fraction):
            coeff = Fraction(coeff)
        if q < 1:
            raise ValueError("q must be a positive integer")
        self.coeff = coeff
        self.half_exp = half_exp if coeff else 0
        self.q = q

    # -- canonical value key at q: absorb the even part of the exponent --
    def _key(self):
        k, parity = divmod(self.half_exp, 2)
        c = self.coeff
        if k > 0:
            c *= self.q ** k
        elif k < 0:
            c /= self.q ** -k
        return c, parity

    def __eq__(self, other):
        if not isinstance(other, QHalfPower) or other.q != self.q:
            return NotImplemented   # so == is False and != is True
        return self._key() == other._key()

    def as_fraction(self) -> Fraction:
        """Exact rational value; error if an odd power of sqrt(q) remains."""
        if self.half_exp % 2:
            raise ValueError("value contains an odd power of sqrt(q)")
        return self.coeff * Fraction(self.q) ** (self.half_exp // 2)

    def __mul__(self, other):
        self._same_q(other)
        return QHalfPower(self.coeff * other.coeff, self.half_exp + other.half_exp, self.q)

    def __truediv__(self, other):
        self._same_q(other)
        if other.coeff == 0:
            raise ZeroDivisionError("division by zero")
        return QHalfPower(self.coeff / other.coeff, self.half_exp - other.half_exp, self.q)

    def _same_q(self, other) -> None:
        if not isinstance(other, QHalfPower):
            raise TypeError(f"a QHalfPower takes no {type(other).__name__} operand")
        if self.q != other.q:
            raise ValueError(f"mismatched residue cardinalities {self.q} and {other.q}")


def qhalf(coeff: RationalLike, q: int, half_exp: int = 0) -> QHalfPower:
    return QHalfPower(coeff, half_exp, q)


def to_json(x):
    """x as JSON data: the one place that decides how a value is printed.

    A Fraction prints as "n/d", or "n" when integral, and a QHalfPower as
    its coefficient's parts, as strings, with q and half_exp.  An enum
    prints its value.  A record (a NamedTuple) prints the dict of its
    fields, or of its ``_json()`` when it defines one, and lists, tuples
    and dict values are converted in turn.  Anything else, such as an int,
    float, str, bool or None, is returned as it is, so JSON data converts
    to itself.
    """
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, QHalfPower):
        return {"coeff_num": str(x.coeff.numerator), "coeff_den": str(x.coeff.denominator),
                "q": x.q, "half_exp": x.half_exp}
    if isinstance(x, Enum):
        return x.value
    if isinstance(x, tuple) and hasattr(x, "_fields"):
        x = x._json() if hasattr(x, "_json") else x._asdict()
    if isinstance(x, dict):
        return {k: to_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_json(v) for v in x]
    return x

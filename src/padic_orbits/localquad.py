"""Quadratic etale algebras over Q_p: classification, L-factors, torus volumes.

For squarefree d, the algebra Q_p(sqrt d) is split, an unramified field, or a
ramified field.  The maximal compact subgroup of the associated rank-2 torus
(the unit group of the algebra) has an exact closed-form volume with respect
to the character volume form; this module emits those volumes in every
normalization together with the local Artin L-factor bookkeeping.  Each
closed form is built as one Fraction of two integer polynomials in p, such as
(p - 1)(p - chi(p)) / p^2, not as a chain of rational operations like
(1 - 1/p)(1 - chi(p)/p).
"""

import enum
from fractions import Fraction
from typing import NamedTuple, Optional

from .exact import (
    QHalfPower,
    _ord,
    _require_prime,
    disc_split,
    is_squarefree,
)


class QuadKind(enum.Enum):
    SPLIT = "Split"
    UNRAMIFIED = "Unramified"
    RAMIFIED = "Ramified"


class P2Detail(enum.Enum):
    # Ramified-at-2 subcases: d an odd non-square unit, or d twice a unit.
    UNIT_NON_SQUARE = "UnitNonSquare"
    TWICE_UNIT = "TwiceUnit"


class _LocalQuadType(NamedTuple):
    kind: QuadKind
    p2_detail: Optional[P2Detail] = None


class LocalQuadType(_LocalQuadType):
    __slots__ = ()

    def __new__(cls, kind: QuadKind, p2_detail: Optional[P2Detail] = None):
        if p2_detail is not None and kind is not QuadKind.RAMIFIED:
            raise ValueError("p2_detail only applies to the ramified kind")
        return super().__new__(cls, kind, p2_detail)


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n >= 1.  Every caller passes a prime p or a
    residue 1 <= r <= |disc|; n = 0 raises ValueError and n < 0 is not defined."""
    e = (n & -n).bit_length() - 1   # n = 2^e m with m odd
    n >>= e
    result = 1
    if e:
        if a % 2 == 0:
            return 0
        if e % 2 and a % 8 in (3, 5):
            result = -1
    # Jacobi symbol (a/n) for odd n >= 1 by quadratic reciprocity.
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def classify_quad(d: int, p: int) -> LocalQuadType:
    """Classify Q_p(sqrt d) for squarefree d != 0, 1."""
    _require_prime(p)
    if d in (0, 1) or not is_squarefree(d):
        raise ValueError(f"d = {d} must be squarefree and != 0, 1")
    return _classify(d, p)


def _classify(d: int, p: int) -> LocalQuadType:
    # classify_quad for a d and p already checked
    if p == 2:
        r = d % 8
        if r == 1:
            return LocalQuadType(QuadKind.SPLIT)
        if r == 5:
            return LocalQuadType(QuadKind.UNRAMIFIED)
        detail = P2Detail.TWICE_UNIT if d % 2 == 0 else P2Detail.UNIT_NON_SQUARE
        return LocalQuadType(QuadKind.RAMIFIED, detail)
    if d % p == 0:
        return LocalQuadType(QuadKind.RAMIFIED)
    return LocalQuadType(QuadKind.SPLIT if kronecker_symbol(d, p) == 1 else QuadKind.UNRAMIFIED)


def artin_L_at_1(t: LocalQuadType, q: int) -> Fraction:
    """L-factor at s=1 of the Galois action on the rank-2 character lattice.

    Split: (1 - 1/q)^-2 = q^2 / (q - 1)^2.  Unramified: Frobenius swaps the
    coordinates, (1 - 1/q^2)^-1 = q^2 / (q^2 - 1).  Ramified: inertia
    invariants have rank one with trivial Frobenius action,
    (1 - 1/q)^-1 = q / (q - 1).  Each is one Fraction of two integers.
    """
    if t.kind is QuadKind.SPLIT:
        return Fraction(q * q, (q - 1) ** 2)
    if t.kind is QuadKind.UNRAMIFIED:
        return Fraction(q * q, q * q - 1)
    return Fraction(q, q - 1)


def norm1_artin_L_at_1(t: LocalQuadType, q: int) -> Fraction:
    """Same L-factor for the rank-1 norm-one subtorus T^1.  L-factors multiply
    along the exact sequence 1 -> T^1 -> T -> G_m -> 1 (the norm map), and
    L(G_m) = q / (q - 1), so this is q / (q - 1) split, q / (q + 1)
    unramified and 1 ramified."""
    return artin_L_at_1(t, q) * Fraction(q - 1, q)


class TorusVolumeReport(NamedTuple):
    """Volume data for the maximal compact subgroup of the unit-group torus."""

    kind: QuadKind
    p2_detail: Optional[P2Detail]
    vol_omega_T_Tc: QHalfPower
    L_factor_at_1: Fraction
    vol_canonical_T0: Fraction
    index_Tc_over_T0: int
    index_unverified: bool = False


def res_torus_volume(t: LocalQuadType, p: int) -> TorusVolumeReport:
    """Exact vol of T^c for the unit-group torus, in both normalizations.

    For p = 2 the |2| = 1/2 prefactor enters; whether 1/sqrt(q) also appears
    depends on whether d itself carries the ramification (TwiceUnit) or only
    the discriminant does (UnitNonSquare, where sqrt(d) is a unit).  Each
    coefficient is one Fraction of two integers: (1 - 1/p)^2 is
    (p - 1)^2 / p^2, and (1 - 1/p)(1 + 1/p) is (p^2 - 1) / p^2.
    """
    _require_prime(p)
    vol = _unit_group_volume(t, p)
    L = artin_L_at_1(t, p)
    index = 1  # the standard model of the unit-group torus is its Neron model
    unverified = p == 2 and t.kind is QuadKind.RAMIFIED
    return TorusVolumeReport(t.kind, t.p2_detail, vol, L, Fraction(L.denominator, L.numerator),
                             index, unverified)


def _unit_group_volume(t: LocalQuadType, p: int) -> QHalfPower:
    # vol_omega(T^c) of res_torus_volume, for a p already checked
    if t.kind is QuadKind.SPLIT:
        return QHalfPower(Fraction((p - 1) ** 2, p * p), 0, p)
    if t.kind is QuadKind.UNRAMIFIED:
        return QHalfPower(Fraction(p * p - 1, p * p), 0, p)
    if p != 2:
        return QHalfPower(Fraction(p - 1, p), -1, p)
    if t.p2_detail is None:
        raise ValueError("ramified type at p = 2 needs its p2_detail subcase")
    if t.p2_detail is P2Detail.TWICE_UNIT:
        # |2 sqrt(d)| = (1/2) q^(-1/2)
        return QHalfPower(Fraction(p - 1, 2 * p), -1, p)
    # d is a unit: |2 sqrt(d)| = 1/2 and no half power survives
    return QHalfPower(Fraction(p - 1, 2 * p), 0, p)


def norm1_volume(t: LocalQuadType, p: int) -> QHalfPower:
    """vol of the full (compact) norm-one torus, odd residue characteristic.

    Unramified: 1 + 1/q.  Ramified: 2/sqrt(q).  At p = 2 the closed form is
    not assembled here; use the point-count module's raw solution counts.
    """
    _require_prime(p)
    if p == 2:
        raise ValueError(
            "norm-one volumes at p = 2 are not assembled in closed form; "
            "use pointcount.volume_profile / digit_table for the raw counts"
        )
    if t.kind is QuadKind.UNRAMIFIED:
        return QHalfPower(Fraction(p + 1, p), 0, p)
    if t.kind is QuadKind.RAMIFIED:
        return QHalfPower(Fraction(2), -1, p)
    raise ValueError("norm-one volume is stated for the unramified and ramified kinds")


class Norm1VolumeReport(NamedTuple):
    kind: QuadKind
    p2_detail: Optional[P2Detail]
    vol_omega_T_Tc: QHalfPower
    L_factor_at_1: Fraction
    vol_canonical_T0: Fraction
    index_Tc_over_T0: int


def norm1_report(t: LocalQuadType, p: int) -> Norm1VolumeReport:
    """Norm-one torus volume with its L-factor and component index (odd p)."""
    vol = norm1_volume(t, p)
    L = norm1_artin_L_at_1(t, p)
    index = 2 if t.kind is QuadKind.RAMIFIED else 1
    return Norm1VolumeReport(t.kind, t.p2_detail, vol, L, Fraction(L.denominator, L.numerator),
                             index)


def field_disc(d: int) -> int:
    """The fundamental discriminant of Q(sqrt d), and the one gate of a
    negative squarefree d.  d is factored once, by ``disc_split``: it is
    squarefree exactly when the split's D0 is d for d = 1 (mod 4) and 4 d
    otherwise, and then D0 is the discriminant."""
    if d >= 0 or (disc := disc_split(d)[0]) != (d if d % 4 == 1 else 4 * d):
        raise ValueError("d must be a negative squarefree integer")
    return disc


def classnum_local_check(d: int, p: int) -> bool:
    """Exact check of vol(O_v^x) = (1 - 1/p) L_p(1, chi)^-1 |Delta|_p^(1/2).

    The right side is one scalar: the coefficient (1 - 1/p)(1 - chi(p)/p) is
    the Fraction (p - 1)(p - chi(p)) / p^2, and |Delta|_p^(1/2) is the
    half-exponent -ord_p(Delta).  d is gated and factored once, by
    ``field_disc``, which returns Delta.  p is tested for primality once;
    chi(p) is then the Kronecker symbol (Delta/p), and the closed form and
    the valuation are read without checking either again.
    """
    disc = field_disc(d)
    _require_prime(p)
    lhs = _unit_group_volume(_classify(d, p), p)
    chi = kronecker_symbol(disc, p)
    rhs = QHalfPower(Fraction((p - 1) * (p - chi), p * p), -_ord(disc, p), p)
    return lhs == rhs

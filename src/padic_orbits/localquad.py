"""Quadratic etale algebras over Q_p: classification, L-factors, torus volumes.

For squarefree d, the algebra Q_p(sqrt d) is split, an unramified field, or a
ramified field.  The maximal compact subgroup of the associated rank-2 torus
(the unit group of the algebra) has an exact closed-form volume with respect
to the character volume form; this module emits those volumes in every
normalization together with the local Artin L-factor bookkeeping.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import (
    QHalfPower,
    _require_prime,
    frac_to_json,
    fundamental_discriminant,
    is_fundamental_discriminant,
    is_squarefree,
    ord_p,
    qhalf,
)


class QuadKind(enum.Enum):
    SPLIT = "Split"
    UNRAMIFIED = "Unramified"
    RAMIFIED = "Ramified"


class P2Detail(enum.Enum):
    # Ramified-at-2 subcases: d an odd non-square unit, or d twice a unit.
    UNIT_NON_SQUARE = "UnitNonSquare"
    TWICE_UNIT = "TwiceUnit"


@dataclass(frozen=True)
class LocalQuadType:
    kind: QuadKind
    p2_detail: Optional[P2Detail] = None

    def __post_init__(self):
        if self.p2_detail is not None and self.kind is not QuadKind.RAMIFIED:
            raise ValueError("p2_detail only applies to the ramified kind")


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a/n), defined for all integers n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    if e:
        if a % 2 == 0:
            return 0
        if e % 2 and a % 8 in (3, 5):
            sign = -sign
    # Jacobi symbol (a/n) for odd n >= 1 by quadratic reciprocity.
    a %= n
    result = sign
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


def chi_at_p(disc: int, p: int) -> int:
    """Quadratic character value at p: +1 split, -1 inert, 0 ramified."""
    _require_prime(p)
    if not is_fundamental_discriminant(disc):
        raise ValueError(f"{disc} is not a fundamental discriminant")
    return kronecker_symbol(disc, p)


def artin_L_at_1(t: LocalQuadType, q: int) -> Fraction:
    """L-factor at s=1 of the Galois action on the rank-2 character lattice.

    Split: (1 - 1/q)^-2.  Unramified: Frobenius swaps the coordinates,
    (1 - 1/q^2)^-1.  Ramified: inertia invariants have rank one with trivial
    Frobenius action, (1 - 1/q)^-1.
    """
    q = Fraction(q)
    if t.kind is QuadKind.SPLIT:
        return 1 / (1 - 1 / q) ** 2
    if t.kind is QuadKind.UNRAMIFIED:
        return 1 / (1 - 1 / q ** 2)
    return 1 / (1 - 1 / q)


def norm1_artin_L_at_1(t: LocalQuadType, q: int) -> Fraction:
    """Same L-factor for the rank-1 norm-one subtorus."""
    q = Fraction(q)
    if t.kind is QuadKind.SPLIT:
        return 1 / (1 - 1 / q)
    if t.kind is QuadKind.UNRAMIFIED:
        return 1 / (1 + 1 / q)
    return Fraction(1)  # inertia invariants vanish


@dataclass(frozen=True)
class TorusVolumeReport:
    """Volume data for the maximal compact subgroup of the unit-group torus."""

    local_type: LocalQuadType
    vol_omega_T_Tc: QHalfPower
    L_factor_at_1: Fraction
    vol_canonical_T0: Fraction
    index_Tc_over_T0: int
    index_unverified: bool = False

    def to_json(self) -> dict:
        return {
            "kind": self.local_type.kind.value,
            "p2_detail": self.local_type.p2_detail.value if self.local_type.p2_detail else None,
            "vol_omega_T_Tc": self.vol_omega_T_Tc.to_json(),
            "L_factor_at_1": frac_to_json(self.L_factor_at_1),
            "vol_canonical_T0": frac_to_json(self.vol_canonical_T0),
            "index_Tc_over_T0": self.index_Tc_over_T0,
            "index_unverified": self.index_unverified,
        }


def res_torus_volume(t: LocalQuadType, p: int) -> TorusVolumeReport:
    """Exact vol of T^c for the unit-group torus, in both normalizations.

    For p = 2 the |2| = 1/2 prefactor enters; whether 1/sqrt(q) also appears
    depends on whether d itself carries the ramification (TwiceUnit) or only
    the discriminant does (UnitNonSquare, where sqrt(d) is a unit).
    """
    _require_prime(p)
    q = Fraction(p)
    one_minus = 1 - 1 / q
    if t.kind is QuadKind.SPLIT:
        vol = qhalf(one_minus ** 2, p)
    elif t.kind is QuadKind.UNRAMIFIED:
        vol = qhalf(one_minus * (1 + 1 / q), p)
    elif p != 2:
        vol = qhalf(one_minus, p, half_exp=-1)
    elif t.p2_detail is None:
        raise ValueError("ramified type at p = 2 needs its p2_detail subcase")
    elif t.p2_detail is P2Detail.TWICE_UNIT:
        # |2 sqrt(d)| = (1/2) q^(-1/2)
        vol = qhalf(one_minus / 2, p, half_exp=-1)
    else:
        # d is a unit: |2 sqrt(d)| = 1/2 and no half power survives
        vol = qhalf(one_minus / 2, p)
    L = artin_L_at_1(t, p)
    index = 1  # the standard model of the unit-group torus is its Neron model
    unverified = p == 2 and t.kind is QuadKind.RAMIFIED
    return TorusVolumeReport(t, vol, L, 1 / L, index, unverified)


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
        return qhalf(1 + Fraction(1, p), p)
    if t.kind is QuadKind.RAMIFIED:
        return qhalf(2, p, half_exp=-1)
    raise ValueError("norm-one volume is stated for the unramified and ramified kinds")


@dataclass(frozen=True)
class Norm1VolumeReport:
    local_type: LocalQuadType
    vol_omega_T_Tc: QHalfPower
    L_factor_at_1: Fraction
    vol_canonical_T0: Fraction
    index_Tc_over_T0: int

    def to_json(self) -> dict:
        return {
            "kind": self.local_type.kind.value,
            "p2_detail": self.local_type.p2_detail.value if self.local_type.p2_detail else None,
            "vol_omega_T_Tc": self.vol_omega_T_Tc.to_json(),
            "L_factor_at_1": frac_to_json(self.L_factor_at_1),
            "vol_canonical_T0": frac_to_json(self.vol_canonical_T0),
            "index_Tc_over_T0": self.index_Tc_over_T0,
        }


def norm1_report(t: LocalQuadType, p: int) -> Norm1VolumeReport:
    """Norm-one torus volume with its L-factor and component index (odd p)."""
    vol = norm1_volume(t, p)
    L = norm1_artin_L_at_1(t, p)
    index = 2 if t.kind is QuadKind.RAMIFIED else 1
    return Norm1VolumeReport(t, vol, L, 1 / L, index)


def classnum_local_check(d: int, p: int) -> bool:
    """Exact check of vol(O_v^x) = (1 - 1/p) L_p(1, chi)^-1 |Delta|_p^(1/2)."""
    if d >= 0 or not is_squarefree(d):
        raise ValueError("d must be a negative squarefree integer")
    t = classify_quad(d, p)
    lhs = res_torus_volume(t, p).vol_omega_T_Tc
    disc = fundamental_discriminant(d)
    chi = chi_at_p(disc, p)
    l_inv = 1 - Fraction(chi, p)
    half_disc_abs = QHalfPower(Fraction(1), -ord_p(disc, p), p)
    rhs = qhalf((1 - Fraction(1, p)) * l_inv, p) * half_disc_abs
    return lhs == rhs

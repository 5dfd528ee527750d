"""Weyl discriminants, conjugation-invariant coordinate maps, and Jacobians.

Discriminants are computed from exact eigenvalue data for the general linear
and symplectic families (group and Lie algebra versions), together with the
rank-1 and rank-2 invariant-coordinate maps whose Jacobian identities drive
the measure conversions elsewhere in the package.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact import (
    QHalfPower,
    _require_prime,
    fundamental_discriminant,
    ord_p,
    squarefree_part,
)
from .localquad import QuadKind, classify_quad


class GroupKind(enum.Enum):
    GLN = "gln"
    SP2N = "sp2n"
    GSP2N = "gsp2n"
    SLN_LIE = "sl-lie"
    SP2N_LIE = "sp-lie"


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalue data of a regular semisimple element.

    For the symplectic families only the first n eigenvalues are given; the
    rest are nu/lambda (group) or -lambda (Lie algebra).  ``multiplier`` is
    the similitude character value nu and is required exactly for GSP2N.
    """

    group: GroupKind
    eigenvalues: tuple[Fraction, ...]
    multiplier: Optional[Fraction] = None

    def __post_init__(self):
        eigs = tuple(Fraction(x) for x in self.eigenvalues)
        object.__setattr__(self, "eigenvalues", eigs)
        if not eigs:
            raise ValueError("need at least one eigenvalue")
        if self.group is GroupKind.GSP2N:
            if self.multiplier is None:
                raise ValueError("GSp requires the multiplier nu")
            object.__setattr__(self, "multiplier", Fraction(self.multiplier))
            if self.multiplier == 0:
                raise ValueError("multiplier must be nonzero")
        elif self.multiplier is not None:
            raise ValueError("multiplier only applies to GSp")
        if self.group in (GroupKind.GLN, GroupKind.SP2N, GroupKind.GSP2N):
            if any(x == 0 for x in eigs):
                raise ValueError("group eigenvalues must be nonzero")
        if self.group is GroupKind.SLN_LIE and sum(eigs) != 0:
            raise ValueError("sl eigenvalues must sum to zero")

    def full_spectrum(self) -> tuple[Fraction, ...]:
        if self.group in (GroupKind.GLN, GroupKind.SLN_LIE):
            return self.eigenvalues
        if self.group is GroupKind.SP2N_LIE:
            return self.eigenvalues + tuple(-x for x in self.eigenvalues)
        nu = Fraction(1) if self.group is GroupKind.SP2N else self.multiplier
        return self.eigenvalues + tuple(nu / x for x in self.eigenvalues)


def _require_regular(spectrum: Sequence[Fraction]) -> None:
    if len(set(spectrum)) != len(spectrum):
        raise ValueError("not regular semisimple: repeated eigenvalue")


def weyl_disc(s: SpectralData) -> Fraction:
    """Signed Weyl discriminant det(1 - Ad) or det(ad) on g/t, exactly.

    Group cases use the multiplicative root-value products; the Lie algebra
    cases multiply the root values directly (for sp_2n the roots are
    +-(li - lj), +-(li + lj), +-2 li).
    """
    full = s.full_spectrum()
    _require_regular(full)
    eigs = s.eigenvalues
    if s.group is GroupKind.GLN:
        out = Fraction(1)
        for i, a in enumerate(eigs):
            for j, b in enumerate(eigs):
                if i != j:
                    out *= 1 - a / b
        return out
    if s.group is GroupKind.SLN_LIE:
        out = Fraction(1)
        for i, a in enumerate(eigs):
            for j, b in enumerate(eigs):
                if i != j:
                    out *= a - b
        return out
    if s.group is GroupKind.SP2N_LIE:
        out = Fraction(1)
        n = len(eigs)
        for i in range(n):
            for j in range(i + 1, n):
                for root in (eigs[i] - eigs[j], eigs[j] - eigs[i],
                             eigs[i] + eigs[j], -eigs[i] - eigs[j]):
                    out *= root
        for x in eigs:
            out *= (2 * x) * (-2 * x)
        return out
    nu = Fraction(1) if s.group is GroupKind.SP2N else s.multiplier
    out = Fraction(1)
    n = len(eigs)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = eigs[i], eigs[j]
            out *= (1 - a / b) * (1 - b / a) * (1 - a * b / nu) * (1 - nu / (a * b))
    for x in eigs:
        out *= (1 - x * x / nu) * (1 - nu / (x * x))
    return out


# --------------------------------------------------------------------------
# GL2 class data from characteristic polynomial coefficients


class OrbitKind(enum.Enum):
    HYPERBOLIC = "Hyperbolic"
    UNRAM_ELLIPTIC = "UnramElliptic"
    RAM_ELLIPTIC = "RamElliptic"


_KIND_FROM_QUAD = {
    QuadKind.SPLIT: OrbitKind.HYPERBOLIC,
    QuadKind.UNRAMIFIED: OrbitKind.UNRAM_ELLIPTIC,
    QuadKind.RAMIFIED: OrbitKind.RAM_ELLIPTIC,
}


@dataclass(frozen=True)
class Gl2OrbitClass:
    kind: OrbitKind
    d: int
    q: int

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("depth d must be nonnegative")
        _require_prime(self.q)

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "d": self.d, "q": self.q}


def delta_abs_gl2(trace: Fraction, det: Fraction, p: int) -> tuple[QHalfPower, Gl2OrbitClass]:
    """|D(gamma)|_p and the orbit class of a regular semisimple GL2 element.

    The discriminant tr^2 - 4 det factors as f^2 * D0 with D0 the fundamental
    discriminant of its square class; the depth is d = ord_p(f) and the
    reported absolute value is q^-(2d + ord_p D0), the Weyl discriminant of
    the class normalized to unit determinant.  Inputs whose conductor f has
    negative valuation (eigenvalues outside the standard lattice setting)
    are rejected.
    """
    _require_prime(p)
    trace, det = Fraction(trace), Fraction(det)
    disc = trace * trace - 4 * det
    if disc == 0:
        raise ValueError("not regular semisimple: zero discriminant")
    d0 = squarefree_part(disc)
    if d0 == 1:
        delta0, kind = 1, OrbitKind.HYPERBOLIC
    else:
        delta0 = fundamental_discriminant(d0)
        kind = _KIND_FROM_QUAD[classify_quad(d0, p).kind]
    conductor_sq = disc / delta0  # always a square of a rational
    d_gamma = ord_p(conductor_sq, p)
    if d_gamma % 2:
        raise ArithmeticError(
            f"conductor^2 = {conductor_sq} has odd valuation at p = {p} "
            f"(trace {trace}, det {det})")
    d_gamma //= 2
    if d_gamma < 0:
        raise ValueError("inconsistent valuation data: negative depth")
    ord_delta0 = ord_p(delta0, p) if delta0 != 1 else 0
    abs_D = QHalfPower(Fraction(1), -2 * (2 * d_gamma + ord_delta0), p)
    return abs_D, Gl2OrbitClass(kind, d_gamma, p)


# --------------------------------------------------------------------------
# Rank-1 and rank-2 invariant coordinate maps


def steinberg_sl2(t: Fraction) -> Fraction:
    """Trace coordinate of diag(t, 1/t); the regular locus is a != +-2."""
    t = Fraction(t)
    if t == 0:
        raise ValueError("t must be nonzero")
    return t + 1 / t


def sl2_jacobian(t: Fraction) -> Fraction:
    """Derivative of the trace coordinate, 1 - t^-2 (hand-derived)."""
    t = Fraction(t)
    if t == 0:
        raise ValueError("t must be nonzero")
    return 1 - t ** -2


def chevalley_sl2_lie(x: Fraction, y: Fraction, z: Fraction) -> Fraction:
    """Invariant coordinate det [[z/2, x], [y, -z/2]] = -z^2/4 - x y."""
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    return -z * z / 4 - x * y


def steinberg_sp4(t1: Fraction, t2: Fraction) -> tuple[Fraction, Fraction]:
    """Invariant coordinates (a, b) of diag(t1, t2, 1/t1, 1/t2) in Sp4."""
    t1, t2 = Fraction(t1), Fraction(t2)
    if t1 == 0 or t2 == 0:
        raise ValueError("torus coordinates must be nonzero")
    a = t1 + t2 + 1 / t1 + 1 / t2
    b = t1 * t2 + t2 / t1 + t1 / t2 + 1 / (t1 * t2) + 2
    return a, b


def sp4_jacobian(t1: Fraction, t2: Fraction) -> Fraction:
    """Closed-form Jacobian (1 - t1^-2)(1 - t2^-2)(1 - (t1 t2)^-1)(t1 - t2)."""
    t1, t2 = Fraction(t1), Fraction(t2)
    if t1 == 0 or t2 == 0:
        raise ValueError("torus coordinates must be nonzero")
    return (1 - t1 ** -2) * (1 - t2 ** -2) * (1 - 1 / (t1 * t2)) * (t1 - t2)


def _sp4_jacobian_from_partials(t1: Fraction, t2: Fraction) -> Fraction:
    # Hand-derived partial derivatives of (a, b); no symbolic engine.
    da_dt1 = 1 - t1 ** -2
    da_dt2 = 1 - t2 ** -2
    db_dt1 = t2 - t2 / t1 ** 2 + 1 / t2 - 1 / (t1 ** 2 * t2)
    db_dt2 = t1 - t1 / t2 ** 2 + 1 / t1 - 1 / (t1 * t2 ** 2)
    return da_dt1 * db_dt2 - da_dt2 * db_dt1


@dataclass(frozen=True)
class Sp4IdentityCheck:
    jacobian_matches: bool
    omega_matches: bool
    omega_sign: int  # realized sign in omega_T = (+-) Delta * da ^ db

    @property
    def ok(self) -> bool:
        return self.jacobian_matches and self.omega_matches

    def to_json(self) -> dict:
        return {
            "jacobian_matches": self.jacobian_matches,
            "omega_matches": self.omega_matches,
            "omega_sign": self.omega_sign,
        }


def sp4_identity_check(t1: Fraction, t2: Fraction) -> Sp4IdentityCheck:
    """Exact Jacobian and volume-form identities at a regular point of Sp4.

    Verifies (i) the determinant of the hand-derived partials equals the
    closed-form Jacobian, and (ii) the coefficient identity
    1/(t1 t2) = (+-) rho * Jac / prod_{alpha > 0} (1 - alpha), which is the
    coefficientwise form of omega_T = (+-) Delta(gamma) da ^ db.  The sign
    depends on coordinate ordering and is reported, not fixed.
    """
    t1, t2 = Fraction(t1), Fraction(t2)
    jac = sp4_jacobian(t1, t2)
    pos_product = (1 - t1 / t2) * (1 - t1 * t2) * (1 - t1 * t1) * (1 - t2 * t2)
    if jac == 0 or pos_product == 0:
        raise ValueError("degenerate torus element: identity check needs a regular point")
    jac_ok = jac == _sp4_jacobian_from_partials(t1, t2)
    rho = t1 * t1 * t2
    rhs = rho * jac / pos_product
    lhs = 1 / (t1 * t2)
    if lhs == rhs:
        return Sp4IdentityCheck(jac_ok, True, 1)
    if lhs == -rhs:
        return Sp4IdentityCheck(jac_ok, True, -1)
    return Sp4IdentityCheck(jac_ok, False, 0)


def gsp_charpoly_factor(n: int, det_gamma: Fraction, D_abs: QHalfPower, p: int) -> QHalfPower:
    """The scaling |D|^(1/2) |det|^(-(n+1)/4) of the char-poly normalization.

    Defined only when the exponent lands in the half-integer lattice of the
    scalar algebra; otherwise raises (e.g. n = 2 with odd det valuation).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    _require_prime(p)
    if D_abs.q != p:
        raise ValueError("D_abs is relative to a different residue cardinality")
    det_gamma = Fraction(det_gamma)
    if det_gamma == 0:
        raise ValueError("determinant must be nonzero")
    t = ord_p(det_gamma, p)
    if ((n + 1) * t) % 2 != 0:
        raise ValueError("value outside Q(sqrt q) scalar algebra: quarter-integral exponent")
    det_factor = QHalfPower(Fraction(1), (n + 1) * t // 2, p)
    return D_abs.sqrt() * det_factor

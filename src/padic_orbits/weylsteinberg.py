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
from typing import Optional

from .exact import (
    _PRINT_BITS,
    _PRINT_WORK,
    QHalfPower,
    _check_budget,
    _require_prime,
    abs_p,
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


def _positive_roots(s: SpectralData) -> list[Fraction]:
    """Values alpha(gamma) of the positive roots; the negative roots take the
    inverse values (groups) or the negated values (Lie algebras)."""
    eigs = s.eigenvalues
    pairs = [(a, b) for i, a in enumerate(eigs) for b in eigs[i + 1:]]
    if s.group is GroupKind.GLN:
        return [a / b for a, b in pairs]
    if s.group is GroupKind.SLN_LIE:
        return [a - b for a, b in pairs]
    if s.group is GroupKind.SP2N_LIE:
        return [r for a, b in pairs for r in (a - b, a + b)] + [2 * x for x in eigs]
    nu = Fraction(1) if s.group is GroupKind.SP2N else s.multiplier
    return [r for a, b in pairs for r in (a / b, a * b / nu)] + [x * x / nu for x in eigs]


def weyl_disc(s: SpectralData) -> Fraction:
    """Signed Weyl discriminant det(1 - Ad) or det(ad) on g/t, exactly.

    The product over the positive roots of (1 - alpha)(1 - 1/alpha) for the
    groups and of alpha * (-alpha) = -alpha^2 for the Lie algebras.  A factor
    vanishes (alpha = 1, resp. alpha = 0) exactly when two entries of the full
    spectrum coincide, so D(gamma) != 0 is the regularity test.

    Before any root is built, D is held to the print budget by an O(n) bound
    on its bits above and below the bar.  Let h(x) sum the bit lengths of
    x's numerator and denominator, with nu = 1 outside GSp.  The factor of a
    root from eigenvalues x and y, or from x alone, takes at most
    2 (h(x) + h(y) + h(nu)), or 2 (2 h(x) + h(nu)), bits above and below, so
    the R positive roots take at most 2 R (2 max h + h(nu)).
    """
    eigs = s.eigenvalues
    h = [x.numerator.bit_length() + x.denominator.bit_length()
         for x in (s.multiplier or Fraction(1), *eigs)]
    symplectic = s.group in (GroupKind.SP2N, GroupKind.GSP2N, GroupKind.SP2N_LIE)
    roots = len(eigs) * (len(eigs) - 1) // 2 * (1 + symplectic) + len(eigs) * symplectic
    _check_budget("a bound on the bits of D(gamma) at {} eigenvalues",
                  2 * roots * (2 * max(h[1:]) + h[0]), _PRINT_BITS, _PRINT_WORK, len(eigs))
    lie = s.group in (GroupKind.SLN_LIE, GroupKind.SP2N_LIE)
    out = Fraction(1)
    for a in _positive_roots(s):
        out *= -a * a if lie else (1 - a) * (1 - 1 / a)
    if out == 0:
        raise ValueError("not regular semisimple: repeated eigenvalue")
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
        _check_budget("bits of q^(d+2) (d = {}, q = {})", (self.d + 2) * self.q.bit_length(),
                      _PRINT_BITS, _PRINT_WORK, self.d, self.q)
        object.__setattr__(self, "q", _require_prime(self.q))

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "d": self.d, "q": self.q}


def delta_abs_gl2(trace: Fraction, det: Fraction, p: int) -> tuple[QHalfPower, Gl2OrbitClass]:
    """|D(gamma)|_p and the orbit class of a regular semisimple GL2 element.

    The discriminant tr^2 - 4 det factors as f^2 * D0 with D0 the fundamental
    discriminant of its square class; the depth is d = ord_p(f) and the
    reported absolute value is |disc|_p = q^-(2d + ord_p D0), the Weyl
    discriminant of the class normalized to unit determinant.  Inputs whose
    conductor f has negative valuation (eigenvalues outside the standard
    lattice setting) are rejected.
    """
    p = _require_prime(p)
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
    return abs_p(disc, p), Gl2OrbitClass(kind, d_gamma, p)


# --------------------------------------------------------------------------
# Rank-1 and rank-2 invariant coordinate maps


_ONE = Fraction(1)  # 1/t stays exact for int t


class _Dual:
    """Dual numbers a + b eps with eps^2 = 0: exact forward derivatives.

    The parts are kept as given (int or Fraction), so a map written with
    +, * and 1/x evaluates to its value and derivative in one pass.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __add__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.a + o.a, self.b + o.b)
        return _Dual(self.a + o, self.b)

    __radd__ = __add__

    def __mul__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.a * o.a, self.a * o.b + self.b * o.a)
        return _Dual(self.a * o, self.b * o)

    __rmul__ = __mul__

    def __rtruediv__(self, o):
        """o / self for a rational o: the derivative of o/x is -o x'/x^2."""
        r = o / self.a
        return _Dual(r, -self.b * r / self.a)


def steinberg_sl2(t):
    """Trace coordinate t + 1/t of diag(t, 1/t); the regular locus is a != +-2.

    Exact for int and Fraction t; a ``_Dual`` t also carries the derivative
    1 - t^-2.  t^2 times it, or times either closed form of it that criterion
    9 checks, is a polynomial of degree 2.
    """
    if t == 0:
        raise ValueError("t must be nonzero")
    return t + _ONE / t


def sl2_jacobian(t: Fraction) -> Fraction:
    """Derivative of the trace coordinate, 1 - t^-2 (hand-derived)."""
    t = Fraction(t)
    if t == 0:
        raise ValueError("t must be nonzero")
    return 1 - t ** -2


def steinberg_sp4(t1, t2):
    """Invariant coordinates (a, b) of diag(t1, t2, 1/t1, 1/t2) in Sp4.

    The characteristic polynomial is (X^2 - s1 X + 1)(X^2 - s2 X + 1) with
    s_i = t_i + 1/t_i, so (a, b) = (s1 + s2, s1 s2 + 2).  Its dual-number
    Jacobian is s1' s1 s2' - s2' s1' s2 with s_i' = 1 - t_i^-2; times
    t1^3 t2^3 its terms have degrees (4, 3) and (3, 4) in (t1, t2).
    """
    s1, s2 = steinberg_sl2(t1), steinberg_sl2(t2)
    return s1 + s2, s1 * s2 + 2


def sp4_jacobian(t1: Fraction, t2: Fraction) -> Fraction:
    """Closed-form Jacobian (1 - t1^-2)(1 - t2^-2)(1 - (t1 t2)^-1)(t1 - t2)."""
    t1, t2 = Fraction(t1), Fraction(t2)
    if t1 == 0 or t2 == 0:
        raise ValueError("torus coordinates must be nonzero")
    return (1 - t1 ** -2) * (1 - t2 ** -2) * (1 - 1 / (t1 * t2)) * (t1 - t2)


@dataclass(frozen=True)
class Sp4IdentityCheck:
    jacobian_matches: bool
    omega_matches: bool
    omega_sign: int  # realized sign in omega_T = (+-) Delta * da ^ db

    @property
    def ok(self) -> bool:
        return self.jacobian_matches and self.omega_matches


def sp4_identity_check(t1: Fraction, t2: Fraction) -> Sp4IdentityCheck:
    """Exact Jacobian and volume-form identities at a regular point of Sp4.

    Verifies (i) the Jacobian of ``steinberg_sp4``, differentiated with dual
    numbers, equals the closed form, and (ii) the coefficient identity
    1/(t1 t2) = (+-) rho * Jac / prod_{alpha > 0} (1 - alpha), which is the
    coefficientwise form of omega_T = (+-) Delta(gamma) da ^ db.  The sign
    depends on coordinate ordering and is reported, not fixed.

    Cleared of denominators, both have degree at most 4 in each variable:
    t1^3 t2^3 Jac = (t1^2 - 1)(t2^2 - 1)(t1 t2 - 1)(t1 - t2), and times
    t1 t2^2 prod, (ii) reads t2 prod = (+-) t1^3 t2^3 Jac.
    """
    t1, t2 = Fraction(t1), Fraction(t2)
    jac = sp4_jacobian(t1, t2)
    pos_product = (1 - t1 / t2) * (1 - t1 * t2) * (1 - t1 * t1) * (1 - t2 * t2)
    if jac == 0 or pos_product == 0:
        raise ValueError("degenerate torus element: identity check needs a regular point")
    # One dual pass per variable gives a column of d(a, b)/d(t1, t2).
    a1, b1 = steinberg_sp4(_Dual(t1, 1), t2)
    a2, b2 = steinberg_sp4(t1, _Dual(t2, 1))
    jac_ok = jac == a1.b * b2.b - a2.b * b1.b
    rho = t1 * t1 * t2
    rhs = rho * jac / pos_product
    lhs = 1 / (t1 * t2)
    if lhs == rhs:
        return Sp4IdentityCheck(jac_ok, True, 1)
    if lhs == -rhs:
        return Sp4IdentityCheck(jac_ok, True, -1)
    return Sp4IdentityCheck(jac_ok, False, 0)

"""Weyl discriminants, conjugation-invariant coordinate maps, and Jacobians.

Discriminants are computed from exact eigenvalue data for the general linear
and symplectic families (group and Lie algebra versions), together with the
rank-1 and rank-2 invariant-coordinate maps whose Jacobian identities drive
the measure conversions elsewhere in the package.

The maps are differentiated with dual numbers whose value and derivative are
integer numerators over one shared denominator, so no step of a map takes a
gcd.  The closed forms they are checked against are built from the integer
numerators and denominators of the point, and each identity is compared once,
by cross-multiplying integers.
"""

import enum
from fractions import Fraction
from typing import NamedTuple, Optional

from .exact import (
    _PRINT_BITS,
    _PRINT_WORK,
    _check_budget,
    _ord,
    _require_prime,
)
from .localquad import QuadKind, _classify


class GroupKind(enum.Enum):
    GLN = "gln"
    SP2N = "sp2n"
    GSP2N = "gsp2n"
    SLN_LIE = "sl-lie"
    SP2N_LIE = "sp-lie"


class _SpectralData(NamedTuple):
    group: GroupKind
    eigenvalues: tuple[Fraction, ...]
    multiplier: Optional[Fraction] = None


class SpectralData(_SpectralData):
    """Eigenvalue data of a regular semisimple element.

    For the symplectic families only the first n eigenvalues are given; the
    rest are nu/lambda (group) or -lambda (Lie algebra).  ``multiplier`` is
    the similitude character value nu and is required exactly for GSP2N.
    """

    __slots__ = ()

    def __new__(cls, group: GroupKind, eigenvalues, multiplier: Optional[Fraction] = None):
        eigs = tuple(Fraction(x) for x in eigenvalues)
        if not eigs:
            raise ValueError("need at least one eigenvalue")
        if group is GroupKind.GSP2N:
            if multiplier is None:
                raise ValueError("GSp requires the multiplier nu")
            multiplier = Fraction(multiplier)
            if multiplier == 0:
                raise ValueError("multiplier must be nonzero")
        elif multiplier is not None:
            raise ValueError("multiplier only applies to GSp")
        if group in (GroupKind.GLN, GroupKind.SP2N, GroupKind.GSP2N):
            if any(x == 0 for x in eigs):
                raise ValueError("group eigenvalues must be nonzero")
        if group is GroupKind.SLN_LIE and sum(eigs) != 0:
            raise ValueError("sl eigenvalues must sum to zero")
        return super().__new__(cls, group, eigs, multiplier)


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


class _Gl2OrbitClass(NamedTuple):
    kind: OrbitKind
    d: int
    q: int


class Gl2OrbitClass(_Gl2OrbitClass):
    __slots__ = ()

    def __new__(cls, kind: OrbitKind, d: int, q: int):
        if d < 0:
            raise ValueError("depth d must be nonnegative")
        _check_budget("bits of q^(d+2) (d = {}, q = {})", (d + 2) * q.bit_length(),
                      _PRINT_BITS, _PRINT_WORK, d, q)
        return super().__new__(cls, kind, d, _require_prime(q))


def class_from_split(D0: int, f_num: int, f_den: int, p: int) -> Gl2OrbitClass:
    """The class at a prime p of an element whose discriminant is D0 (f_num / f_den)^2.

    The kind is that of Q_p(sqrt D0), which ``_classify`` reads off D0 as off
    its squarefree part (split for D0 = 1), and the depth is d = ord_p(f).  A
    conductor of negative valuation (eigenvalues off the lattice) is rejected.
    """
    d = _ord(f_num, p) - _ord(f_den, p)
    if d < 0:
        raise ValueError("inconsistent valuation data: negative depth")
    return Gl2OrbitClass(_KIND_FROM_QUAD[_classify(D0, p).kind], d, p)


# --------------------------------------------------------------------------
# Rank-1 and rank-2 invariant coordinate maps


_ONE = Fraction(1)  # 1/t stays exact for int t


class _Dual:
    """Dual numbers (n + m eps) / den with eps^2 = 0: exact forward derivatives.

    The value n/den and the derivative m/den are integer numerators over one
    shared positive integer denominator, so a map written with +, * and 1/x
    evaluates to its value and derivative in one pass.  No step reduces the
    denominator: a sum brings both operands over the product of theirs, a
    product multiplies them, and 1/x is den (n - m eps) / n^2.  Each step
    costs a few integer multiplications and no gcd; the maps take a handful
    of steps, so the integers stay small.  ``b`` reads the derivative as a
    reduced Fraction; the value is n/den.
    """

    __slots__ = ("n", "m", "den")

    def __init__(self, a, b, den=1):
        """(a + b eps) / den for int or Fraction a and b; the steps pass integers."""
        p, q = a.denominator, b.denominator
        self.n, self.m, self.den = a.numerator * q, b.numerator * p, den * p * q

    @property
    def b(self) -> Fraction:
        return Fraction(self.m, self.den)

    def __add__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.n * o.den + o.n * self.den, self.m * o.den + o.m * self.den,
                         self.den * o.den)
        p, q = o.numerator, o.denominator
        return _Dual(self.n * q + p * self.den, self.m * q, self.den * q)

    __radd__ = __add__

    def __mul__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.n * o.n, self.n * o.m + self.m * o.n, self.den * o.den)
        p, q = o.numerator, o.denominator
        return _Dual(self.n * p, self.m * p, self.den * q)

    __rmul__ = __mul__

    def __rtruediv__(self, o):
        """o / self for a rational o: o den (n - m eps) / n^2, whose derivative
        is -o x'/x^2."""
        if not self.n:
            raise ZeroDivisionError("1/x at a dual number of value 0")
        p = o.numerator * self.den
        return _Dual(p * self.n, -p * self.m, o.denominator * self.n * self.n)


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
    """Derivative of the trace coordinate, 1 - t^-2 (hand-derived).

    At t = p/q it is (p^2 - q^2)/p^2, one Fraction from integers.
    """
    p, q = t.numerator, t.denominator
    if not p:
        raise ValueError("t must be nonzero")
    return Fraction(p * p - q * q, p * p)


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
    """Closed-form Jacobian (1 - t1^-2)(1 - t2^-2)(1 - (t1 t2)^-1)(t1 - t2).

    At t_i = p_i/q_i the four factors are (p1^2 - q1^2)/p1^2,
    (p2^2 - q2^2)/p2^2, (p1 p2 - q1 q2)/(p1 p2) and (p1 q2 - p2 q1)/(q1 q2):
    one Fraction from integers.
    """
    p1, q1, p2, q2 = t1.numerator, t1.denominator, t2.numerator, t2.denominator
    if not p1 or not p2:
        raise ValueError("torus coordinates must be nonzero")
    return Fraction((p1 * p1 - q1 * q1) * (p2 * p2 - q2 * q2) * (p1 * p2 - q1 * q2)
                    * (p1 * q2 - p2 * q1), p1 ** 3 * p2 ** 3 * q1 * q2)


class Sp4IdentityCheck(NamedTuple):
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

    The dual passes carry integer numerators over one denominator, the root
    product and rho are numerators and denominators in t_i = p_i/q_i, and
    the closed form is the one Fraction ``sp4_jacobian`` returns; each
    identity is one comparison of cross-multiplied integers.
    """
    jac = sp4_jacobian(t1, t2)
    p1, q1, p2, q2 = t1.numerator, t1.denominator, t2.numerator, t2.denominator
    # 1 - alpha at alpha = t1/t2, t1 t2, t1^2, t2^2, over p2 q1^4 q2^3
    prod_num = ((p2 * q1 - p1 * q2) * (q1 * q2 - p1 * p2)
                * (q1 * q1 - p1 * p1) * (q2 * q2 - p2 * p2))
    if not jac or not prod_num:
        raise ValueError("degenerate torus element: identity check needs a regular point")
    # One dual pass per variable gives a column of d(a, b)/d(t1, t2).  A
    # step's denominator never reads a derivative, so both passes give a and
    # b the same denominators, and a1' b2' - a2' b1' is over a1.den b1.den.
    a1, b1 = steinberg_sp4(_Dual(t1, 1), _Dual(t2, 0))
    a2, b2 = steinberg_sp4(_Dual(t1, 0), _Dual(t2, 1))
    det = a1.m * b2.m - a2.m * b1.m
    jac_ok = det * jac.denominator == jac.numerator * a1.den * b1.den
    # rho Jac / prod with rho = t1^2 t2, against 1/(t1 t2) = q1 q2 / (p1 p2)
    coeff_num = p1 * p1 * p2 * jac.numerator * p2 * q1 ** 4 * q2 ** 3
    coeff_den = q1 * q1 * q2 * jac.denominator * prod_num
    lhs, rhs = q1 * q2 * coeff_den, p1 * p2 * coeff_num
    if lhs == rhs:
        return Sp4IdentityCheck(jac_ok, True, 1)
    if lhs == -rhs:
        return Sp4IdentityCheck(jac_ok, True, -1)
    return Sp4IdentityCheck(jac_ok, False, 0)

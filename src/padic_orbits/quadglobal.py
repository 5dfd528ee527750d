"""Imaginary quadratic global invariants and the assembled global identity.

Class numbers come from reduced-form enumeration (two independent scan
orders), L(1, chi) from complete-period partial sums with a proven tail
bound, and the global check ties the finite-adelic volume h/w to the
archimedean side through the local orbital reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .exact import (
    _prime_powers,
    frac_to_json,
    fundamental_discriminant,
    is_fundamental_discriminant,
    is_prime,
    is_squarefree,
    squarefree_part,
)
from .gl2local import full_report
from .localquad import kronecker_symbol


def _check_disc(D: int) -> None:
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a negative discriminant (0 or 1 mod 4)")


@dataclass(frozen=True)
class ReducedForm:
    """A primitive reduced binary quadratic form a x^2 + b x y + c y^2.

    Reduced means |b| <= a <= c with b >= 0 when |b| = a or a = c; each
    proper equivalence class of forms of negative discriminant contains
    exactly one reduced representative.
    """

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0 or self.discriminant >= 0:
            raise ValueError("positive definite forms only")
        if not (abs(self.b) <= self.a <= self.c):
            raise ValueError("form is not reduced")
        if self.b < 0 and (abs(self.b) == self.a or self.a == self.c):
            raise ValueError("form is not reduced (boundary sign)")
        if gcd(gcd(self.a, abs(self.b)), self.c) != 1:
            raise ValueError("form is not primitive")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


def reduced_forms(D: int) -> list[ReducedForm]:
    """All primitive reduced forms of discriminant D < 0, by middle coefficient."""
    _check_disc(D)
    out = []
    b = abs(D) % 2
    while 3 * b * b <= abs(D):
        m = (b * b - D) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                if gcd(gcd(a, b), c) == 1:
                    out.append(ReducedForm(a, b, c))
                    if not (b == 0 or b == a or a == c):
                        out.append(ReducedForm(a, -b, c))
            a += 1
        b += 2
    return sorted(out, key=lambda f: (f.a, -f.b, f.c))


def class_number(D: int) -> int:
    """Class number of the order of discriminant D < 0: #(reduced forms)."""
    return len(reduced_forms(D))


def class_number_scan(D: int) -> int:
    """Independent recount: scan leading coefficients and test b^2 = D mod 4a."""
    _check_disc(D)
    count = 0
    a = 1
    while 3 * a * a <= abs(D):
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a:
                continue
            if b < 0 and a == c:
                continue
            if gcd(gcd(a, abs(b)), c) == 1:
                count += 1
        a += 1
    return count


def hurwitz_hw(D: int) -> Fraction:
    """Class number weighted by half the unit count: h/3 at -3, h/2 at -4, else h."""
    u = 3 if D == -3 else 2 if D == -4 else 1
    return Fraction(class_number(D), u)


@dataclass(frozen=True)
class QuadFieldData:
    d: int
    disc: int
    w: int
    h: int

    def to_json(self) -> dict:
        return {"d": self.d, "disc": self.disc, "w": self.w, "h": self.h}


def quad_field_data(d: int) -> QuadFieldData:
    if d >= 0 or not is_squarefree(d):
        raise ValueError("d must be a negative squarefree integer")
    disc = fundamental_discriminant(d)
    w = 4 if d == -1 else 6 if d == -3 else 2
    return QuadFieldData(d, disc, w, class_number(disc))


def finite_adelic_volume(K: QuadFieldData) -> Fraction:
    """vol of the finite idele class double quotient: h/w."""
    return Fraction(K.h, K.w)


def _digamma(x: float) -> float:
    """psi(x) for x > 0: the recurrence up to x >= 16, then the asymptotic series."""
    shift = 0.0
    while x < 16:
        shift += 1 / x
        x += 1
    t = 1 / (x * x)
    # sum of B_2j / (2j x^2j) for j = 1..7; the next term is below 1e-19 at x = 16
    series = t * (1 / 12 - t * (1 / 120 - t * (1 / 252 - t * (
        1 / 240 - t * (1 / 132 - t * (691 / 32760 - t / 12))))))
    return math.log(x) - 0.5 / x - series - shift


def dirichlet_L1(disc: int, terms: int) -> tuple[float, float]:
    """Partial sum of sum chi(n)/n over complete character periods.

    Returns (value, bound) where the bound |Delta|/M covers the alternating
    block tail; M is the largest multiple of |Delta| not exceeding `terms`.
    The sum is taken one residue class r mod |Delta| at a time: with
    B = M/|Delta| and x_r = r/|Delta|, the class contributes
    chi(r) (psi(B + x_r) - psi(x_r)) / |Delta|, so the work is 2|Delta|
    digamma values whatever the budget (Cohen, GTM 138, section 5.3).
    """
    if not is_fundamental_discriminant(disc):
        raise ValueError(f"{disc} is not a fundamental discriminant")
    period = abs(disc)
    if terms < period:
        raise ValueError("term budget must be at least |disc|")
    blocks = terms // period
    M = blocks * period
    value = math.fsum(
        chi * (_digamma(blocks + r / period) - _digamma(r / period))
        for r in range(1, period + 1)
        if (chi := kronecker_symbol(disc, r))
    ) / period
    return value, period / M


def cnf_target(K: QuadFieldData) -> float:
    return 2 * math.pi * K.h / (K.w * math.sqrt(abs(K.disc)))


@dataclass(frozen=True)
class CnfReport:
    field: QuadFieldData
    terms: int
    L_value: float
    err_bound: float
    target: float
    residual: float

    @property
    def ok(self) -> bool:
        return self.residual <= self.err_bound + 1e-12

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "terms": self.terms,
            "L_value": self.L_value,
            "err_bound": self.err_bound,
            "target_2pi_h_over_w_sqrt_disc": self.target,
            "residual": self.residual,
            "ok": self.ok,
        }


def cnf_report(d: int, terms: int) -> CnfReport:
    K = quad_field_data(d)
    value, bound = dirichlet_L1(K.disc, terms)
    target = cnf_target(K)
    return CnfReport(K, terms, value, bound, target, abs(value - target))


# --------------------------------------------------------------------------
# Global identity


@dataclass(frozen=True)
class GlobalIdentityReport:
    trace: int
    det: int
    field: QuadFieldData
    conductor: int
    primes_S: tuple[int, ...]
    local_canonical: dict
    off_S_samples: dict
    product_O_can: Fraction
    lhs: float
    rhs: float
    L_value: float
    L_err_bound: float
    residual: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.residual <= self.bound

    def to_json(self) -> dict:
        return {
            "trace": self.trace,
            "det": self.det,
            "field": self.field.to_json(),
            "conductor": self.conductor,
            "primes_S": list(self.primes_S),
            "local_canonical": self.local_canonical,
            "off_S_samples": self.off_S_samples,
            "product_O_can": frac_to_json(self.product_O_can),
            "lhs_vol_times_O_can": self.lhs,
            "rhs_disc_over_2pi_times_O_geom": self.rhs,
            "L_value": self.L_value,
            "L_err_bound": self.L_err_bound,
            "relative_residual": self.residual,
            "bound": self.bound,
            "ok": self.ok,
        }


def global_identity_check(trace: int, det: int, terms: int = 10 ** 6) -> GlobalIdentityReport:
    """Volume-times-orbital identity for a rational elliptic GL2 element.

    LHS: (h/w) * prod_{p in S} O_can_p with S the primes dividing disc * det.
    RHS: the archimedean |D|^(1/2)/(2 pi) times the geometric integral
    assembled from the product of local conversions; after the product
    formula this is sqrt|disc| L(1, chi) / (2 pi) times the same O_can
    product, so the relative residual measures the analytic class number
    formula with every exact local factor in place.
    """
    disc = trace * trace - 4 * det
    if disc >= 0:
        raise ValueError("need an elliptic element: trace^2 - 4 det < 0")
    d0 = squarefree_part(Fraction(disc))
    K = quad_field_data(d0)
    conductor_sq = Fraction(disc, K.disc)
    conductor = isqrt(conductor_sq.numerator)
    if conductor_sq.denominator != 1 or conductor * conductor != conductor_sq.numerator:
        raise ValueError("discriminant is not conductor^2 times a fundamental discriminant")

    S = sorted({p for n in (disc, det) for p, _ in _prime_powers(n)})
    local = {}
    prod_o_can = Fraction(1)
    for p in S:
        rep = full_report(Fraction(trace), Fraction(det), p)
        local[str(p)] = rep.to_json()
        prod_o_can *= rep.O_canonical

    off_samples = {}
    p, found = 2, 0
    while found < 5:
        if is_prime(p) and disc % p and det % p:
            rep = full_report(Fraction(trace), Fraction(det), p)
            off_samples[str(p)] = frac_to_json(rep.O_canonical)
            if rep.O_canonical != 1:
                raise ArithmeticError(f"off-S canonical integral != 1 at p = {p}")
            found += 1
        p += 1

    L_value, L_bound = dirichlet_L1(K.disc, terms)
    lhs = float(finite_adelic_volume(K) * prod_o_can)
    rhs = math.sqrt(abs(K.disc)) * L_value * float(prod_o_can) / (2 * math.pi)
    residual = abs(lhs - rhs) / abs(rhs)
    bound = L_bound / L_value + 1e-12
    return GlobalIdentityReport(
        trace, det, K, conductor, tuple(S), local, off_samples,
        prod_o_can, lhs, rhs, L_value, L_bound, residual, bound,
    )

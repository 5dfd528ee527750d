"""Imaginary quadratic global invariants and the assembled global identity.

Class numbers come from one integer walk over the reduced forms of a
discriminant, primitive or not, which gives h(D) by counting the primitive
forms.  The walk sieves: it factors every norm (b^2 - D)/4 with
3 b^2 <= |D| at once, by the primes up to sqrt(|D|/3) and the square roots
of D modulo each, and reads the leading coefficients off the divisors, in
O(sqrt|D| log log |D|) work.  The trace formula's Hurwitz class numbers
6 H(4n - t^2), for every t with t^2 < 4n at once, come from one O(n) sweep
over leading coefficients that looks each 4n - t^2 up in a table of
b^2 mod 4a and weights every reduced form it finds; it shares no code with
the walk.  An O(|D|) a-first scan of leading coefficients recounts h(D)
independently, sets the one |D| cap of 10^8, and shares only the input
check with the walk: once the |D| cap has passed, it builds one table of
the norms (b^2 - D)/4 for 0 <= b <= sqrt(|D|/3), b = D (mod 2), and for
each a tests a | (b^2 - D)/4 on a prefix of it inside filterfalse.  The
test sees b^2 only, so one hit counts b and -b exactly.  L(1, chi) comes
from complete-period partial sums truncated at the one constant
L_TERMS = 10^6, with a proven tail bound, and the global check ties the
finite-adelic volume h/w to the archimedean side through the local orbital
reports.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, filterfalse, islice, repeat
from math import gcd, isqrt
from operator import mod

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


# The one cap of every class-number entry point.  The walk sieves in
# O(sqrt|D| log log |D|); the a-first scan is O(|D|), and it sets the cap.
_DISC_CAP = 10 ** 8
_ROW_CAP = 10 ** 6
# Every class number formula check sums chi(n)/n to L_TERMS terms.
L_TERMS = 10 ** 6
_L_DISC_CAP = 10 ** 6


def _check_disc(D: int) -> None:
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a negative discriminant (0 or 1 mod 4)")
    if -D > _DISC_CAP:
        raise ValueError(
            f"|D| must be at most {_DISC_CAP}: the independent scan, class_number_scan, "
            "does O(|D|) work and sets the cap"
        )


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of a modulo the odd prime p, for a square a (Tonelli-Shanks).

    For p = 3 (mod 4) it is a^((p+1)/4).  Otherwise write p - 1 = q 2^s with
    q odd and start from r = a^((q+1)/2) and t = a^q, so that r^2 = a t; each
    step multiplies r by a power f of c = z^q, z the least non-residue, and t
    by f^2, which lowers the order of t until t = 1.
    """
    a %= p
    if p % 4 == 3 or a == 0:
        return pow(a, (p + 1) // 4, p)
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        f = pow(c, 1 << (s - i - 1), p)
        s, c = i, f * f % p
        t, r = t * c % p, r * f % p
    return r


def _reduced_triples(D: int):
    """Yield (a, b, c) with b >= 0 for every reduced form of discriminant D,
    primitive or not, by middle coefficient b and then leading coefficient a.

    A reduced form has 3 b^2 <= 4 a c - b^2 = |D| and b = D mod 2; for each
    such b, the a with b <= a <= sqrt(m) dividing m = (b^2 - D) / 4 give
    c = m / a >= a.  The norms m are factored together by a sieve: an odd
    prime ell divides m_b exactly when b^2 = D (mod ell), so when
    (D/ell) != -1 its hits are the b = +-sqrt(D) (mod ell), two progressions
    of step ell (one when ell | D), and each hit lists ell under its b.
    Only the ell <= sqrt(|D|/3) are sieved: m <= |D|/3, so what they leave
    of m is 1 or one prime above sqrt(m), which divides no a.  The divisors
    a <= sqrt(m) are then built from 2 and the listed primes, each taken as
    often as it divides m.  The work is O(sqrt|D| log log |D|) plus the
    divisor lists.
    """
    _check_disc(D)
    top = isqrt(-D // 3)
    parity = D % 2
    bs = range(parity, top + 1, 2)
    primes = [[] for _ in bs]   # the odd primes of each norm
    odd = bytearray([1]) * (top + 1)   # odd[ell] for odd ell: ell is prime
    for p in range(3, isqrt(top) + 1, 2):
        if odd[p]:
            odd[p * p::2 * p] = bytes(len(range(p * p, top + 1, 2 * p)))
    for ell in compress(range(3, top + 1, 2), odd[3::2]):
        d = D % ell
        if pow(d, ell >> 1, ell) == ell - 1:   # (D/ell) = -1: no hit
            continue
        r = _sqrt_mod(d, ell)
        half = (ell + 1) >> 1   # 1/2 mod ell: b = parity + 2 i is bs[i]
        for start in {(r - parity) * half % ell, (-r - parity) * half % ell}:
            for hit in primes[start::ell]:
                hit.append(ell)
    for b, ells in zip(bs, primes):
        m = (b * b - D) // 4
        root = isqrt(m)
        divisors = [1]
        for ell in (2, *ells):
            layer, rest = divisors, m
            while not rest % ell:
                rest //= ell
                layer = [x * ell for x in layer if x * ell <= root]
                divisors += layer
        divisors.sort()
        lo = b or 1
        for a in divisors:
            if a >= lo:
                yield a, b, m // a


def class_number(D: int) -> int:
    """Class number of the order of discriminant D < 0: #(primitive reduced forms).

    Counted on the sieved walk without building forms: a primitive triple
    stands for one form on the boundary (b = 0, b = a or a = c) and for the
    two forms (a, +-b, c) off it.  |D| <= 10^8, the cap the scan needs.
    """
    return sum(
        1 if b == 0 or b == a or a == c else 2
        for a, b, c in _reduced_triples(D)
        if gcd(a, b, c) == 1
    )


def hurwitz6_row(n: int) -> list[int]:
    """[6 H(4n - t^2) for 0 <= t <= isqrt(4n - 1)], every D_t = t^2 - 4n at once.

    H(N) counts the classes of all positive definite forms of discriminant
    -N, primitive or not, those of a (x^2 + y^2) weighted 1/2 and those of
    a (x^2 + x y + y^2) weighted 1/3 (Cohen, GTM 138, section 5.3); it equals
    the sum of h(D/f^2)/u(D/f^2) over the f with D/f^2 a discriminant.

    One sweep over the leading coefficient a, with 3 a^2 <= 4n: a form
    (a, b, c) of discriminant D exists exactly when b^2 = D (mod 4a), so
    the b in [0, a] are grouped by b^2 mod 4a in one dict, and every D_t
    with |D_t| >= 3 a^2 is looked up in it inside map.  A hit b gives
    c = (b^2 - D_t) / 4a, kept when c >= a.  Times 6, (a, 0, a) weighs 3,
    (a, a, a) weighs 2, the other boundary triples (b = 0, b = a or a = c)
    6 and the rest 12, which stand for (a, +-b, c).  The work is O(n), and
    n is capped at 10^6 before anything is allocated.  The row shares no
    code with the walk or the scan.
    """
    if not 1 <= n <= _ROW_CAP:
        raise ValueError(
            f"n must be between 1 and {_ROW_CAP}: the class-number row does O(n) work"
        )
    N = 4 * n
    discs = [t * t - N for t in range(isqrt(N - 1) + 1)]
    row = [0] * len(discs)
    a = 1
    while 3 * a * a <= N:
        m = 4 * a
        roots = {}
        for b in range(a + 1):
            roots.setdefault(b * b % m, []).append(b)
        span = isqrt(N - 3 * a * a) + 1   # the t with |D_t| >= 3 a^2
        hits = list(map(roots.get, map(mod, discs[:span], repeat(m))))
        for t, bs in compress(enumerate(hits), hits):
            D = discs[t]
            for b in bs:
                c = (b * b - D) // m
                if c > a:
                    row[t] += 6 if b == 0 or b == a else 12
                elif c == a:
                    row[t] += 3 if b == 0 else 2 if b == a else 6
        a += 1
    return row


def class_number_scan(D: int) -> int:
    """Independent recount: scan leading coefficients and test b^2 = D mod 4a.

    A reduced form (a, b, c) has -a < b <= a, c >= a and b >= 0 when a = c,
    so 3 a^2 <= |D|, and b^2 = D (mod 4a) forces b = D (mod 2).  The cap is
    checked before the one table is built: the norms m = (b^2 - D) / 4 of
    the b = D (mod 2) with 0 <= b <= sqrt(|D| / 3), 2,887 integers at the
    cap.  For each a the norms of 0 <= b <= a are a prefix of the table,
    and b^2 = D (mod 4a) is a | m, which filterfalse tests with no bytecode
    per candidate.  The +-b symmetry is exact: the test, c = m / a and
    gcd(a, b, c) see b only through b^2 and |b|, so a hit b with 0 < b < a
    stands for b and -b alike, and only the rule b >= 0 when a = c tells
    them apart; b = 0 and b = a have no second candidate in (-a, a].
    """
    _check_disc(D)
    parity = D % 2
    top = isqrt(-D // 3)
    norms = [(b * b - D) // 4 for b in range(parity, top + 1, 2)]
    count = 0
    for a in range(1, top + 1):
        for m in filterfalse(a.__rmod__, islice(norms, (a - parity) // 2 + 1)):
            c = m // a
            if c < a:
                continue
            b = isqrt(4 * m + D)
            if gcd(a, b, c) == 1:
                # (a, b, c), and (a, -b, c) when -b is new and a != c
                count += 2 if 0 < b < a and a != c else 1
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
    digamma values whatever the budget (Cohen, GTM 138, section 5.3), and
    |disc| is capped at 10^6.  The package's callers pass terms = L_TERMS.
    """
    if abs(disc) > _L_DISC_CAP:
        raise ValueError(f"|disc| must be at most {_L_DISC_CAP}: L(1, chi) evaluates "
                         "2|disc| digamma values")
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
            "terms": L_TERMS,
            "L_value": self.L_value,
            "err_bound": self.err_bound,
            "target_2pi_h_over_w_sqrt_disc": self.target,
            "residual": self.residual,
            "ok": self.ok,
        }


def cnf_report(d: int) -> CnfReport:
    K = quad_field_data(d)
    value, bound = dirichlet_L1(K.disc, L_TERMS)
    target = cnf_target(K)
    return CnfReport(K, value, bound, target, abs(value - target))


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


def global_identity_check(trace: int, det: int) -> GlobalIdentityReport:
    """Volume-times-orbital identity for a rational elliptic GL2 element.

    LHS: (h/w) * prod_{p in S} O_can_p with S the primes dividing disc * det.
    RHS: the archimedean |D|^(1/2)/(2 pi) times the geometric integral
    assembled from the product of local conversions; after the product
    formula this is sqrt|disc| L(1, chi) / (2 pi) times the same O_can
    product, so the relative residual measures the analytic class number
    formula with every exact local factor in place.  An element whose O_can
    product, or that product times h/w, lies beyond the largest float is
    refused with a ValueError before the L-value is summed.
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
    volume = finite_adelic_volume(K) * prod_o_can
    if max(volume, prod_o_can) > sys.float_info.max:
        factored = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in _prime_powers(det))
        log2 = [x.numerator.bit_length() - x.denominator.bit_length() for x in (prod_o_can, volume)]
        raise ValueError(
            f"global_identity_check at trace = {trace}, det = {factored}: prod O_can is about "
            f"2^{log2[0]} and (h/w) * prod O_can about 2^{log2[1]}; the float lhs and rhs "
            f"need both within the float range (at most {sys.float_info.max:.6g})")

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

    L_value, L_bound = dirichlet_L1(K.disc, L_TERMS)
    lhs = float(volume)
    rhs = math.sqrt(abs(K.disc)) * L_value * float(prod_o_can) / (2 * math.pi)
    residual = abs(lhs - rhs) / abs(rhs)
    bound = L_bound / L_value + 1e-12
    return GlobalIdentityReport(
        trace, det, K, conductor, tuple(S), local, off_samples,
        prod_o_can, lhs, rhs, L_value, L_bound, residual, bound,
    )

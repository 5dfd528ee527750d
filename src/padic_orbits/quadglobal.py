"""Imaginary quadratic global invariants and the assembled global identity.

Class numbers come from one integer walk over the reduced forms of a
discriminant, primitive or not, which gives h(D) by counting the primitive
forms.  The walk sieves: it factors every norm (b^2 - D)/4 with
3 b^2 <= |D| at once, by the primes up to sqrt(|D|/3) and the square roots
of D modulo each, and reads the leading coefficients off the divisors, in
O(sqrt|D| log log |D|) work.  The trace formula's Hurwitz class numbers
6 H(4n - t^2), for every t with t^2 < 4n at once, come from one O(n) sweep
over leading coefficients a.  weight[r], the number of b mod 2a with
b^2 = r (mod 4a), counts the forms (a, b, c) with -a < b <= a of any
discriminant D = r (mod 4a), and when |D| > 4 a^2 all of them have c > a,
so the bulk of the sweep adds 6 weight[D mod 4a] with a few byte
operations per a and no bytecode per form: a stored gather reads the
weights of half a period, the mirror gives the other half, and the
periods go into 4-byte slots of one integer sum.  Only the band
3 a^2 <= |D| <= 4 a^2 walks its roots b and weighs each reduced form it
finds.  The weights, roots and gathers depend on a only and live in one
grow-only table per process, ``_ROOTS``, of bytes, arrays and itemgetters,
about 190 KiB at n <= 10^4 and 1.5 MiB at the cap n = 10^5.  The row shares
no code with the walk.  An O(|D|) a-first scan of leading coefficients
recounts h(D) independently, sets the one |D| cap of 10^8, and shares only
the input check with the walk: once the |D| cap has passed, it builds one
table of the norms (b^2 - D)/4 for 0 <= b <= sqrt(|D|/3), b = D (mod 2),
and for each a tests a | (b^2 - D)/4 on a prefix of it inside filterfalse.
The test sees b^2 only, so one hit counts b and -b exactly.  An a with no hit
has no root of b^2 = D (mod 4a), nor has any multiple of a, and the scan
never tests those.  L(1, chi) comes from complete-period partial sums
truncated at the one constant L_TERMS = 10^6, with a proven tail bound,
and the global check ties the finite-adelic volume h/w to the archimedean
side through the local orbital reports.
"""

import math
import sys
from array import array
from fractions import Fraction
from itertools import compress, filterfalse, islice
from math import gcd, isqrt
from operator import itemgetter
from struct import iter_unpack
from typing import NamedTuple

from .exact import (
    _check_budget,
    _prime_powers,
    disc_split,
    is_fundamental_discriminant,
    is_prime,
)
from .gl2local import report_for_class
from .localquad import kronecker_symbol
from .weylsteinberg import class_from_split


# The one cap of every class-number entry point.  The walk sieves in
# O(sqrt|D| log log |D|); the a-first scan is O(|D|), and it sets the cap.
_DISC_CAP = 10 ** 8
# The one cap of the trace formula's O(n) class-number work.
_ROW_CAP = 10 ** 5
# (weight, first, nxt, squares) of b^2 mod 4a at index a - 1, for every a up
# to the largest isqrt(4n/3) that hurwitz6_row has built; one list per process
_ROOTS = []
# Every class number formula check sums chi(n)/n to L_TERMS terms.
L_TERMS = 10 ** 6
_L_DISC_CAP = 10 ** 6


def _check_disc(D: int) -> None:
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a negative discriminant (0 or 1 mod 4)")
    _check_budget("|D|", -D, _DISC_CAP,
                  "the independent scan, class_number_scan, does O(|D|) work and sets the cap")


def _check_L_disc(disc: int) -> None:
    _check_budget("|disc|", abs(disc), _L_DISC_CAP, "L(1, chi) evaluates 2|disc| digamma values")


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
    (a, b, c) of discriminant D exists exactly when b^2 = D (mod 4a), and
    b and 2a - b have the same square mod 4a, so weight[r], the number of
    b mod 2a with b^2 = r (mod 4a), counts the forms (a, b, c) with
    -a < b <= a and D = r (mod 4a): 2 for each root 0 < b < a and 1 for
    b = 0 and for b = a.  When |D_t| > 4 a^2 every such form has
    4 a c = b^2 + |D_t| > 4 a^2, so c > a and the form is reduced, and the
    row adds 6 weight[D_t mod 4a].  D_t mod 4a has period 2a in t, and
    D_{2a-t} = D_t (mod 4a), so one period is a half over 0 <= t <= a and
    its mirror.  The half is one gather: with s = -4n mod 4a, the rotation
    rot = weight[s:] + weight[:s] has rot[t^2 mod 4a] = weight[D_t mod 4a],
    and a stored itemgetter over the t^2 mod 4a, 0 <= t <= a, reads them
    into one bytes (at a = 19 it reads t = 20 as well, and the mirror starts
    one t lower: no gather makes a 20-tuple, which CPython 3.11 and 3.12
    never reuse once freed).  The period, repeated over the t with
    |D_t| > 4 a^2, fills one 4-byte little-endian slot per t, and the slots
    of every a are added as one integer, unpacked once at the end.  No slot
    carries: the weights of a sum to 2a, so slot t ends at most the sum
    over a <= top of 2a, top (top + 1) with top = isqrt(4n/3), under 2^18
    at the cap and so under 2^32.  Only the band 3 a^2 <= |D_t| <= 4 a^2
    walks the roots 0 <= b <= a of D_t and keeps c >= a: times 6,
    (a, 0, a) weighs 3, (a, a, a) weighs 2, the other boundary triples
    (b = 0, b = a or a = c) 6 and the rest 12, which stand for
    (a, +-b, c).  The work is O(n), and n is capped at 10^5 before anything
    is allocated.  The row shares no code with the walk or the scan.

    The per-a data depend on a only and are kept in ``_ROOTS``, one
    grow-only table per process, extended to the largest isqrt(4n/3) asked:
    weight as a bytes of length 4a, the roots b <= a of each residue as
    array('H') links, first[r] the least and nxt[b] the next, a + 1 ending
    both, and the itemgetter of the half period.  The getter takes at least
    a + 1 >= 2 residues, so it returns a tuple, and they are int objects
    from one list(range(4 top)), built only when the table grows.  It
    holds about 22 a bytes at a, about 190 KiB at n <= 10^4 and 1.5 MiB at
    the cap: the gathers trade 8 a bytes at a for the per-t arithmetic of
    the bulk.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    _check_budget("n", n, _ROW_CAP, "the class-number row does O(n) work")
    N = 4 * n
    top = isqrt(N // 3)   # the a with 3 a^2 <= N
    if top > len(_ROOTS):
        ints = list(range(4 * top))   # one int object per residue, shared by the getters
        for a in range(len(_ROOTS) + 1, top + 1):
            m = 4 * a
            # the t^2 mod 4a of 0 <= t <= a, and of t = 20 too at a = 19: CPython
            # 3.11 and 3.12 put a freed 20-tuple on a free list that never hands
            # one out, so a 20-item gather per row would keep 2000 of them, 368 KB
            squares = [ints[b * b % m] for b in range(a + 2 if a == 19 else a + 1)]
            weight = bytearray(m)
            first = array("H", [a + 1]) * m
            nxt = array("H", [a + 1]) * (a + 1)
            for b in range(a, -1, -1):
                r = squares[b]
                weight[r] += 1 if b == 0 or b == a else 2
                nxt[b], first[r] = first[r], b
            _ROOTS.append((bytes(weight), first, nxt, itemgetter(*squares)))
    T = isqrt(N - 1) + 1
    discs = [t * t - N for t in range(T)]
    packed = 0   # 4 bytes a t: the forms with c > a of the t with |D_t| > 4 a^2
    row = [0] * T
    for a, (weight, first, nxt, squares) in enumerate(islice(_ROOTS, top), 1):
        m = 4 * a
        bulk = isqrt(N - 4 * a * a - 1) + 1 if a * a < n else 0   # |D_t| > 4 a^2
        if bulk:
            s = -N % m
            half = bytes(squares(weight[s:] + weight[:s]))   # weight[D_t mod 4a], t <= a
            period = half + half[2 * a - len(half):0:-1]   # D_{2a-t} = D_t (mod 4a)
            slots = bytearray(4 * bulk)
            slots[::4] = (period * (bulk // (2 * a) + 1))[:bulk]
            packed += int.from_bytes(slots, "little")
        for t in range(bulk, isqrt(N - 3 * a * a) + 1):   # 3 a^2 <= |D_t| <= 4 a^2
            D = discs[t]
            b = first[D % m]
            while b <= a:
                c = (b * b - D) // m
                if c > a:
                    row[t] += 6 if b == 0 or b == a else 12
                elif c == a:
                    row[t] += 3 if b == 0 else 2 if b == a else 6
                b = nxt[b]
    forms = iter_unpack("<I", packed.to_bytes(4 * T, "little"))   # 1-tuples, never 20
    return [6 * f + x for (f,), x in zip(forms, row)]


def class_number_scan(D: int) -> int:
    """Independent recount: scan leading coefficients and test b^2 = D mod 4a.

    A reduced form (a, b, c) has -a < b <= a, c >= a and b >= 0 when a = c,
    so 3 a^2 <= |D|, and b^2 = D (mod 4a) forces b = D (mod 2).  The cap is
    checked before the one table is built: the norms m = (b^2 - D) / 4 of
    the b = D (mod 2) with 0 <= b <= sqrt(|D| / 3), 2,887 integers at the
    cap.  For each a the norms of 0 <= b <= a are a prefix of the table,
    and b^2 = D (mod 4a) is a | m, which filterfalse tests with no bytecode
    per candidate.  An a with no hit has no root mod 4a, as b and 2a - b
    have the same square mod 4a, and then no multiple ka has one, as a root
    mod 4ka is one mod 4a: its multiples are never tested.  The +-b
    symmetry is exact: the test, c = m / a and gcd(a, b, c) see b only
    through b^2 and |b|, so a hit b with 0 < b < a stands for b and -b
    alike, and only the rule b >= 0 when a = c tells them apart; b = 0 and
    b = a have no second candidate in (-a, a].
    """
    _check_disc(D)
    parity = D % 2
    top = isqrt(-D // 3)
    norms = [(b * b - D) // 4 for b in range(parity, top + 1, 2)]
    alive = bytearray(b"\1") * (top + 1)
    count = 0
    for a in range(1, top + 1):
        if not alive[a]:
            continue
        hits = list(filterfalse(a.__rmod__, islice(norms, (a - parity) // 2 + 1)))
        if not hits:
            alive[2 * a::a] = bytes(top // a - 1)
        for m in hits:
            c = m // a
            if c < a:
                continue
            b = isqrt(4 * m + D)
            if gcd(a, b, c) == 1:
                # (a, b, c), and (a, -b, c) when -b is new and a != c
                count += 2 if 0 < b < a and a != c else 1
    return count


def _roots_of_unity(D: int) -> int:
    """w(D), the roots of unity in the order of discriminant D: 6 at -3, 4 at -4, else 2."""
    return 6 if D == -3 else 4 if D == -4 else 2


def hurwitz_hw(D: int, h: int) -> Fraction:
    """The class number h of D weighted by half its unit count: 2h / w(D)."""
    return Fraction(2 * h, _roots_of_unity(D))


class QuadFieldData(NamedTuple):
    d: int
    disc: int
    w: int
    h: int


def quad_field_data(disc: int) -> QuadFieldData:
    """Q(sqrt d) built from its fundamental discriminant disc < 0, with no
    factoring: d is disc for disc = 1 (mod 4) and disc / 4 otherwise.  The
    callers hold disc already, from ``localquad.field_disc`` or a split."""
    _check_disc(disc)     # every caller sums L(1, chi): both caps refuse
    _check_L_disc(disc)   # before the class number
    d = disc if disc % 4 == 1 else disc // 4
    return QuadFieldData(d, disc, _roots_of_unity(disc), class_number(disc))


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
    _check_L_disc(disc)
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


class CnfReport(NamedTuple):
    field: QuadFieldData
    L_value: float
    err_bound: float
    target: float
    residual: float

    @property
    def ok(self) -> bool:
        return self.residual <= self.err_bound + 1e-12

    def _json(self) -> dict:
        fields = self._asdict()
        fields["target_2pi_h_over_w_sqrt_disc"] = fields.pop("target")
        return {**fields, "terms": L_TERMS, "ok": self.ok}


def cnf_report(K: QuadFieldData) -> CnfReport:
    value, bound = dirichlet_L1(K.disc, L_TERMS)
    target = cnf_target(K)
    return CnfReport(K, value, bound, target, abs(value - target))


# --------------------------------------------------------------------------
# Global identity


class GlobalIdentityReport(NamedTuple):
    trace: int
    det: int
    field: QuadFieldData
    conductor: int
    primes_S: tuple[int, ...]
    local_canonical: dict   # str(p) -> OrbitalReport, for p in S
    off_S_samples: dict     # str(p) -> O_canonical at five primes outside S
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

    def _json(self) -> dict:
        fields = self._asdict()
        fields["lhs_vol_times_O_can"] = fields.pop("lhs")
        fields["rhs_disc_over_2pi_times_O_geom"] = fields.pop("rhs")
        fields["relative_residual"] = fields.pop("residual")
        return {**fields, "ok": self.ok}


def global_identity_check(trace: int, det: int) -> GlobalIdentityReport:
    """Volume-times-orbital identity for a rational elliptic GL2 element.

    LHS: (h/w) * prod_{p in S} O_can_p with S the primes dividing disc * det.
    RHS: the archimedean |D|^(1/2)/(2 pi) times the geometric integral
    assembled from the product of local conversions; after the product
    formula this is sqrt|disc| L(1, chi) / (2 pi) times the same O_can
    product, so the relative residual measures the analytic class number
    formula with every exact local factor in place.  disc is split once, as
    D0 f^2: D0 is the field's discriminant, the conductor is f, and every
    local class, in S and at five primes outside it, is read off the split.
    An element whose O_can product, or that product times h/w, lies beyond
    the largest float is refused with a ValueError before L is summed.
    """
    disc = trace * trace - 4 * det
    if disc >= 0:
        raise ValueError("need an elliptic element: trace^2 - 4 det < 0")
    D0, f, _ = disc_split(disc)   # disc = 0, 1 (mod 4), so f is an integer
    K = quad_field_data(D0)

    S = sorted({p for n in (disc, det) for p, _ in _prime_powers(n)})
    local = {}
    prod_o_can = Fraction(1)
    for p in S:
        rep = report_for_class(class_from_split(D0, f, 1, p))
        local[str(p)] = rep
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
            rep = report_for_class(class_from_split(D0, f, 1, p))
            off_samples[str(p)] = rep.O_canonical
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
        trace, det, K, f, tuple(S), local, off_samples,
        prod_o_can, lhs, rhs, L_value, L_bound, residual, bound,
    )

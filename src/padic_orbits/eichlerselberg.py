"""Level-one trace formula, with an integer power series oracle against it.

The trace of the n-th Hecke operator on weight-k level-one cusp forms is
assembled from an identity term, a class-number-weighted elliptic sum, and a
divisor (hyperbolic) sum.  The elliptic sum depends on n only through the
Hurwitz class numbers, which it reads from one row,
``quadglobal.hurwitz6_row(n)``, in O(n) work; the weight enters only through
U_{k-2}(t, n).  ``hecke_traces`` evaluates every requested weight at one n
against one row and one run of the U recurrence per t.  The oracle side
expands the weight-12 cusp form Delta as an eta product, eta^24 as three
squarings of eta^3.  Every other one-dimensional space S_k is Delta times the
one Eisenstein series E_{k-12}, since M_8, M_10 and M_14 are one-dimensional
(E4^2 = E8, E4 E6 = E10, E4^2 E6 = E14), so each eigenform costs one series
product beyond Delta.  All of it is exact integer arithmetic.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import isqrt
from operator import mul

from .exact import _PRINT_BITS, _PRINT_WORK, _check_budget, frac_to_json
from .quadglobal import hurwitz6_row

# k -> the (power, c) of E_{k-12} for _eisenstein; weight 12 takes no factor.
_ONE_DIM_WEIGHTS = {12: None, 16: (3, 240), 18: (5, -504), 20: (7, 480), 22: (9, -264),
                    26: (13, -24)}
_SERIES_CAP = 10 ** 4
_ORACLE_CAP = 2000


def gegenbauer_like(t: int, n: int, js: Sequence[int]) -> list[int]:
    """[U_j for j in js], with U_0 = 1, U_1 = t, U_j = t U_{j-1} - n U_{j-2}.

    U_j equals (rho^(j+1) - rhobar^(j+1)) / (rho - rhobar) for the roots of
    X^2 - t X + n.  The trace formula asks only for even j = k - 2, and two
    steps of the recurrence compose to one on the even indices,
    U_{j+2} = (t^2 - 2n) U_j - n^2 U_{j-2}, so one run from U_0 visits j/2
    values.  The indices must be even, nonnegative and nondecreasing: the
    run goes up to max(js) and stops at each of them in turn.
    """
    c, d = t * t - 2 * n, n * n
    out = []
    i, a, b = 0, -n, 1   # i, n^2 U_(i-2), U_i, with U_(-2) = -1/n
    for j in js:
        if j < i or j % 2:
            raise ValueError("indices must be even, nonnegative and nondecreasing")
        for _ in range((j - i) // 2):
            a, b = d * b, c * b - a
        out.append(b)
        i = j
    return out


@dataclass(frozen=True)
class TraceTerms:
    k: int
    n: int
    identity_term: Fraction
    elliptic_term: Fraction
    hyperbolic_term: Fraction
    rhs_total: Fraction
    trace: int

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "identity_term": frac_to_json(self.identity_term),
            "elliptic_term": frac_to_json(self.elliptic_term),
            "hyperbolic_term": frac_to_json(self.hyperbolic_term),
            "rhs_total": frac_to_json(self.rhs_total),
            "trace": str(self.trace),
        }


def hecke_traces(n: int, weights: Iterable[int]) -> dict[int, TraceTerms]:
    """Exact traces of T_n on level-one cusp forms of every weight in weights.

    Each weight k must be even and >= 4; the result maps k to its
    ``TraceTerms``, as ``trace_formula(k, n)`` gives them.  The Hurwitz row
    of n is built once for all weights, and for each t one run of the U
    recurrence up to max(k) - 2 gives U_{k-2}(t, n) at every weight.
    """
    ks = sorted(set(weights))
    if not ks or ks[0] < 4 or any(k % 2 for k in ks):
        raise ValueError("weight must be an even integer >= 4")
    _check_budget("bits of n^(k/2) (k = {}, n = {})", ks[-1] // 2 * n.bit_length(),
                  _PRINT_BITS, _PRINT_WORK, ks[-1], n)
    row = hurwitz6_row(n)   # refuses n < 1 and n above its cap before any work
    root = isqrt(n)
    square = root * root == n
    divisors = [d for d in range(1, root + 1) if n % d == 0]
    # U_{k-2}(t, n) at every weight, one list per t of the row.  It is built
    # as a list: on CPython 3.11, zip(*map(...)) fed to sum(map(mul, ...))
    # kept one memory block per call alive, and the process grew with use.
    us_by_t = list(map(gegenbauer_like, range(len(row)), repeat(n), repeat([k - 2 for k in ks])))
    out = {}
    for k, us in zip(ks, zip(*us_by_t)):
        power = n ** (k // 2 - 1)
        elliptic_6 = 2 * sum(map(mul, us, row)) - us[0] * row[0]   # t = 0 once
        divisor_sum = sum(2 * d ** (k - 1) for d in divisors)
        if square:
            divisor_sum -= root ** (k - 1)
        trace_12 = ((k - 1) * power if square else 0) - elliptic_6 - 6 * divisor_sum
        trace, rem = divmod(trace_12, 12)
        if rem:
            raise ArithmeticError(
                f"trace formula integrality violated at k={k}, n={n}: {Fraction(trace_12, 12)}")
        out[k] = TraceTerms(
            k, n,
            Fraction(k - 1, 12) if square else Fraction(0),
            Fraction(-elliptic_6, 12 * power),
            Fraction(-divisor_sum, 2 * power),
            Fraction(trace, power),
            trace,
        )
    return out


def trace_formula(k: int, n: int) -> TraceTerms:
    """Exact trace of T_n on weight-k level-one cusp forms, k even >= 4.

    rhs_total is the normalized n^(1 - k/2) Tr T_n; its three summands keep
    their signs.  The elliptic sum runs over all integers t with t^2 < 4n,
    weighting U_{k-2}(t, n) by the Hurwitz class number H(4n - t^2), the
    weighted class numbers of the orders containing the root of
    X^2 - t X + n.  All of 6H(4n - t^2), t >= 0, come from one O(n) sweep,
    ``hurwitz6_row(n)``, which does not depend on k.  For even k both
    factors are even in t, so t = 0 is summed once and each t > 0 twice.
    The hyperbolic sum of min(d, n/d)^(k-1) over the divisors d of n pairs d
    with n/d, so it walks d <= sqrt(n) only.

    Everything is accumulated as one integer,

        12 Tr T_n = (k - 1) n^(k/2 - 1) [n square]
                    - sum_t U_{k-2}(t, n) 6H(4n - t^2) - 6 sum_{d | n} min(d, n/d)^(k-1),

    and the trace is its quotient by 12.  A nonzero remainder is a hard
    error: it would mean a corrupted constant somewhere.  The four reported
    terms are then each one Fraction of integers over 12, 12 n^(k/2 - 1) or
    2 n^(k/2 - 1).  This is the single-weight case of ``hecke_traces``,
    which shares the row of n among several weights.
    """
    return hecke_traces(n, (k,))[k]


def dim_cusp_forms(k: int) -> int:
    """dim S_k(1) by the classical staircase, as an independent cross-check."""
    if k % 2 or k < 4:
        return 0
    return k // 12 - 1 if k % 12 == 2 else k // 12


# --------------------------------------------------------------------------
# Integer power series oracle


class PowerSeriesZ:
    """Dense integer power series truncated at a fixed order.

    The product is an exact Kronecker substitution: each factor is packed
    into one integer with w-byte slots, the two integers are multiplied once,
    and the low order + 1 slots are read back.  Every coefficient of the full
    product is a sum of at most order + 1 terms, so its absolute value is at
    most (order + 1) * max|a_i| * max|b_j|; w is the least byte count that
    holds that bound plus a sign bit, so no slot carries into the next.
    f * f packs f once and squares the integer.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int):
        if order < 0:
            raise ValueError("order must be nonnegative")
        c = list(coeffs)[: order + 1]
        c += [0] * (order + 1 - len(c))
        self.coeffs = c
        self.order = order

    def __mul__(self, other: "PowerSeriesZ") -> "PowerSeriesZ":
        if self.order != other.order:
            raise ValueError("mismatched truncation orders")
        n = self.order
        top = max(map(abs, self.coeffs))
        bound = (n + 1) * top * (top if other is self else max(map(abs, other.coeffs)))
        if not bound:
            return PowerSeriesZ([], n)
        w = bound.bit_length() // 8 + 1   # bound < 2^(8w - 1)
        slots = w * (n + 1)
        packed = _pack(self.coeffs, w)
        product = packed * (packed if other is self else _pack(other.coeffs, w))
        del packed
        # The low slots hold the product mod 2^(8 slots).  Slot i read as
        # signed is c_i minus the borrow out of slot i - 1, which is 1 exactly
        # when slot i - 1 reads negative, that is when its top byte raw[i - 1]
        # is at least 128; since |c_i| < 2^(8w - 1), every read stays in
        # [-2^(8w - 1), 2^(8w - 1)).  The extra zero byte at the end is
        # raw[-1], so slot 0 has no borrow.
        raw = (product & ((1 << (8 * slots)) - 1)).to_bytes(slots + 1, "little")
        del product
        return PowerSeriesZ(
            [int.from_bytes(raw[i : i + w], "little", signed=True) + (raw[i - 1] > 127)
             for i in range(0, slots, w)], n
        )


def _pack(coeffs: list[int], w: int) -> int:
    # sum c_i 2^(8 w i), as the difference of the positive and negative parts
    zero = bytes(w)
    pos = b"".join(c.to_bytes(w, "little") if c > 0 else zero for c in coeffs)
    neg = b"".join((-c).to_bytes(w, "little") if c < 0 else zero for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _eta_cubed(order: int) -> PowerSeriesZ:
    # prod (1 - q^m)^3 = sum_{k>=0} (-1)^k (2k+1) q^(k(k+1)/2)
    coeffs = [0] * (order + 1)
    k = 0
    while k * (k + 1) // 2 <= order:
        coeffs[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    return PowerSeriesZ(coeffs, order)


def eta_tau(N: int) -> list[int]:
    """tau(1..N) from q * prod (1 - q^m)^24, exact integers; index 0 unused.

    The 24th power is built as the 8th power of the cubed product, whose
    expansion is the sparse Jacobi series, in three series squarings.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    _check_budget("N", N, _SERIES_CAP, "the eta product squares series of N terms")
    res = _eta_cubed(N - 1)
    for _ in range(3):
        res = res * res
    return [0] + res.coeffs  # tau(n) is the q^(n-1) coefficient of the product


def _eisenstein(N: int, power: int, c: int) -> PowerSeriesZ:
    """1 + c * sum_m sigma_power(m) q^m, to order N.

    E_j is (j - 1, -2j / B_j) with B_j the Bernoulli number, so E4 is
    (3, 240), E6 (5, -504), E8 (7, 480), E10 (9, -264) and E14 (13, -24).
    """
    coeffs = [0] * (N + 1)
    for d in range(1, N + 1):
        term = c * d ** power
        for mult in range(d, N + 1, d):
            coeffs[mult] += term
    coeffs[0] = 1
    return PowerSeriesZ(coeffs, N)


def eigenform_coeffs(k: int, N: int) -> list[int]:
    """q-expansion (a_1..a_N) of the normalized eigenform in a one-dimensional
    cusp space: Delta from ``eta_tau``, times E_{k-12} unless k = 12.

    S_k is Delta M_{k-12}, and M_{k-12} is spanned by E_{k-12} for the
    weights here, so the product is the eigenform with a_1 = 1 and takes
    one series product after the three squarings of ``eta_tau``.
    """
    if k not in _ONE_DIM_WEIGHTS:
        raise ValueError(f"space not one-dimensional at weight {k}")
    _check_budget("n", N, _ORACLE_CAP, "the eta/Eisenstein oracle multiplies series of n terms")
    f = PowerSeriesZ(eta_tau(N), N)   # index 0 of eta_tau is 0, the q^0 term
    if _ONE_DIM_WEIGHTS[k]:
        f = f * _eisenstein(N, *_ONE_DIM_WEIGHTS[k])
    if f.coeffs[1] != 1:
        raise ArithmeticError(f"eigenform at weight {k} not normalized: a_1 = {f.coeffs[1]}")
    return f.coeffs[1:]


def oracle_coefficient(k: int, n: int) -> int:
    """Independent expected value for Tr T_n: eigenform coefficient where the
    space is one-dimensional, 0 where it vanishes."""
    if k in _ONE_DIM_WEIGHTS:
        return eigenform_coeffs(k, n)[n - 1]
    if dim_cusp_forms(k) == 0:
        return 0
    raise ValueError(f"no scalar oracle at weight {k}: dim = {dim_cusp_forms(k)}")

"""Level-one trace formula, with an integer power series oracle against it.

The trace of the n-th Hecke operator on weight-k level-one cusp forms is
assembled from an identity term, a class-number-weighted elliptic sum, and a
divisor (hyperbolic) sum.  The oracle side expands the weight-12 cusp form as
an eta product and the one-dimensional spaces as its products with the
weight-4 and weight-6 Eisenstein series, all in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .exact import frac_to_json
from .quadglobal import hurwitz_hw

_ONE_DIM_WEIGHTS = {12: (0, 0), 16: (1, 0), 18: (0, 1), 20: (2, 0), 22: (1, 1), 26: (2, 1)}
_SERIES_CAP = 10 ** 4


def gegenbauer_like(t: int, n: int, j: int) -> int:
    """U_j with U_0 = 1, U_1 = t, U_j = t U_{j-1} - n U_{j-2}.

    Equals (rho^(j+1) - rhobar^(j+1)) / (rho - rhobar) for the roots of
    X^2 - t X + n.
    """
    if j < 0:
        raise ValueError("index must be nonnegative")
    if j == 0:
        return 1
    a, b = 1, t
    for _ in range(j - 1):
        a, b = b, t * b - n * a
    return b


def _weighted_class_sum(disc: int) -> Fraction:
    # sum over m >= 1 with m^2 | disc and disc/m^2 = 0 or 1 mod 4
    total = Fraction(0)
    m = 1
    while m * m <= -disc:
        if disc % (m * m) == 0 and (disc // (m * m)) % 4 in (0, 1):
            total += hurwitz_hw(disc // (m * m))
        m += 1
    return total


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


def trace_formula(k: int, n: int) -> TraceTerms:
    """Exact trace of T_n on weight-k level-one cusp forms, k even >= 4.

    rhs_total is the normalized n^(1 - k/2) Tr T_n; its three summands keep
    their signs.  The elliptic sum runs over all integers t with t^2 < 4n,
    weighting U_{k-2}(t, n) by the weighted class numbers of the orders
    containing the root of X^2 - t X + n.  Non-integral traces are a hard
    error: they would mean a corrupted constant somewhere.
    """
    if k % 2 or k < 4:
        raise ValueError("weight must be an even integer >= 4")
    if n < 1:
        raise ValueError("n must be a positive integer")
    identity = Fraction(k - 1, 12) if isqrt(n) ** 2 == n else Fraction(0)
    scale = Fraction(n) ** (1 - k // 2)
    elliptic_sum = Fraction(0)
    tmax = isqrt(4 * n)
    for t in range(-tmax, tmax + 1):
        if t * t >= 4 * n:
            continue
        elliptic_sum += gegenbauer_like(t, n, k - 2) * _weighted_class_sum(t * t - 4 * n)
    elliptic = -scale * elliptic_sum / 2
    divisor_sum = sum(min(d, n // d) ** (k - 1) for d in range(1, n + 1) if n % d == 0)
    hyperbolic = -scale * Fraction(divisor_sum) / 2
    total = identity + elliptic + hyperbolic
    scaled = total * Fraction(n) ** (k // 2 - 1)
    if scaled.denominator != 1:
        raise ArithmeticError(f"trace formula integrality violated at k={k}, n={n}: {scaled}")
    return TraceTerms(k, n, identity, elliptic, hyperbolic, total, scaled.numerator)


def dim_cusp_forms(k: int) -> int:
    """dim S_k(1) by the classical staircase, as an independent cross-check."""
    if k % 2 or k < 4:
        return 0
    return k // 12 - 1 if k % 12 == 2 else k // 12


# --------------------------------------------------------------------------
# Integer power series oracle


class PowerSeriesZ:
    """Dense integer power series truncated at a fixed order."""

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
        other_coeffs = other.coeffs
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j in range(n + 1 - i):
                    b = other_coeffs[j]
                    if b:
                        out[i + j] += a * b
        return PowerSeriesZ(out, n)

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i]

    def __eq__(self, other):
        return isinstance(other, PowerSeriesZ) and self.coeffs == other.coeffs

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        return f"PowerSeriesZ([{head}, ...], order={self.order})"


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
    expansion is sparse; with it on the left, each product only walks the
    dense factor once per nonzero term.
    """
    if not 1 <= N <= _SERIES_CAP:
        raise ValueError(f"N must be between 1 and {_SERIES_CAP}")
    eta3 = _eta_cubed(N - 1)
    res = eta3
    for _ in range(7):
        res = eta3 * res
    return [0] + res.coeffs  # tau(n) is the q^(n-1) coefficient of the product


def _eisenstein(N: int, power: int, c: int) -> PowerSeriesZ:
    """1 + c * sum_m sigma_power(m) q^m: E4 is (3, 240), E6 is (5, -504)."""
    coeffs = [0] * (N + 1)
    for d in range(1, N + 1):
        term = c * d ** power
        for mult in range(d, N + 1, d):
            coeffs[mult] += term
    coeffs[0] = 1
    return PowerSeriesZ(coeffs, N)


def eigenform_coeffs(k: int, N: int) -> list[int]:
    """q-expansion (a_1..a_N) of the normalized eigenform in a one-dimensional
    cusp space, as the weight-12 form times Eisenstein factors."""
    if k not in _ONE_DIM_WEIGHTS:
        raise ValueError(f"space not one-dimensional at weight {k}")
    if not 1 <= N <= 2000:
        raise ValueError("N must be between 1 and 2000")
    a, b = _ONE_DIM_WEIGHTS[k]
    tau = eta_tau(N)
    f = PowerSeriesZ([0] + tau[1:], N)
    for _ in range(a):
        f = f * _eisenstein(N, 3, 240)
    for _ in range(b):
        f = f * _eisenstein(N, 5, -504)
    if f[1] != 1:
        raise ArithmeticError(f"eigenform at weight {k} not normalized: a_1 = {f[1]}")
    return f.coeffs[1:]


def oracle_coefficient(k: int, n: int) -> int:
    """Independent expected value for Tr T_n: eigenform coefficient where the
    space is one-dimensional, 0 where it vanishes."""
    if k in _ONE_DIM_WEIGHTS:
        return eigenform_coeffs(k, n)[n - 1]
    if dim_cusp_forms(k) == 0:
        return 0
    raise ValueError(f"no scalar oracle at weight {k}: dim = {dim_cusp_forms(k)}")

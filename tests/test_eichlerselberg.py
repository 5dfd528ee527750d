import hashlib
import sys
from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import given, settings, strategies as st

import padic_orbits.eichlerselberg as es
import padic_orbits.quadglobal as qg
from padic_orbits.eichlerselberg import (
    PowerSeriesZ,
    TraceTerms,
    dim_cusp_forms,
    eigenform_coeffs,
    eta_tau,
    gegenbauer_like,
    oracle_coefficient,
    trace_formula,
)
from padic_orbits.exact import to_json

F = Fraction


def test_gegenbauer_examples():
    assert gegenbauer_like(5, 7, [0]) == [1]
    assert gegenbauer_like(5, 7, [2]) == [18]         # t^2 - n
    assert gegenbauer_like(0, 1, [10]) == [-1]   # period-4 recurrence
    assert gegenbauer_like(1, 1, [10]) == [-1]   # period-6 recurrence
    assert gegenbauer_like(1, 1, [0, 0, 4, 10]) == [1, 1, -1, -1]
    assert gegenbauer_like(1, 1, []) == []


@pytest.mark.parametrize("js", [[-2], [4, 2], [0, 6, 4], [3], [2, 5]])
def test_gegenbauer_rejects_odd_or_unordered_indices(js):
    with pytest.raises(ValueError):
        gegenbauer_like(2, 3, js)


def test_gegenbauer_matches_root_form():
    # U_j(t, n) (rho^(j+1) - rhobar^(j+1)) = rho - rhobar for X^2 - t X + n,
    # every j read from one run of the recurrence
    import cmath
    js = (0, 2, 4, 8, 10)
    for t in range(-5, 6):
        for n in (1, 2, 3, 5):
            rho = (t + cmath.sqrt(t * t - 4 * n)) / 2
            bar = (t - cmath.sqrt(t * t - 4 * n)) / 2
            for j, u in zip(js, gegenbauer_like(t, n, js)):
                lhs = u * (rho - bar)
                rhs = rho ** (j + 1) - bar ** (j + 1)
                assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


@given(t=st.integers(-100, 100), n=st.integers(1, 10 ** 5),
       js=st.lists(st.integers(0, 30).map(lambda m: 2 * m), max_size=6).map(sorted))
def test_gegenbauer_matches_the_one_step_recurrence(t, n, js):
    assert gegenbauer_like(t, n, js) == [1 if j == 0 else _u(t, n, j) for j in js]


def test_trace_12_1_term_by_term():
    tt = trace_formula(12, 1)
    assert tt.identity_term == F(11, 12)
    assert tt.elliptic_term == F(7, 12)
    assert tt.hyperbolic_term == F(-1, 2)
    assert tt.rhs_total == 1
    assert tt.trace == 1 == dim_cusp_forms(12)


def test_trace_examples():
    assert trace_formula(12, 2).trace == -24
    for n in range(1, 21):
        assert trace_formula(14, n).trace == 0


def test_trace_rejects_bad_weight():
    with pytest.raises(ValueError):
        trace_formula(13, 1)
    with pytest.raises(ValueError):
        trace_formula(2, 1)


def test_eta_tau_values():
    tau = eta_tau(10)
    assert tau[1] == 1
    assert tau[2] == -24
    assert tau[5] == 4830
    assert tau[1:8] == [1, -24, 252, -1472, 4830, -6048, -16744]


def test_eigenform_examples():
    assert eigenform_coeffs(12, 5) == [1, -24, 252, -1472, 4830]
    assert eigenform_coeffs(16, 2)[1] == 216
    with pytest.raises(ValueError, match="one-dimensional"):
        eigenform_coeffs(24, 5)
    # n, as the oracle names its cap, not eta_tau's N
    with pytest.raises(ValueError, match=r"^n must be a positive integer$"):
        eigenform_coeffs(12, 0)
    with pytest.raises(ValueError, match=r"^n = 2001 must be at most 2000: the eta/Eisenstein "
                                         r"oracle multiplies series of n terms$"):
        eigenform_coeffs(12, 2001)


def test_eigenform_normalization_failure_is_arithmetic_error(monkeypatch):
    import padic_orbits.eichlerselberg as es

    monkeypatch.setattr(es, "eta_tau", lambda N: [0, 2] + [0] * (N - 1))
    with pytest.raises(ArithmeticError, match="weight 12"):
        eigenform_coeffs(12, 5)


def test_oracle_equality_spot():
    for k in (12, 16, 18, 20, 22, 26):
        coeffs = eigenform_coeffs(k, 30)
        for n in range(1, 31):
            assert trace_formula(k, n).trace == coeffs[n - 1], (k, n)


def test_dimension_oracle():
    dims = {4: 0, 10: 0, 12: 1, 14: 0, 16: 1, 24: 2, 26: 1, 36: 3, 38: 2, 40: 3}
    for k, dim in dims.items():
        assert dim_cusp_forms(k) == dim
    for k in range(4, 41, 2):
        assert trace_formula(k, 1).trace == dim_cusp_forms(k)


def test_hecke_multiplicativity_through_formula():
    t = {n: trace_formula(12, n).trace for n in (2, 3, 6)}
    assert t[6] == t[2] * t[3]


def test_oracle_coefficient_dispatch():
    assert oracle_coefficient(12, 2) == -24
    assert oracle_coefficient(14, 9) == 0
    with pytest.raises(ValueError):
        oracle_coefficient(24, 2)


def test_power_series_truncation():
    f = PowerSeriesZ([1, 1], 4)
    g = f * f
    assert g.coeffs == [1, 2, 1, 0, 0]
    h = PowerSeriesZ([1] * 5, 4) * PowerSeriesZ([1] * 5, 4)
    assert h.coeffs == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        PowerSeriesZ([1], 3) * PowerSeriesZ([1], 4)


def test_eta_tau_bounds():
    with pytest.raises(ValueError):
        eta_tau(0)
    with pytest.raises(ValueError):
        eta_tau(10 ** 5)


def test_trace_budget_rejects_large_n_before_work():
    cap = qg._ROW_CAP
    with pytest.raises(ValueError, match=rf"n = {cap + 1} must be at most {cap}: "
                                         r"the class-number row does O\(n\) work"):
        trace_formula(12, cap + 1)
    with pytest.raises(ValueError, match="at most"):
        trace_formula(12, 10 ** 9)


def test_trace_budget_admits_the_cap(monkeypatch):
    monkeypatch.setattr(qg, "_ROW_CAP", 50)
    assert trace_formula(12, 50).trace == eigenform_coeffs(12, 50)[49]
    with pytest.raises(ValueError, match="at most 50"):
        trace_formula(12, 51)


def test_print_budget_rejects_large_weight_before_work(monkeypatch):
    def refuse(n):
        raise RuntimeError("row built before the budget check")

    monkeypatch.setattr(es, "hurwitz6_row", refuse)
    with pytest.raises(ValueError, match=r"^bits of n\^\(k/2\) \(k = 1000000, n = 2\) = 1000000 "
                                         r"must be at most 12000: printed results are capped"):
        trace_formula(10 ** 6, 2)
    # the largest weight sets the size of every power
    with pytest.raises(ValueError, match=r"\(k = 1412, n = 99991\) = 12002 must be at most"):
        es.hecke_traces(99991, (12, 1412))


# --------------------------------------------------------------------------
# References: the algorithms the package replaced, written out here so that
# no rule is taken from the code under test.


def _dense_product(a, b):
    # the literal O(N^2) double loop, truncated at the common order
    n = len(a) - 1
    out = [0] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


_HURWITZ = {}


def _hurwitz(N):
    # H(N): reduced forms (a, b, c) of discriminant -N, with (a, 0, a)
    # weighted 1/2 and (a, a, a) weighted 1/3
    if N not in _HURWITZ:
        total = F(0)
        a = 1
        while 3 * a * a <= N:
            for b in range(-a + 1, a + 1):
                if (b * b + N) % (4 * a):
                    continue
                c = (b * b + N) // (4 * a)
                if c < a or (c == a and b < 0):
                    continue
                total += F(1, 2) if b == 0 and c == a else F(1, 3) if b == a == c else 1
            a += 1
        _HURWITZ[N] = total
    return _HURWITZ[N]


def _trace_terms_reference(k, n):
    # every t with t^2 < 4n from -t to t, every divisor d <= n
    def u(t):
        a, b = 1, t
        for _ in range(k - 3):
            a, b = b, t * b - n * a
        return b

    scale = F(n) ** (1 - k // 2)
    identity = F(k - 1, 12) if isqrt(n) ** 2 == n else F(0)
    tmax = isqrt(4 * n)
    elliptic = -scale * sum(u(t) * _hurwitz(4 * n - t * t)
                            for t in range(-tmax, tmax + 1) if t * t < 4 * n) / 2
    hyperbolic = -scale * sum(min(d, n // d) ** (k - 1) for d in range(1, n + 1) if n % d == 0) / 2
    total = identity + elliptic + hyperbolic
    trace = total * F(n) ** (k // 2 - 1)
    return identity, elliptic, hyperbolic, total, trace


def _u(t, n, j):
    # U_j(t, n) by its own recurrence, for j >= 1
    a, b = 1, t
    for _ in range(j - 1):
        a, b = b, t * b - n * a
    return b


def _trace_terms_fraction_chain(k, n):
    # The Fraction-chain assembly trace_formula used before it summed one
    # integer over 12: the same row and pairing of +-t, every term a Fraction,
    # one weight at a time.
    root = isqrt(n)
    square = root * root == n
    identity = F(k - 1, 12) if square else F(0)
    scale = F(n) ** (1 - k // 2)
    elliptic_sum_6 = 0
    for t, h6 in enumerate(es.hurwitz6_row(n)):
        term = _u(t, n, k - 2) * h6
        elliptic_sum_6 += term if t == 0 else 2 * term
    elliptic = -scale * F(elliptic_sum_6, 12)
    divisor_sum = sum(2 * d ** (k - 1) for d in range(1, root + 1) if n % d == 0)
    if square:
        divisor_sum -= root ** (k - 1)
    hyperbolic = -scale * F(divisor_sum) / 2
    total = identity + elliptic + hyperbolic
    scaled = total * F(n) ** (k // 2 - 1)
    assert scaled.denominator == 1
    return TraceTerms(k, n, identity, elliptic, hyperbolic, total, scaled.numerator)


@given(k=st.integers(2, 30).map(lambda j: 2 * j), n=st.integers(1, 3000))
def test_trace_formula_matches_fraction_chain(k, n):
    tt = trace_formula(k, n)   # ArithmeticError if not integral
    assert isinstance(tt.trace, int)
    assert tt.rhs_total == tt.identity_term + tt.elliptic_term + tt.hyperbolic_term
    assert tt.rhs_total * F(n) ** (k // 2 - 1) == tt.trace
    assert to_json(tt) == to_json(_trace_terms_fraction_chain(k, n))


@given(n=st.integers(1, 2000),
       ks=st.sets(st.integers(2, 30).map(lambda j: 2 * j), min_size=1, max_size=8))
def test_hecke_traces_match_fraction_chain(n, ks):
    traces = es.hecke_traces(n, ks)
    assert sorted(traces) == sorted(ks)
    for k in ks:
        assert to_json(traces[k]) == to_json(_trace_terms_fraction_chain(k, n)), k


def test_hecke_traces_build_one_row(monkeypatch):
    real, calls = es.hurwitz6_row, []
    monkeypatch.setattr(es, "hurwitz6_row", lambda n: calls.append(n) or real(n))
    traces = es.hecke_traces(12, [26, 4, 12, 12])
    assert calls == [12] and sorted(traces) == [4, 12, 26]
    assert traces[12] == trace_formula(12, 12)


def test_hecke_traces_hold_no_memory_between_calls():
    # A lazy zip(*map(...)) here once kept one block alive per call.
    es.hecke_traces(30, (12, 16))
    before = sys.getallocatedblocks()
    for _ in range(2000):
        es.hecke_traces(30, (12, 16))
    assert sys.getallocatedblocks() - before < 500


@pytest.mark.parametrize("weights", [[], [12, 13], [2, 12], [12, 0]])
def test_hecke_traces_reject_bad_weights(weights):
    with pytest.raises(ValueError):
        es.hecke_traces(5, weights)


def test_hurwitz_reference_values():
    assert [_hurwitz(N) for N in (3, 4, 7, 8, 11, 12, 15, 16)] == [
        F(1, 3), F(1, 2), 1, 1, 1, F(4, 3), 2, F(3, 2)]


@pytest.mark.parametrize("k", range(4, 41, 2))
def test_trace_terms_match_full_t_loop(k):
    for n in range(1, 121):
        tt = trace_formula(k, n)
        assert (tt.identity_term, tt.elliptic_term, tt.hyperbolic_term, tt.rhs_total,
                tt.trace) == _trace_terms_reference(k, n), n


@pytest.mark.parametrize("n", [5041, 7560, 9973])
def test_trace_terms_match_full_t_loop_large_n(n):
    # a square, a highly composite n and a prime
    tt = trace_formula(24, n)
    assert (tt.identity_term, tt.elliptic_term, tt.hyperbolic_term, tt.rhs_total,
            tt.trace) == _trace_terms_reference(24, n)


_COEFF = st.one_of(st.integers(-1, 1), st.integers(-2 ** 300, 2 ** 300))


@st.composite
def _factor(draw, order):
    kind = draw(st.sampled_from(["dense", "sparse", "zero", "even"]))
    if kind == "zero":
        return [0] * (order + 1)
    coeffs = draw(st.lists(_COEFF, min_size=order + 1, max_size=order + 1))
    if kind == "sparse":
        keep = draw(st.sets(st.integers(0, order), max_size=3))
        coeffs = [c if i in keep else 0 for i, c in enumerate(coeffs)]
    if kind == "even":   # a series in q^2, whose odd half packs to zero
        coeffs = [0 if i % 2 else c for i, c in enumerate(coeffs)]
    return coeffs


@given(data=st.data(), order=st.integers(0, 60))
def test_series_product_matches_double_loop(data, order):
    a = data.draw(_factor(order))
    b = data.draw(_factor(order))
    product = PowerSeriesZ(a, order) * PowerSeriesZ(b, order)
    assert product.order == order
    assert product.coeffs == _dense_product(a, b)
    f = PowerSeriesZ(a, order)   # f * f packs once and squares
    assert (f * f).coeffs == _dense_product(a, a)
    with pytest.raises(ValueError, match="mismatched"):
        PowerSeriesZ(a, order) * PowerSeriesZ(b + [1], order + 1)


@given(a=_COEFF, b=_COEFF)
def test_series_product_of_order_zero(a, b):
    # order 0 has one even coefficient and an empty odd half
    assert (PowerSeriesZ([a], 0) * PowerSeriesZ([b], 0)).coeffs == [a * b]
    f = PowerSeriesZ([a], 0)
    assert (f * f).coeffs == [a * a]


@pytest.mark.parametrize("order", [0, 1, 2, 5, 6])
@pytest.mark.parametrize("top", [2 ** 7 - 1, 2 ** 7, 2 ** 8 - 1, 2 ** 15 - 1, 2 ** 15, 2 ** 64])
def test_series_product_at_the_slot_bound(order, top):
    # constant factors make the q^order coefficient equal (order + 1) max|a| max|b|;
    # at odd orders it is read from the odd half, at even orders from the even half
    for sa, sb in ((1, 1), (1, -1), (-1, -1)):
        a, b = [sa * top] * (order + 1), [sb * top] * (order + 1)
        assert (PowerSeriesZ(a, order) * PowerSeriesZ(b, order)).coeffs == _dense_product(a, b)
        f = PowerSeriesZ(b, order)
        assert (f * f).coeffs == _dense_product(b, b)
        one = [sb] + [0] * order
        assert (PowerSeriesZ(a, order) * PowerSeriesZ(one, order)).coeffs == _dense_product(a, one)


# (w, order, max|a|, max|b|) with constant factors, so the q^order coefficient is
# (order + 1) max|a| max|b|, within 7 units below 2^(8w - 1); even and odd orders
# put it in the even and the odd half
_SLOT_EDGE_PRODUCTS = [
    (1, 0, 127, 1), (1, 126, 1, 1), (1, 1, 63, 1), (1, 4, 5, 5),
    (2, 0, 181, 181), (2, 6, 31, 151), (2, 5, 43, 127),
    (3, 0, 1, 8388607), (3, 46, 1, 178481), (3, 5, 1, 1398101),
]


@pytest.mark.parametrize("w, order, top_a, top_b", _SLOT_EDGE_PRODUCTS)
def test_series_product_at_the_slot_edges(w, order, top_a, top_b):
    edge = 2 ** (8 * w - 1)
    assert (order + 1) * top_a * top_b in range(edge - 7, edge)   # so the slot is w bytes
    for sign in (1, -1):
        a, b = [sign * top_a] * (order + 1), [top_b] * (order + 1)
        product = (PowerSeriesZ(a, order) * PowerSeriesZ(b, order)).coeffs
        assert product == _dense_product(a, b)
        assert abs(product[order]) > edge - 8


# (w, order, max|a|): f * f with f constant, or alternating, puts
# (-1)^order (order + 1) max|a|^2 at q^order, within 8 units below 2^(8w - 1) at
# w = 1 and 2.  No m t^2 with m <= 3000 lies within 64 below 2^23, so the w = 3
# cases sit 0.02% and 0.1% below it; the round trip below reads the w = 3 edge.
@pytest.mark.parametrize("w, order, top", [(1, 126, 1), (1, 125, 1), (1, 13, 3), (1, 4, 5),
                                           (2, 0, 181), (2, 909, 6), (3, 0, 2896), (3, 1, 2047)])
def test_series_square_at_the_slot_edges(w, order, top):
    assert ((order + 1) * top * top).bit_length() == 8 * w - 1   # so the slot is w bytes
    for f in ([top] * (order + 1), [(-1) ** i * top for i in range(order + 1)]):
        square = PowerSeriesZ(f, order)
        product = (square * square).coeffs
        assert product == _dense_product(f, f)
    assert product[order] == (-1) ** order * (order + 1) * top * top


@pytest.mark.parametrize("w", [1, 2, 3])
def test_slots_round_trip_at_the_edges_and_ignore_the_slots_above(w):
    edge = 2 ** (8 * w - 1)
    near = [edge - 1, 1 - edge, edge - 2, 2 - edge, 0, 1, -1, edge // 2, -edge // 2]
    coeffs = near + near[::-1] + [c for c in near for _ in range(2)]
    packed = es._pack(coeffs, w)
    assert packed == sum(c << (8 * w * i) for i, c in enumerate(coeffs))
    assert es._unpack(packed, w, len(coeffs)) == coeffs
    for count in range(len(coeffs) + 1):
        for above in (1, -1, edge, 3 ** 200, -(3 ** 200)):
            assert es._unpack(packed + (above << (8 * w * count)), w, count) == coeffs[:count]


def _bernoulli(m):
    # B_0..B_m from sum_{j <= i} C(i + 1, j) B_j = 0 for i >= 1
    B = [F(1)]
    for i in range(1, m + 1):
        B.append(-sum(comb(i + 1, j) * B[j] for j in range(i)) / (i + 1))
    return B


_B = _bernoulli(14)
_ONE_DIM = (12, 16, 18, 20, 22, 26)


def _E(j, order):
    # E_j = 1 - (2j / B_j) sum sigma_{j-1}(n) q^n, by divisor sums of its own
    c = -2 * j / _B[j]
    assert c.denominator == 1
    sigma = [sum(d ** (j - 1) for d in range(1, n + 1) if n % d == 0) for n in range(1, order + 1)]
    return PowerSeriesZ([1] + [c.numerator * s for s in sigma], order)


def test_bernoulli_reference_values():
    assert _B[:7] == [1, F(-1, 2), F(1, 6), 0, F(-1, 30), 0, F(1, 42)]
    assert (_B[8], _B[10], _B[12], _B[14]) == (F(-1, 30), F(5, 66), F(-691, 2730), F(7, 6))


def test_one_dim_weight_table_is_the_bernoulli_rule():
    assert sorted(es._ONE_DIM_WEIGHTS) == [k for k in range(4, 62, 2) if dim_cusp_forms(k) == 1]
    assert es._ONE_DIM_WEIGHTS[12] is None   # Delta itself
    for k in _ONE_DIM[1:]:
        j = k - 12
        assert es._ONE_DIM_WEIGHTS[k] == (j - 1, -2 * j / _B[j]), k
        assert es._eisenstein(40, *es._ONE_DIM_WEIGHTS[k]).coeffs == _E(j, 40).coeffs


def test_eisenstein_products_span_one_dimensional_spaces():
    # M_8, M_10 and M_14 are one-dimensional, and each product has constant term 1
    e4, e6 = _E(4, 300), _E(6, 300)
    assert (e4 * e4).coeffs == _E(8, 300).coeffs
    assert (e4 * e6).coeffs == _E(10, 300).coeffs
    assert (e4 * e4 * e6).coeffs == _E(14, 300).coeffs


def _eigenform_chain(k, N):
    # Delta E4^a E6^b with 4a + 6b = k - 12: the three-product chain the
    # oracle made before each space took its one Eisenstein factor
    a, b = {12: (0, 0), 16: (1, 0), 18: (0, 1), 20: (2, 0), 22: (1, 1), 26: (2, 1)}[k]
    f = PowerSeriesZ(eta_tau(N), N)
    for _ in range(a):
        f = f * es._eisenstein(N, 3, 240)
    for _ in range(b):
        f = f * es._eisenstein(N, 5, -504)
    return f.coeffs[1:]


@pytest.mark.parametrize("N", [1, 2, 50, 2000])
def test_eigenform_matches_the_eisenstein_chain(N):
    for k in _ONE_DIM:
        assert eigenform_coeffs(k, N) == _eigenform_chain(k, N), k


def test_eigenform_makes_one_product_after_eta_tau(monkeypatch):
    # From an empty table the first build squares three times for Delta;
    # later builds at N <= 50 reuse it, and N = 51 squares three times again
    real, calls = PowerSeriesZ.__mul__, []
    monkeypatch.setattr(PowerSeriesZ, "__mul__", lambda f, g: calls.append(1) or real(f, g))
    monkeypatch.setattr(es, "_TAU", [0])
    for i, (k, N) in enumerate([(k, N) for N in (50, 1, 37, 50) for k in _ONE_DIM]):
        calls.clear()
        eigenform_coeffs(k, N)
        assert len(calls) == (3 if i == 0 else 0) + (k != 12), (k, N)
    for k in (16, 12, 26):
        calls.clear()
        eigenform_coeffs(k, 51)
        assert len(calls) == (3 if k == 16 else 0) + (k != 12), k


def _tau_reference(N):
    # tau(0..N) with no table: three squarings of eta^3 to order N - 1
    res = es._eta_cubed(N - 1)
    for _ in range(3):
        res = res * res
    return [0] + res.coeffs


@settings(deadline=None)
@given(st.lists(st.integers(1, 300), min_size=1, max_size=8))
def test_eta_tau_matches_a_build_without_the_table(ns):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(es, "_TAU", [0])
        for N in ns:
            assert eta_tau(N) == _tau_reference(N), (ns, N)
        assert es._TAU == _tau_reference(max(ns))


def test_eta_tau_returns_a_copy(monkeypatch):
    monkeypatch.setattr(es, "_TAU", [0])
    for N in (40, 40, 25, 60):
        tau = eta_tau(N)
        tau[1] = 7
        tau.append(1)
        del tau[2:5]
        assert eta_tau(N) == _tau_reference(N), N


@settings(deadline=None, max_examples=20)
@given(st.lists(st.integers(1, 10 ** 4), max_size=6))
def test_eta_tau_keeps_one_list_at_the_cap(ns):
    table = es._TAU
    eta_tau(10 ** 4)
    for N in ns:
        eta_tau(N)
    assert es._TAU is table and len(table) == 10 ** 4 + 1
    assert [name for name, value in vars(es).items() if isinstance(value, list)] == ["_TAU"]


# sha256 of ",".join(map(str, eigenform_coeffs(k, 2000))): the oracle at its
# cap, pinned so that a new product algorithm cannot move a coefficient
_EIGENFORM_2000_SHA256 = {
    12: "851d256e547207e81f8fe4ca35cd74b6c6cc0963496623b242dc423e67698d96",
    16: "df818ce633cbb086ef8cdf918147e4e30d176030e26320e7603f206f101d60c4",
    18: "a62cf44856674cb1b4b700104247abcf830e3143760e606f639d9c3652badd54",
    20: "85580e341f0e3a023dadfbf387b85b162050ba511bdba3dafb6a82ffca946b2c",
    22: "f28a1e4fc685dbd02119e276fc32a907ab2b0b1e8ed32382e39d75e81b5929b0",
    26: "e861e9d591efc9a61db01ddd539da9984cbe7691af31c2d0b9beb5b2d38c663d",
}


@pytest.mark.parametrize("k", _ONE_DIM)
def test_eigenform_at_the_cap_is_pinned(k):
    text = ",".join(map(str, eigenform_coeffs(k, 2000)))
    assert hashlib.sha256(text.encode()).hexdigest() == _EIGENFORM_2000_SHA256[k]

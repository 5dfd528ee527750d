import sys
from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import given, strategies as st

import padic_orbits.eichlerselberg as es
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
    for N in (0, 2001):
        with pytest.raises(ValueError, match=rf"eta/Eisenstein oracle takes n between 1 and "
                                             rf"2000, not n = {N}$"):
            eigenform_coeffs(12, N)


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
    cap = es._TRACE_CAP
    with pytest.raises(ValueError, match=rf"at most {cap}: .*O\(n\) class-number work"):
        trace_formula(12, cap + 1)
    with pytest.raises(ValueError, match="at most"):
        trace_formula(12, 10 ** 9)


def test_trace_budget_admits_the_cap(monkeypatch):
    monkeypatch.setattr(es, "_TRACE_CAP", 50)
    assert trace_formula(12, 50).trace == eigenform_coeffs(12, 50)[49]
    with pytest.raises(ValueError, match="at most 50"):
        trace_formula(12, 51)


def test_print_budget_rejects_large_weight_before_work(monkeypatch):
    def refuse(n):
        raise RuntimeError("row built before the budget check")

    monkeypatch.setattr(es, "hurwitz6_row", refuse)
    with pytest.raises(ValueError, match=r"k = 1000000, n = 2 takes up to 1000000 bits; "
                                         r"printed results are capped at 12000 bits"):
        trace_formula(10 ** 6, 2)
    # the largest weight sets the size of every power
    with pytest.raises(ValueError, match=r"k = 1412, n = 99991 takes up to 12002 bits"):
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
    assert tt.to_json() == _trace_terms_fraction_chain(k, n).to_json()


@given(n=st.integers(1, 2000),
       ks=st.sets(st.integers(2, 30).map(lambda j: 2 * j), min_size=1, max_size=8))
def test_hecke_traces_match_fraction_chain(n, ks):
    traces = es.hecke_traces(n, ks)
    assert sorted(traces) == sorted(ks)
    for k in ks:
        assert traces[k].to_json() == _trace_terms_fraction_chain(k, n).to_json(), k


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
    kind = draw(st.sampled_from(["dense", "sparse", "zero"]))
    if kind == "zero":
        return [0] * (order + 1)
    coeffs = draw(st.lists(_COEFF, min_size=order + 1, max_size=order + 1))
    if kind == "sparse":
        keep = draw(st.sets(st.integers(0, order), max_size=3))
        coeffs = [c if i in keep else 0 for i, c in enumerate(coeffs)]
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


@pytest.mark.parametrize("order", [0, 1, 5])
@pytest.mark.parametrize("top", [2 ** 7 - 1, 2 ** 7, 2 ** 8 - 1, 2 ** 15 - 1, 2 ** 15, 2 ** 64])
def test_series_product_at_the_slot_bound(order, top):
    # constant factors make the q^order coefficient equal (order + 1) max|a| max|b|
    for sa, sb in ((1, 1), (1, -1), (-1, -1)):
        a, b = [sa * top] * (order + 1), [sb * top] * (order + 1)
        assert (PowerSeriesZ(a, order) * PowerSeriesZ(b, order)).coeffs == _dense_product(a, b)
        f = PowerSeriesZ(b, order)
        assert (f * f).coeffs == _dense_product(b, b)
        one = [sb] + [0] * order
        assert (PowerSeriesZ(a, order) * PowerSeriesZ(one, order)).coeffs == _dense_product(a, one)


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
    real, calls = PowerSeriesZ.__mul__, []
    monkeypatch.setattr(PowerSeriesZ, "__mul__", lambda f, g: calls.append(1) or real(f, g))
    for k in _ONE_DIM:
        calls.clear()
        eigenform_coeffs(k, 50)
        assert len(calls) == (3 if k == 12 else 4), k   # eta_tau squares three times

import math
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import padic_orbits.exact as exact
from padic_orbits.eichlerselberg import trace_formula
from padic_orbits.exact import (
    _TRIAL_BOUND,
    QHalfPower,
    _prime_powers,
    _require_prime,
    abs_p,
    fundamental_discriminant,
    is_fundamental_discriminant,
    is_prime,
    is_squarefree,
    ord_p,
    qhalf,
    squarefree_part,
)
from padic_orbits.weylsteinberg import Gl2OrbitClass, OrbitKind

PRIMES = [2, 3, 5, 7, 11, 13]

rationals = st.fractions(min_value=-1000, max_value=1000)
nonzero_rationals = rationals.filter(lambda x: x != 0)


def test_ord_examples():
    assert ord_p(9, 3) == 2
    assert ord_p(Fraction(3, 4), 2) == -2
    assert ord_p(1, 5) == 0


def test_ord_zero_rejected():
    with pytest.raises(ValueError, match="zero"):
        ord_p(0, 3)


def test_abs_examples():
    assert abs_p(9, 3) == QHalfPower(Fraction(1), -4, 3)
    assert abs_p(Fraction(1, 5), 5) == qhalf(5, 5)
    with pytest.raises(ValueError, match="zero"):
        abs_p(0, 7)


@given(x=nonzero_rationals, y=nonzero_rationals, p=st.sampled_from(PRIMES))
def test_ord_is_additive(x, y, p):
    assert ord_p(x * y, p) == ord_p(x, p) + ord_p(y, p)


@given(x=nonzero_rationals, y=nonzero_rationals, p=st.sampled_from(PRIMES))
def test_ord_ultrametric(x, y, p):
    if x + y == 0:
        return
    vx, vy = ord_p(x, p), ord_p(y, p)
    v = ord_p(x + y, p)
    assert v >= min(vx, vy)
    if vx != vy:
        assert v == min(vx, vy)


@given(x=nonzero_rationals, y=nonzero_rationals, p=st.sampled_from(PRIMES))
def test_abs_is_multiplicative(x, y, p):
    assert abs_p(x * y, p) == abs_p(x, p) * abs_p(y, p)


def _check_product_formula(n):
    # prod over p | n of |n|_p times the real |n| is 1
    value = Fraction(abs(n))
    m = abs(n)
    p = 2
    while p * p <= m:
        if m % p == 0:
            value *= abs_p(n, p).as_fraction()
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        value *= abs_p(n, m).as_fraction()
    assert value == 1


@pytest.mark.parametrize("n", [2, 6, 12, 30, 360, 1001, 999983, 2 ** 19, 10 ** 6, -720720])
def test_product_formula(n):
    _check_product_formula(n)


def test_product_formula_random_sweep():
    import random

    rng = random.Random(1729)
    for _ in range(300):
        n = rng.randint(1, 10 ** 6) * rng.choice((1, -1))
        _check_product_formula(n)


def test_qhalf_add_mul_examples():
    q3 = lambda c, h=0: qhalf(Fraction(c), 3, h)
    assert (1 - Fraction(1, 3)) * (1 + Fraction(1, 3)) == Fraction(8, 9)
    assert q3(1 - Fraction(1, 3)) * q3(1 + Fraction(1, 3)) == q3(Fraction(8, 9))
    # sqrt(5) * sqrt(5) = 5
    a = qhalf(2, 5, -1)
    b = qhalf(1, 5, -1)
    assert a * b == qhalf(Fraction(2, 5), 5)


def test_qhalf_mixed_parity_add_rejected():
    a = qhalf(Fraction(1, 2), 2, -1)
    b = qhalf(1, 2, 0)
    with pytest.raises(TypeError):
        a + b


def test_qhalf_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        qhalf(1, 3) / QHalfPower(0, 0, 3)


def test_qhalf_equality_absorbs_even_exponents():
    assert qhalf(1, 3, -4) == qhalf(Fraction(1, 9), 3, 0)
    assert qhalf(1, 3, -4) != qhalf(1, 3, -3)
    assert hash(qhalf(1, 3, -4)) == hash(qhalf(Fraction(1, 9), 3, 0))


def test_qhalf_hashes_as_the_rational_it_equals():
    # A value with no odd power of sqrt(q) equals its rational, so sets and
    # dicts must treat the two as one key.
    assert qhalf(3, 5) == 3
    assert len({qhalf(3, 5), 3}) == 1
    assert {qhalf(3, 5): 1}.get(3) == 1
    assert qhalf(Fraction(1, 2), 5, 2) == Fraction(5, 2)
    assert hash(qhalf(Fraction(1, 2), 5, 2)) == hash(Fraction(5, 2))
    assert {Fraction(5, 2): 1}.get(qhalf(Fraction(1, 2), 5, 2)) == 1
    assert len({QHalfPower(0, 0, 7), QHalfPower(Fraction(0), 3, 7), 0, Fraction(0)}) == 1


def test_qhalf_equality_is_an_equivalence():
    # Rational values compare as rationals whatever q is, so a set holds one
    # element in either insertion order; odd half-powers need the same q.
    assert len({qhalf(3, 5), qhalf(3, 7), 3}) == len({3, qhalf(3, 5), qhalf(3, 7)}) == 1
    assert qhalf(3, 5) == qhalf(3, 7) and qhalf(3, 5, 2) == qhalf(15, 7)
    assert qhalf(3, 5, 1) != qhalf(3, 7, 1)
    assert qhalf(3, 5, 1) == qhalf(3, 5, 1)
    assert QHalfPower(0, 0, 5) == QHalfPower(0, 0, 7) == 0


def test_qhalf_zero_is_canonical():
    z = QHalfPower(Fraction(0), 7, 5)
    assert z.half_exp == 0 and z == QHalfPower(0, 0, 5)


def test_qhalf_cross_q_operations_rejected():
    with pytest.raises(ValueError, match="mismatched"):
        qhalf(1, 3) * qhalf(1, 5)


@pytest.mark.parametrize("op", [
    lambda a: a + "x", lambda a: "x" + a, lambda a: a - "x", lambda a: "x" - a,
], ids=["add", "radd", "sub", "rsub"])
def test_qhalf_foreign_operand_is_type_error(op):
    with pytest.raises(TypeError):
        op(qhalf(1, 3))
    assert qhalf(1, 3) != "x"


coeffs = st.fractions(min_value=-100, max_value=100)
halves = st.integers(min_value=-20, max_value=20)


def _float(x):
    return float(x.coeff) * float(x.q) ** (x.half_exp / 2)


@given(c1=coeffs, h1=halves, c2=coeffs, h2=halves, q=st.sampled_from(PRIMES))
def test_qhalf_float_agreement(c1, h1, c2, h2, q):
    a, b = QHalfPower(c1, h1, q), QHalfPower(c2, h2, q)
    expect = _float(a) * _float(b)
    assert math.isclose(_float(a * b), expect, rel_tol=1e-12, abs_tol=1e-300)


# Integer and Fraction coefficients, both of which QHalfPower accepts.
mixed_coeffs = st.one_of(st.integers(-30, 30),
                         st.fractions(min_value=-30, max_value=30, max_denominator=30))


@st.composite
def same_parity_triples(draw):
    q = draw(st.sampled_from(PRIMES))
    parity = draw(st.integers(0, 1))
    return [QHalfPower(draw(mixed_coeffs), 2 * draw(st.integers(-4, 4)) + parity, q)
            for _ in range(3)]


@given(same_parity_triples())
def test_qhalf_field_laws(triple):
    a, b, c = triple
    for lhs, rhs in (
        ((a * b) * c, a * (b * c)),
        (a * b, b * a),
    ):
        assert lhs == rhs and hash(lhs) == hash(rhs)


@given(c=mixed_coeffs, h=halves, s=st.integers(-5, 5), q=st.sampled_from(PRIMES))
def test_qhalf_eq_and_hash_across_even_shifts(c, h, s, q):
    # c q^(h/2) = (c / q^s) q^((h + 2s)/2); an int coefficient stays an int
    # where the shift allows it.
    shifted = c * q ** -s if s <= 0 else Fraction(c, q ** s)
    a, b = QHalfPower(c, h, q), QHalfPower(shifted, h + 2 * s, q)
    assert a == b and hash(a) == hash(b)
    assert QHalfPower(c, h + 1, q) != b or c == 0


def test_is_prime():
    assert [p for p in range(60) if is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    # Every n below 43^2 is decided by the witnesses alone; check past that
    # square against a sieve.
    sieve = [n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1)) for n in range(2000)]
    assert [is_prime(n) for n in range(2000)] == sieve
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)


# psi_n, the least strong pseudoprime to the first n prime bases, for every
# distinct value below psi_13 (psi_7 = psi_8 and psi_9 = psi_10 = psi_11).
_PSI = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 3825123056546413051, 318665857834031151167461]
_PSI_13 = 3317044064679887385961981


@pytest.mark.parametrize("n", _PSI)
def test_is_prime_refuses_every_strong_pseudoprime_below_psi_13(n):
    assert not is_prime(n)


def test_is_prime_is_deterministic_only_below_psi_13():
    assert 399165290221 * 798330580441 == _PSI[-1]   # psi_12, which 41 now refutes
    # psi_13 is a strong pseudoprime to every base 2..41: the test is a
    # probable-prime test from there on, as documented.
    assert _PSI_13 == 1287836182261 * 2575672364521
    assert is_prime(_PSI_13)


def test_squarefree_helpers():
    assert is_squarefree(-6) and is_squarefree(1) and not is_squarefree(12)
    assert squarefree_part(Fraction(18)) == 2
    assert squarefree_part(Fraction(-20)) == -5
    assert squarefree_part(Fraction(9, 4)) == 1
    assert fundamental_discriminant(-1) == -4
    assert fundamental_discriminant(-3) == -3
    assert fundamental_discriminant(-23) == -23
    assert fundamental_discriminant(2) == 8
    assert is_fundamental_discriminant(-4)
    assert not is_fundamental_discriminant(-9)


# The trial-division loop, and the two functions that factor through it.
_TRIAL_ENTRIES = [
    pytest.param(is_squarefree, id="is_squarefree"),
    pytest.param(lambda n: list(_prime_powers(n)), id="_prime_powers"),
    pytest.param(lambda n: squarefree_part(Fraction(n)), id="squarefree_part"),
]


# 1000003 and 1000033 are primes above the trial bound, and 10^18 + 3 has no
# prime factor below 10^7.
_UNFACTORED = (1000003 * 1000033, -(10 ** 18 + 3))


@pytest.mark.parametrize("entry", _TRIAL_ENTRIES)
def test_trial_division_budget_rejects_large_n_before_work(entry):
    start = time.perf_counter()
    for n in _UNFACTORED:
        with pytest.raises(ValueError, match=rf"^trial divisor = {_TRIAL_BOUND + 1} must be at "
                                             rf"most {_TRIAL_BOUND}: a cofactor above "
                                             rf"{_TRIAL_BOUND}\^2 with no smaller prime factor"):
            entry(n)
    assert time.perf_counter() - start < 1.0   # dividing to 10^9 would take minutes


def test_trial_division_budget_admits_the_cap():
    p = 999_999_999_989   # the largest prime below 10^12
    assert is_squarefree(-p) and list(_prime_powers(p)) == [(p, 1)]
    assert not is_squarefree(10 ** 12)
    assert list(_prime_powers(-10 ** 12)) == [(2, 12), (5, 12)]
    assert squarefree_part(Fraction(-p, 2 ** 39)) == -2 * p


def test_trial_division_admits_large_n_that_factors_at_once():
    # Far above 10^12, but the cofactor drops below the bound's square after
    # small divisors, so the work is that of a small n.
    start = time.perf_counter()
    assert list(_prime_powers(10 ** 12 + 1)) == [(73, 1), (137, 1), (99990001, 1)]
    assert list(_prime_powers(-10 ** 29)) == [(2, 29), (5, 29)]
    assert is_squarefree(6 * 999_999_999_989) and not is_squarefree(2 ** 40)
    assert squarefree_part(Fraction(-10 ** 29)) == -10
    # a square is not factored: 1000003^2 alone would pass the bound
    assert squarefree_part(Fraction(3, 1000003 ** 2)) == 3
    assert time.perf_counter() - start < 1.0


# Inputs past Python's int-to-str limit, which only the Python API can pass:
# the refusal names them by their bits instead of failing to print them.
@pytest.mark.parametrize("build, label", [
    (lambda: trace_formula(12, 10 ** 5000), "(k = 12, n = an integer of 16610 bits)"),
    (lambda: Gl2OrbitClass(OrbitKind.HYPERBOLIC, 0, 2 ** 20000 + 1),
     "(d = 0, q = an integer of 20001 bits)"),
], ids=["trace_formula", "Gl2OrbitClass"])
def test_budget_refusal_names_an_unprintable_input_by_its_bits(build, label):
    with pytest.raises(ValueError) as exc:
        build()
    assert re.fullmatch(r".+ = \d+ must be at most \d+: .+", str(exc.value)), exc.value
    assert label in str(exc.value)


def test_prime_size_is_checked_before_primality(monkeypatch):
    def refuse(n):
        raise RuntimeError("primality tested before the size check")

    # p^2 is printed, so p may take half the print budget: 6000 bits
    with pytest.raises(ValueError, match=r"^\d+ is not prime$"):
        _require_prime(2 ** 5999)   # 6000 bits: admitted to the primality test
    monkeypatch.setattr(exact, "is_prime", refuse)
    with pytest.raises(ValueError, match=r"^bits of p = 6001 must be at most 6000: "):
        _require_prime(2 ** 6000)

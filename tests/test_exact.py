import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from padic_orbits.exact import (
    QHalfPower,
    abs_p,
    fundamental_discriminant,
    is_fundamental_discriminant,
    is_prime,
    is_squarefree,
    ord_p,
    qhalf,
    qhalf_zero,
    squarefree_part,
)

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
    assert abs_p(0, 7) == qhalf_zero(7)
    assert abs_p(Fraction(1, 5), 5) == qhalf(5, 5)


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


@given(x=rationals, y=rationals, p=st.sampled_from(PRIMES))
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
    with pytest.raises(ValueError, match="incommensurable"):
        a + b


def test_qhalf_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        qhalf(1, 3) / qhalf_zero(3)


def test_qhalf_equality_absorbs_even_exponents():
    assert qhalf(1, 3, -4) == qhalf(Fraction(1, 9), 3, 0)
    assert qhalf(1, 3, -4) != qhalf(1, 3, -3)
    assert hash(qhalf(1, 3, -4)) == hash(qhalf(Fraction(1, 9), 3, 0))


def test_qhalf_zero_is_canonical():
    z = QHalfPower(Fraction(0), 7, 5)
    assert z.half_exp == 0 and z == qhalf_zero(5)


def test_qhalf_cross_q_operations_rejected():
    with pytest.raises(ValueError, match="mismatched"):
        qhalf(1, 3) * qhalf(1, 5)


@pytest.mark.parametrize("op", [
    lambda a: a + "x", lambda a: "x" + a, lambda a: a - "x",
], ids=["add", "radd", "sub"])
def test_qhalf_foreign_operand_is_type_error(op):
    with pytest.raises(TypeError):
        op(qhalf(1, 3))
    assert qhalf(1, 3) != "x"


def test_qhalf_sub_examples():
    assert qhalf(1, 3, -2) - Fraction(1, 3) == qhalf_zero(3)
    assert qhalf(5, 3) - 2 == qhalf(3, 3)
    assert qhalf(2, 5, -1) - qhalf(1, 5, -1) == qhalf(1, 5, -1)


def test_qhalf_sqrt():
    assert qhalf(Fraction(4, 9), 3, -4).sqrt() == qhalf(Fraction(2, 3), 3, -2)
    with pytest.raises(ValueError):
        qhalf(2, 3, 0).sqrt()
    with pytest.raises(ValueError):
        qhalf(1, 3, -3).sqrt()


coeffs = st.fractions(min_value=-100, max_value=100)
halves = st.integers(min_value=-20, max_value=20)


@given(c1=coeffs, h1=halves, c2=coeffs, h2=halves, q=st.sampled_from(PRIMES))
def test_qhalf_float_agreement(c1, h1, c2, h2, q):
    a, b = QHalfPower(c1, h1, q), QHalfPower(c2, h2, q)
    prod = a * b
    expect = float(a) * float(b)
    assert math.isclose(float(prod), expect, rel_tol=1e-12, abs_tol=1e-300)
    if (h1 - h2) % 2 == 0 or c1 == 0 or c2 == 0:
        total = a + b
        assert math.isclose(float(total), float(a) + float(b), rel_tol=1e-12, abs_tol=1e-9)


def test_is_prime():
    assert [p for p in range(60) if is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)


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

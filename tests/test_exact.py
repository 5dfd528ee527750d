import ast
import math
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import padic_orbits.exact as exact
from padic_orbits.eichlerselberg import trace_formula
from padic_orbits.exact import (
    _TRIAL_BOUND,
    QHalfPower,
    _prime_powers,
    _require_prime,
    disc_split,
    is_fundamental_discriminant,
    is_prime,
    is_squarefree,
    ord_p,
    qhalf,
    to_json,
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


def _check_product_formula(n):
    # prod over p | n of |n|_p = p^(-ord_p n) times the real |n| is 1
    value = Fraction(abs(n))
    m = abs(n)
    p = 2
    while p * p <= m:
        if m % p == 0:
            value *= Fraction(p) ** -ord_p(n, p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        value *= Fraction(m) ** -ord_p(n, m)
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


@pytest.mark.parametrize("op", [
    lambda a, b: a + b, lambda a, b: a < b, lambda a, b: len(a), lambda a, b: iter(a),
], ids=["add", "lt", "len", "iter"])
def test_qhalf_is_not_a_tuple(op):
    # A tuple base would make + concatenate, < compare and len and iter succeed.
    with pytest.raises(TypeError):
        op(qhalf(1, 3), qhalf(2, 3))


def test_qhalf_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        qhalf(1, 3) / QHalfPower(0, 0, 3)


def test_qhalf_equality_absorbs_even_exponents():
    assert qhalf(1, 3, -4) == qhalf(Fraction(1, 9), 3, 0)
    assert qhalf(1, 3, -4) != qhalf(1, 3, -3)


def test_qhalf_equality_is_an_equivalence():
    # Values at one q compare by their canonical key, and values at two q
    # never compare equal, in either order: each q is a class of its own.
    a, b, c = qhalf(15, 5, 1), qhalf(3, 5, 3), qhalf(Fraction(3, 5), 5, 5)
    assert a == a and a == b and b == a and b == c and a == c
    for x, y in ((qhalf(3, 5), qhalf(3, 7)), (QHalfPower(0, 0, 5), QHalfPower(0, 0, 7))):
        assert x != y and y != x and not x == y and not y == x


def test_qhalf_takes_only_same_q_operands():
    # The program's quantities live at one place, so at one q.  Another q is
    # unequal and refused by * and /; a rational, even one the value equals,
    # is a foreign operand; and the class, which defines __eq__, has no hash.
    a, other_q = qhalf(3, 5), qhalf(3, 7)
    for op in (lambda x, y: x * y, lambda x, y: x / y):
        with pytest.raises(ValueError, match="^mismatched residue cardinalities 5 and 7$"):
            op(a, other_q)
        for rational in (3, Fraction(3)):
            assert a != rational and rational != a and not a == rational
            for x, y in ((a, rational), (rational, a)):
                with pytest.raises(TypeError):
                    op(x, y)
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


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
        assert lhs == rhs


@given(c=mixed_coeffs, h=halves, s=st.integers(-5, 5), q=st.sampled_from(PRIMES))
def test_qhalf_eq_across_even_shifts(c, h, s, q):
    # c q^(h/2) = (c / q^s) q^((h + 2s)/2); an int coefficient stays an int
    # where the shift allows it.
    shifted = c * q ** -s if s <= 0 else Fraction(c, q ** s)
    a, b = QHalfPower(c, h, q), QHalfPower(shifted, h + 2 * s, q)
    assert a == b
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
    assert disc_split(Fraction(18)) == (8, 3, 2)           # 18 = 8 (3/2)^2
    assert disc_split(Fraction(-20)) == (-20, 1, 1)
    assert disc_split(Fraction(9, 4)) == (1, 3, 2)
    assert disc_split(-1) == (-4, 1, 2)
    assert disc_split(-3) == (-3, 1, 1)
    assert disc_split(-23) == (-23, 1, 1)
    assert disc_split(2) == (8, 1, 2)
    assert disc_split(-1008) == (-7, 12, 1)                # t = 0, n = 252
    assert disc_split(Fraction(-15, 4)) == (-15, 1, 2)     # t = -1/2, n = 1
    assert is_fundamental_discriminant(-4)
    assert not is_fundamental_discriminant(-9)
    with pytest.raises(ValueError):
        disc_split(0)


def _reference_split(a, b):
    """(D0, f) of a/b by trial: the largest square dividing a b, then D0 = 1, 4 (mod 4)."""
    n = a * b
    s = max(k for k in range(1, math.isqrt(abs(n)) + 1) if n % (k * k) == 0)
    d = n // (s * s)
    D0 = d if d % 4 == 1 else 4 * d
    return D0, Fraction(s, b) * (1 if d % 4 == 1 else Fraction(1, 2))


def test_disc_split_matches_a_split_by_trial():
    for b in range(1, 31):
        for a in range(-300, 301):
            if a == 0:
                continue
            x = Fraction(a, b)
            D0, f_num, f_den = disc_split(x)
            assert math.gcd(f_num, f_den) == 1 and f_num > 0 and f_den > 0
            assert (D0, Fraction(f_num, f_den)) == _reference_split(x.numerator, x.denominator), x
            assert D0 == 1 or is_fundamental_discriminant(D0)


def test_fundamental_discriminants_by_definition():
    def squarefree(n):
        return n != 0 and all(n % (k * k) for k in range(2, math.isqrt(abs(n)) + 1))

    for D in range(-2000, 2001):
        expected = D != 1 and (D % 4 == 1 and squarefree(D)
                               or D % 4 == 0 and D // 4 % 4 in (2, 3) and squarefree(D // 4))
        assert is_fundamental_discriminant(D) == expected, D


# The trial-division loop, and the two functions that factor through it.
_TRIAL_ENTRIES = [
    pytest.param(is_squarefree, id="is_squarefree"),
    pytest.param(lambda n: list(_prime_powers(n)), id="_prime_powers"),
    pytest.param(disc_split, id="disc_split"),
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
    assert disc_split(Fraction(-p, 2 ** 39)) == (-8 * p, 1, 2 ** 21)


def test_trial_division_admits_large_n_that_factors_at_once():
    # Far above 10^12, but the cofactor drops below the bound's square after
    # small divisors, so the work is that of a small n.
    start = time.perf_counter()
    assert list(_prime_powers(10 ** 12 + 1)) == [(73, 1), (137, 1), (99990001, 1)]
    assert list(_prime_powers(-10 ** 29)) == [(2, 29), (5, 29)]
    assert is_squarefree(6 * 999_999_999_989) and not is_squarefree(2 ** 40)
    assert disc_split(-10 ** 29) == (-40, 5 * 10 ** 13, 1)
    # a square is not factored: 1000003^2 alone would pass the bound
    assert disc_split(Fraction(3, 1000003 ** 2)) == (12, 1, 2 * 1000003)
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


# -- to_json, the one serialization rule ------------------------------------


def test_to_json_prints_each_kind_of_value():
    assert to_json(Fraction(-3, 4)) == "-3/4"
    assert to_json(Fraction(6, 3)) == "2"
    assert to_json(qhalf(Fraction(-2, 3), 5, -1)) == {
        "coeff_num": "-2", "coeff_den": "3", "q": 5, "half_exp": -1}
    assert to_json(OrbitKind.RAM_ELLIPTIC) == "RamElliptic"
    assert to_json(Gl2OrbitClass(OrbitKind.HYPERBOLIC, 1, 3)) == {
        "kind": "Hyperbolic", "d": 1, "q": 3}
    assert to_json((Fraction(1, 2), [None, True], {"k": Fraction(5)})) == [
        "1/2", [None, True], {"k": "5"}]
    for x in (7, -1.5, "7", True, None):
        assert to_json(x) is x


def test_to_json_uses_a_records_own_json():
    payload = to_json(trace_formula(12, 2))
    # tau(2) = -24 = rhs_total * 2^5
    assert payload == {"k": 12, "n": 2, "identity_term": "0", "elliptic_term": "-23/32",
                       "hyperbolic_term": "-1/32", "rhs_total": "-3/4", "trace": "-24"}
    # JSON data converts to itself, so a payload may be extended and converted again
    assert to_json(payload) == payload


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "padic_orbits"


def test_only_exact_defines_a_serializer():
    # exact.to_json is the one rule for printing a value; a second to_json,
    # or the old frac_to_json, would restate it.  CriterionResult's
    # `to_json = to_json` binds the rule itself and is not a def.
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            defines = (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and node.name == "to_json" and path.stem != "exact")
            names = "frac_to_json" in (getattr(node, "id", None), getattr(node, "attr", None),
                                       getattr(node, "name", None))
            if defines or names:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"serialization outside exact.to_json: {found}"

import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from padic_orbits import pointcount
from padic_orbits.exact import QHalfPower, is_prime, is_squarefree, ord_p
from padic_orbits.localquad import QuadKind, classify_quad, norm1_volume, res_torus_volume
from padic_orbits.pointcount import (
    Constraint,
    NormEquation,
    _norm_one_2adic_image,
    count_mod,
    digit_table,
    raw_count_mod,
    volume_profile,
)

UNIT = Constraint.UNIT_NORM
ONE = Constraint.NORM_ONE


def eq(d, c):
    return NormEquation(d, c)


SQUAREFREE_D = [d for d in range(-30, 31) if is_squarefree(d)]
PRIMES_BELOW_60 = [p for p in range(2, 60) if is_prime(p)]
# (p, k) with p^k <= 343 = 7^3
PRIME_POWERS = [(p, k) for p in PRIMES_BELOW_60 for k in range(1, 9) if p ** k <= 343]


def loop_count(d, m, rhs, modulus):
    """Pairs (x, y) mod m with x^2 - d y^2 = rhs mod `modulus`, by double loop."""
    return sum(1 for x in range(m) for y in range(m) if (x * x - d * y * y - rhs) % modulus == 0)


def test_count_mod_examples():
    assert count_mod(eq(-1, UNIT), 3, 1) == 8      # q^2 - 1
    assert count_mod(eq(-1, ONE), 3, 1) == 4       # q + 1
    assert count_mod(eq(2, ONE), 2, 3) == 8        # 3-plane in (Z/8)^2


def test_count_mod_d3_counts_both_branches():
    # The even-x branch through (2, 1) is real: 2^2 - 3*1^2 = 1.
    assert count_mod(eq(3, ONE), 2, 3) == 8


@pytest.mark.xfail(strict=True,
                   reason="published table value 4 misses the even-x branch (2,1)")
def test_count_mod_d3_published_value():
    assert count_mod(eq(3, ONE), 2, 3) == 4


def test_squarefree_epsilon_required():
    with pytest.raises(ValueError):
        eq(12, ONE)


def test_budget_guard():
    with pytest.raises(ValueError, match="budget"):
        count_mod(eq(-1, UNIT), 101, 5)
    with pytest.raises(ValueError, match="budget"):
        raw_count_mod(eq(-1, ONE), 101, 5)
    # p^k is shown only once p and k are both small enough for it to print
    with pytest.raises(ValueError, match=r"^p\^k = 10510100501 must be at most 31622: "):
        count_mod(eq(-1, UNIT), 101, 5)
    with pytest.raises(ValueError, match=rf"^p = {2 ** 127 - 1} must be at most 31622: "):
        count_mod(eq(-1, UNIT), 2 ** 127 - 1, 1)


@pytest.mark.parametrize("count", [count_mod, raw_count_mod])
def test_budget_bounds_k_before_any_power(count):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^k = 1000000000 must be at most 14: "
                                         r"a count does O\(p\^k\) work"):
        count(eq(-1, ONE), 3, 10 ** 9)
    assert time.perf_counter() - start < 1.0   # 3^(2 * 10^9) alone has 3.2 * 10^9 bits


def test_volume_profile_checks_k_max_before_counting(monkeypatch):
    def refuse(*args):
        raise RuntimeError("counted before the budget check")

    monkeypatch.setattr(pointcount, "_congruence_count", refuse)
    with pytest.raises(ValueError, match=r"^k = 1000000000 must be at most 14: "
                                         r"a count does O\(p\^k\) work"):
        volume_profile(eq(-1, UNIT), 3, 10 ** 9)


@pytest.mark.parametrize("count", [count_mod, raw_count_mod])
@pytest.mark.parametrize("c", [UNIT, ONE])
@pytest.mark.parametrize("k", [0, -2])
def test_level_must_be_positive(count, c, k):
    with pytest.raises(ValueError, match="k must be >= 1"):
        count(eq(-1, c), 3, k)


@pytest.mark.parametrize("p", PRIMES_BELOW_60)
def test_unit_norm_counts_match_double_loop(p):
    # The norm is a unit iff it is nonzero mod p.  Past p = 13 the loop over
    # (Z/p^2)^2 is too slow; a pair mod p^2 then counts through its reduction.
    for d in SQUAREFREE_D:
        units = p * p - loop_count(d, p, 0, p)
        lifted = units * p * p if p > 13 else p ** 4 - loop_count(d, p * p, 0, p)
        for k, expected in ((1, units), (2, lifted)):
            assert count_mod(eq(d, UNIT), p, k) == expected, (d, k)
            assert raw_count_mod(eq(d, UNIT), p, k) == expected, (d, k)


@pytest.mark.parametrize("p, k", PRIME_POWERS)
def test_norm_one_congruence_count_matches_double_loop(p, k):
    m = p ** k
    for d in SQUAREFREE_D:
        assert raw_count_mod(eq(d, ONE), p, k) == loop_count(d, m, 1, m), d


ODD_PRIMES_TO_100 = [p for p in range(3, 101) if is_prime(p)]


@given(d=st.integers(-10 ** 4, 10 ** 4).filter(lambda d: d not in (0, 1) and is_squarefree(d)),
       p=st.sampled_from(ODD_PRIMES_TO_100), k=st.integers(1, 3))
def test_counts_match_literal_loop_and_closed_forms(d, p, k):
    # The literal (x, y) loop over (Z/p^k)^2, at the deepest k <= 3 with at
    # most 10^4 pairs, classifies each pair by its norm.
    while p ** (2 * k) > 10 ** 4:
        k -= 1
    m = p ** k
    norms = [(x * x - d * y * y) % m for x in range(m) for y in range(m)]
    units = sum(1 for v in norms if v % p)
    ones = norms.count(1)
    for count in (count_mod, raw_count_mod):
        assert count(eq(d, UNIT), p, k) == units
        assert count(eq(d, ONE), p, k) == ones
    # |2 sqrt(d)|_p at odd p, as in the torus-volume criterion
    prefactor = QHalfPower(Fraction(1), -ord_p(d, p), p)
    t = classify_quad(d, p)
    closed = res_torus_volume(t, p).vol_omega_T_Tc
    unit_k1 = count_mod(eq(d, UNIT), p, 1)
    assert QHalfPower(Fraction(unit_k1, p * p), 0, p) * prefactor == closed
    if p > 31:
        return
    assert QHalfPower(volume_profile(eq(d, UNIT), p, 3).volume, 0, p) * prefactor == closed
    if t.kind is not QuadKind.SPLIT:   # norm1_volume is stated for non-split kinds
        one = volume_profile(eq(d, ONE), p, 3).volume
        assert QHalfPower(one, 0, p) * prefactor == norm1_volume(t, p)


def test_raw_vs_image_counts():
    # At p = 2 the congruence count strictly overshoots the solution set.
    assert raw_count_mod(eq(2, ONE), 2, 3) == 16
    assert count_mod(eq(2, ONE), 2, 3) == 8
    # For odd p the curve is smooth and the two counts agree.
    for d, p in ((-1, 3), (2, 5), (5, 5), (3, 7)):
        for k in (1, 2, 3):
            assert raw_count_mod(eq(d, ONE), p, k) == count_mod(eq(d, ONE), p, k)


def test_volume_profile_unramified():
    prof = volume_profile(eq(-1, UNIT), 3, 3)
    assert prof.stabilized_from == 1
    assert prof.volume == Fraction(8, 9)
    assert [n for _, n in prof.counts] == [8, 8 * 9, 8 * 81]


def test_volume_profile_sqrt2():
    prof = volume_profile(eq(2, ONE), 2, 5)
    assert prof.volume == 1
    assert [n for _, n in prof.counts] == [1, 4, 8, 16, 32]
    assert prof.stabilized_from == 2
    # the raw congruence counts only settle at mod 8 (Hensel from a solution mod 8)
    assert [n for _, n in prof.raw_counts] == [2, 4, 16, 32, 64]


@pytest.mark.xfail(strict=True,
                   reason="published stabilization level 3 matches the raw counts, "
                          "not the solution-set counts the volume needs")
def test_volume_profile_sqrt2_published_stabilization():
    assert volume_profile(eq(2, ONE), 2, 5).stabilized_from == 3


def test_volume_profile_sqrt3():
    prof = volume_profile(eq(3, ONE), 2, 5)
    assert prof.volume == 1
    assert prof.stabilized_from == 1


@pytest.mark.xfail(strict=True,
                   reason="published volume 1/2 counts only the branch through (1,0); "
                          "witness 2^2 - 3*1^2 = 1")
def test_volume_profile_sqrt3_published_volume():
    assert volume_profile(eq(3, ONE), 2, 5).volume == Fraction(1, 2)


def test_smoothness_detection_odd_p():
    for d, p in ((-1, 3), (2, 5), (5, 5), (-1, 7), (7, 7)):
        assert volume_profile(eq(d, ONE), p, 3).stabilized_from == 1, (d, p)


def test_counts_invariant_under_unit_square_scaling():
    # d and d u^2 define the same algebra; counts mod p^k agree.
    for p, d, u in ((5, 2, 2), (3, -1, 2), (7, 3, 3)):
        k = 2
        base = raw_count_mod(eq(d, ONE), p, k)
        m = p ** k
        scaled = sum(
            1 for x in range(m) for y in range(m)
            if (x * x - d * u * u * y * y - 1) % m == 0
        )
        assert base == scaled


def rows_by_name(rows):
    return {f"{r.var}{r.index}": r for r in rows}


def test_digit_table_sqrt2():
    table = digit_table(eq(2, ONE), 4)
    assert len(table.components) == 1
    rows = rows_by_name(table.component_at((1, 0)).rows)
    assert rows["x0"].status == "forced" and rows["x0"].value == 1
    assert rows["y0"].status == "forced" and rows["y0"].value == 0
    assert rows["x1"].status == "free"
    assert rows["y1"].status == "free"
    assert rows["x2"].status == "affine" and rows["x2"].relation == "x1 + y1"
    assert rows["y2"].status == "free"


@pytest.mark.xfail(strict=True,
                   reason="published relation x2 = y1 fails on the solution (3, 2)")
def test_digit_table_sqrt2_published_x2_row():
    table = digit_table(eq(2, ONE), 4)
    rows = rows_by_name(table.component_at((1, 0)).rows)
    assert rows["x2"].relation == "y1"


def test_digit_table_sqrt3_identity_component():
    table = digit_table(eq(3, ONE), 3)
    comp = table.component_at((1, 0))
    rows = rows_by_name(comp.rows)
    assert rows["x0"].value == 1 and rows["y0"].value == 0
    assert rows["x1"].status == "free"
    assert rows["y1"].status == "forced" and rows["y1"].value == 0
    assert rows["x2"].status == "affine" and rows["x2"].relation == "x1"
    assert rows["y2"].status == "free"
    assert comp.volume == Fraction(1, 2)


def test_digit_table_sqrt3_even_branch():
    table = digit_table(eq(3, ONE), 3)
    comp = table.component_at((0, 1))
    assert comp.volume == Fraction(1, 2)
    assert table.volume_at_depth == 1


@pytest.mark.xfail(strict=True,
                   reason="published table forces x0 = 1 on the whole solution set; "
                          "witness 2^2 - 3*1^2 = 1")
def test_digit_table_sqrt3_published_forces_x0():
    table = digit_table(eq(3, ONE), 3)
    rows = rows_by_name(table.rows)
    assert rows["x0"].status == "forced" and rows["x0"].value == 1


def test_digit_table_requires_norm_one():
    with pytest.raises(ValueError):
        digit_table(eq(-1, UNIT), 3)
    with pytest.raises(ValueError):
        digit_table(eq(-1, ONE), 9)


def test_2adic_image_matches_deeper_projection(monkeypatch):
    # Hensel needs a lift buffer of 2 levels; projecting from 3 levels deeper
    # (the buffer digit_table once used) must give the same image.
    squarefree = [d for d in range(-50, 51) if is_squarefree(d)]
    images = {(d, k): _norm_one_2adic_image(d, k) for d in squarefree for k in range(1, 7)}
    for (d, k), image in images.items():
        assert digit_table(eq(d, ONE), k).pattern_count == count_mod(eq(d, ONE), 2, k) == len(image)
    monkeypatch.setattr(pointcount, "_P2_LIFT_BUFFER", 3)
    for (d, k), image in images.items():
        assert _norm_one_2adic_image(d, k) == image, (d, k)

from fractions import Fraction

import pytest

from padic_orbits.pointcount import (
    Constraint,
    NormEquation,
    count_mod,
    digit_table,
    raw_count_mod,
    volume_profile,
)

UNIT = Constraint.UNIT_NORM
ONE = Constraint.NORM_ONE


def eq(d, c):
    return NormEquation(d, c)


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


@pytest.mark.parametrize("count", [count_mod, raw_count_mod])
@pytest.mark.parametrize("c", [UNIT, ONE])
@pytest.mark.parametrize("k", [0, -2])
def test_level_must_be_positive(count, c, k):
    with pytest.raises(ValueError, match="k must be >= 1"):
        count(eq(-1, c), 3, k)


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

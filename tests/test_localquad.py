from fractions import Fraction

import pytest

from padic_orbits.exact import is_prime, is_squarefree, qhalf
from padic_orbits.localquad import (
    P2Detail,
    QuadKind,
    artin_L_at_1,
    chi_at_p,
    classify_quad,
    classnum_local_check,
    kronecker_symbol,
    norm1_report,
    norm1_volume,
    res_torus_volume,
)

SMALL_PRIMES = [p for p in range(2, 30) if is_prime(p)]
SQUAREFREE = [d for d in range(-30, 31) if d not in (0, 1) and is_squarefree(d)]


def test_classify_examples():
    assert classify_quad(5, 2).kind is QuadKind.UNRAMIFIED
    assert classify_quad(-1, 5).kind is QuadKind.SPLIT
    assert classify_quad(3, 3).kind is QuadKind.RAMIFIED
    t = classify_quad(2, 2)
    assert t.kind is QuadKind.RAMIFIED and t.p2_detail is P2Detail.TWICE_UNIT
    t = classify_quad(-1, 2)
    assert t.kind is QuadKind.RAMIFIED and t.p2_detail is P2Detail.UNIT_NON_SQUARE


def test_classify_rejects_bad_d():
    with pytest.raises(ValueError):
        classify_quad(12, 5)
    with pytest.raises(ValueError):
        classify_quad(1, 5)


def test_chi_examples():
    assert chi_at_p(-4, 5) == 1
    assert chi_at_p(-4, 2) == 0
    assert chi_at_p(-23, 2) == 1
    with pytest.raises(ValueError):
        chi_at_p(-9, 5)


def test_chi_consistent_with_classification():
    expected = {QuadKind.SPLIT: 1, QuadKind.UNRAMIFIED: -1, QuadKind.RAMIFIED: 0}
    for d in SQUAREFREE:
        disc = d if d % 4 == 1 else 4 * d
        for p in SMALL_PRIMES:
            assert chi_at_p(disc, p) == expected[classify_quad(d, p).kind], (d, p)


def test_kronecker_multiplicativity():
    for disc in (-4, -3, -23, -20, 8, 13):
        for m in range(1, 40):
            for n in range(1, 40):
                assert (kronecker_symbol(disc, m * n)
                        == kronecker_symbol(disc, m) * kronecker_symbol(disc, n))


def test_kronecker_matches_euler_criterion():
    # For odd prime p the Kronecker symbol is the Legendre symbol a^((p-1)/2) mod p.
    for p in range(3, 400, 2):
        if not is_prime(p):
            continue
        for a in range(-300, 300):
            euler = pow(a, (p - 1) // 2, p)
            assert kronecker_symbol(a, p) == (euler if euler <= 1 else -1), (a, p)


def test_artin_L_examples():
    assert artin_L_at_1(classify_quad(-1, 5), 3) == Fraction(9, 4)  # split shape
    assert artin_L_at_1(classify_quad(5, 2), 3) == Fraction(9, 8)
    assert artin_L_at_1(classify_quad(5, 5), 5) == Fraction(5, 4)


def test_artin_L_inverse_is_residue_point_count():
    # split: (q-1)^2/q^2 toral points; unramified: (q^2-1)/q^2
    for q in (3, 5, 7, 11):
        split = artin_L_at_1(classify_quad(-1, 5), q)
        unram = artin_L_at_1(classify_quad(5, 2), q)
        assert 1 / split == Fraction((q - 1) ** 2, q * q)
        assert 1 / unram == Fraction(q * q - 1, q * q)


def test_artin_L_inverse_against_enumeration():
    # cross-check with the brute-force residue counts of the unit-norm set
    from padic_orbits.pointcount import Constraint, NormEquation, count_mod

    for p in (3, 5, 7, 11, 13):
        for d in SQUAREFREE:
            if d % p == 0:
                continue
            t = classify_quad(d, p)
            n1 = count_mod(NormEquation(d, Constraint.UNIT_NORM), p, 1)
            assert Fraction(n1, p * p) == 1 / artin_L_at_1(t, p), (d, p)


def test_res_torus_volume_examples():
    split = res_torus_volume(classify_quad(-1, 5), 3)
    assert split.vol_omega_T_Tc == qhalf(Fraction(4, 9), 3)
    ram5 = res_torus_volume(classify_quad(5, 5), 5)
    assert ram5.vol_omega_T_Tc == qhalf(Fraction(4, 5), 5, -1)
    ram2 = res_torus_volume(classify_quad(2, 2), 2)
    assert ram2.vol_omega_T_Tc == qhalf(Fraction(1, 4), 2, -1)
    # d odd ramified at 2: sqrt(d) is a unit, so no half power survives
    ram2u = res_torus_volume(classify_quad(-1, 2), 2)
    assert ram2u.vol_omega_T_Tc == qhalf(Fraction(1, 4), 2)


def test_report_invariants():
    for d in SQUAREFREE:
        for p in (2, 3, 5, 7):
            rep = res_torus_volume(classify_quad(d, p), p)
            assert rep.vol_canonical_T0 * rep.L_factor_at_1 == 1
            assert rep.index_Tc_over_T0 == 1
            assert rep.index_unverified == (p == 2 and rep.local_type.kind is QuadKind.RAMIFIED)


def test_norm1_volume_examples():
    assert norm1_volume(classify_quad(5, 3), 3) == qhalf(Fraction(4, 3), 3)
    assert norm1_volume(classify_quad(5, 5), 5) == qhalf(2, 5, -1)
    assert norm1_volume(classify_quad(5, 7), 7) == qhalf(Fraction(8, 7), 7)


def test_norm1_p2_delegated_to_pointcount():
    with pytest.raises(ValueError, match="point"):
        norm1_volume(classify_quad(2, 2), 2)


def test_norm1_report_index():
    rep = norm1_report(classify_quad(5, 5), 5)
    assert rep.index_Tc_over_T0 == 2 and rep.vol_canonical_T0 == 1
    rep = norm1_report(classify_quad(5, 3), 3)
    assert rep.index_Tc_over_T0 == 1 and rep.vol_canonical_T0 == Fraction(4, 3)


def test_classnum_local_check_examples():
    assert classnum_local_check(-1, 3)
    assert classnum_local_check(-1, 2)
    assert classnum_local_check(-5, 5)


def test_classnum_local_check_small_sweep():
    for d in range(-1, -31, -1):
        if not is_squarefree(d):
            continue
        for p in SMALL_PRIMES:
            assert classnum_local_check(d, p), (d, p)

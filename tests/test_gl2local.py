from fractions import Fraction

import pytest

from padic_orbits.exact import qhalf
from padic_orbits.gl2local import (
    building_fixed_points,
    class_from_letter,
    conversion_factor,
    dgbar_scale,
    full_report,
    orbital_canonical_f0,
    orbital_geometric_f0,
    report_for_class,
)
from padic_orbits.weylsteinberg import Gl2OrbitClass, OrbitKind

F = Fraction
H, U, R = OrbitKind.HYPERBOLIC, OrbitKind.UNRAM_ELLIPTIC, OrbitKind.RAM_ELLIPTIC


def cls(kind, d, q):
    return Gl2OrbitClass(kind, d, q)


def test_canonical_examples():
    assert orbital_canonical_f0(cls(U, 0, 7)) == 1
    assert orbital_canonical_f0(cls(H, 2, 3)) == 9
    assert orbital_canonical_f0(cls(R, 1, 3)) == 4


def test_building_fixed_points_doubles_ramified():
    assert building_fixed_points(cls(R, 1, 3)) == 8
    assert building_fixed_points(cls(U, 1, 3)) == orbital_canonical_f0(cls(U, 1, 3))


def test_geometric_examples():
    assert orbital_geometric_f0(cls(H, 0, 3)) == qhalf(F(9, 4), 3)
    assert orbital_geometric_f0(cls(H, 4, 3)) == qhalf(F(9, 4), 3)
    assert orbital_geometric_f0(cls(U, 1, 3)) == qhalf(F(15, 8), 3)
    assert orbital_geometric_f0(cls(R, 0, 2)) == qhalf(2, 2)


def test_conversion_examples():
    assert conversion_factor(cls(H, 0, 3)) == qhalf(F(9, 4), 3)
    assert conversion_factor(cls(U, 1, 3)) == qhalf(F(3, 8), 3)
    assert conversion_factor(cls(R, 0, 5)) == qhalf(F(5, 4), 5)


def test_dgbar_examples():
    assert dgbar_scale(3) == F(8, 9)
    assert dgbar_scale(2) == F(3, 4)
    assert dgbar_scale(5) == F(24, 25)


def test_factorization_identity():
    for kind in (H, U, R):
        for q in (2, 3, 5, 7):
            for d in range(6):
                c = cls(kind, d, q)
                assert (orbital_geometric_f0(c)
                        == conversion_factor(c) * qhalf(orbital_canonical_f0(c), q))


def test_hyperbolic_norm():
    # O_can * |D|^(1/2) = 1 for split classes
    for q in (2, 3, 5):
        for d in range(5):
            c = cls(H, d, q)
            assert orbital_canonical_f0(c) * F(1, q) ** d == 1


def test_geometric_limit_monotone():
    for kind in (U, R):
        for q in (2, 3, 5, 7):
            base = 1 / (1 - F(1, q)) ** 2
            gaps = [abs(orbital_geometric_f0(cls(kind, d, q)).as_fraction() - base)
                    for d in range(8)]
            assert all(b < a for a, b in zip(gaps, gaps[1:]))
    for q in (2, 3):
        base = 1 / (1 - F(1, q)) ** 2
        assert all(orbital_geometric_f0(cls(H, d, q)).as_fraction() == base
                   for d in range(8))


def test_full_report_examples():
    rep = full_report(F(5), F(6), 5)
    assert rep.orbit_class == cls(H, 0, 5)
    assert rep.O_canonical == 1 and rep.O_geometric == qhalf(F(25, 16), 5)

    rep = full_report(F(1), F(6), 5)
    assert rep.orbit_class == cls(U, 0, 5)
    assert rep.O_geometric == qhalf(F(25, 24), 5)

    rep = full_report(F(0), F(5), 5)
    assert rep.orbit_class == cls(R, 0, 5)
    assert rep.O_geometric == qhalf(F(5, 4), 5)


def test_full_report_rejects_degenerate():
    with pytest.raises(ValueError):
        full_report(F(2), F(1), 5)


def test_geometric_consistent_with_dgbar_renormalization():
    # rescaling by vol(G_0) reproduces the same closed forms assembled the other way
    for kind in (H, U, R):
        for q in (2, 3, 5):
            for d in range(4):
                c = cls(kind, d, q)
                lhs = orbital_geometric_f0(c).as_fraction() * dgbar_scale(q)
                rhs = (conversion_factor(c) * qhalf(orbital_canonical_f0(c), q)
                       ).as_fraction() * dgbar_scale(q)
                assert lhs == rhs


def test_class_from_letter():
    assert class_from_letter("h", 2, 3) == cls(H, 2, 3)
    with pytest.raises(ValueError):
        class_from_letter("x", 0, 3)
    with pytest.raises(ValueError):
        Gl2OrbitClass(H, -1, 3)


def test_report_for_class_roundtrip():
    rep = report_for_class(cls(R, 2, 3))
    assert rep.O_geometric == rep.conversion * qhalf(rep.O_canonical, 3)


def test_report_for_class_corrupted_closed_form_is_arithmetic_error(monkeypatch):
    import padic_orbits.gl2local as gl2

    original = gl2.orbital_canonical_f0
    monkeypatch.setattr(gl2, "orbital_canonical_f0", lambda c: original(c) + 1)
    with pytest.raises(ArithmeticError, match="factorization identity violated"):
        report_for_class(cls(R, 2, 3))

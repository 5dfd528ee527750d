import random
from fractions import Fraction

import pytest

from padic_orbits.exact import abs_p, ord_p, qhalf
from padic_orbits.weylsteinberg import (
    Gl2OrbitClass,
    GroupKind,
    OrbitKind,
    SpectralData,
    chevalley_sl2_lie,
    delta_abs_gl2,
    gsp_charpoly_factor,
    sl2_jacobian,
    sp4_identity_check,
    sp4_jacobian,
    steinberg_sl2,
    steinberg_sp4,
    weyl_disc,
)

F = Fraction


def test_weyl_disc_examples():
    assert weyl_disc(SpectralData(GroupKind.GLN, (F(2), F(3)))) == F(-1, 6)
    assert weyl_disc(SpectralData(GroupKind.SP2N, (F(2),))) == F(-9, 4)
    assert weyl_disc(SpectralData(GroupKind.SLN_LIE, (F(3), F(-3)))) == -36


def test_weyl_disc_rejects_non_regular():
    with pytest.raises(ValueError, match="regular"):
        weyl_disc(SpectralData(GroupKind.GLN, (F(2), F(2))))
    with pytest.raises(ValueError, match="regular"):
        weyl_disc(SpectralData(GroupKind.SP2N, (F(1),)))  # 1/1 collides


def test_gsp2_matches_gl2():
    # With nu = l1 l2, GSp_2 is GL_2.
    for l1, l2 in ((F(2), F(3)), (F(5, 2), F(-1, 3)), (F(7), F(2))):
        gl = weyl_disc(SpectralData(GroupKind.GLN, (l1, l2)))
        gsp = weyl_disc(SpectralData(GroupKind.GSP2N, (l1,), multiplier=l1 * l2))
        assert gl == gsp


def test_sp2_lie_matches_sl2_lie():
    for t in (F(3), F(1, 2), F(-7, 3)):
        sp = weyl_disc(SpectralData(GroupKind.SP2N_LIE, (t,)))
        sl = weyl_disc(SpectralData(GroupKind.SLN_LIE, (t, -t)))
        assert sp == sl == -4 * t * t


def test_gln_disc_valuation_identity():
    # |D|_p = |prod_{i<j} (li - lj)^2|_p / |prod li|_p^(n-1)
    rng = random.Random(7)
    primes = (3, 5, 7)
    for _ in range(50):
        n = rng.choice((2, 3, 4))
        eigs = []
        while len(eigs) < n:
            x = F(rng.randint(-60, 60), rng.randint(1, 60))
            if x != 0 and x not in eigs:
                eigs.append(x)
        D = weyl_disc(SpectralData(GroupKind.GLN, tuple(eigs)))
        diff = F(1)
        for i in range(n):
            for j in range(i + 1, n):
                diff *= (eigs[i] - eigs[j]) ** 2
        det = F(1)
        for x in eigs:
            det *= x
        for p in primes:
            assert abs_p(D, p) == abs_p(diff, p) / abs_p(det ** (n - 1), p)
        # units-only spectra collapse the determinant factor entirely
        unit_eigs = []
        p = rng.choice(primes)
        while len(unit_eigs) < n:
            x = F(rng.randint(1, 60), rng.randint(1, 60))
            if x not in unit_eigs and ord_p(x, p) == 0:
                unit_eigs.append(x)
        D = weyl_disc(SpectralData(GroupKind.GLN, tuple(unit_eigs)))
        diff = F(1)
        for i in range(n):
            for j in range(i + 1, n):
                diff *= (unit_eigs[i] - unit_eigs[j]) ** 2
        assert abs_p(D, p) == abs_p(diff, p)


def _positive_roots_sl(eigs):
    n = len(eigs)
    return [eigs[i] - eigs[j] for i in range(n) for j in range(i + 1, n)]


def _positive_roots_sp(eigs):
    n = len(eigs)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            out += [eigs[i] - eigs[j], eigs[i] + eigs[j]]
    out += [2 * x for x in eigs]
    return out


def test_root_square_identity():
    # D(X) = (-1)^((dim - rank)/2) (prod over positive roots)^2
    rng = random.Random(11)
    for _ in range(30):
        a, b = F(rng.randint(1, 30)), F(rng.randint(31, 60))
        sl2 = (a, -a)
        sl3 = (a, b, -a - b)
        sp4 = (a, b)
        for kind, eigs, positive in (
            (GroupKind.SLN_LIE, sl2, _positive_roots_sl(sl2)),
            (GroupKind.SLN_LIE, sl3, _positive_roots_sl(sl3)),
            (GroupKind.SP2N_LIE, sp4, _positive_roots_sp(sp4)),
        ):
            D = weyl_disc(SpectralData(kind, eigs))
            sq = F(1)
            for r in positive:
                sq *= r
            assert D == (-1) ** len(positive) * sq * sq


def test_delta_abs_examples():
    absD, cls = delta_abs_gl2(F(5), F(6), 5)
    assert cls == Gl2OrbitClass(OrbitKind.HYPERBOLIC, 0, 5) and absD == qhalf(1, 5)
    absD, cls = delta_abs_gl2(F(0), F(-1), 3)
    assert cls.kind is OrbitKind.HYPERBOLIC and cls.d == 0
    absD, cls = delta_abs_gl2(F(1), F(6), 5)
    assert cls.kind is OrbitKind.UNRAM_ELLIPTIC and cls.d == 0 and absD == qhalf(1, 5)


def test_delta_abs_depth_from_conductor():
    # disc = -4, -16, -64 have conductors 1, 2, 4 over Q(i)
    for det, d_expected in ((F(1), 0), (F(4), 1), (F(16), 2)):
        _, cls = delta_abs_gl2(F(0), det, 2)
        assert cls.kind is OrbitKind.RAM_ELLIPTIC and cls.d == d_expected
    # odd p: disc = -p has depth 0, disc = -p^3 has depth 1
    _, cls = delta_abs_gl2(F(0), F(5), 5)
    assert (cls.kind, cls.d) == (OrbitKind.RAM_ELLIPTIC, 0)
    _, cls = delta_abs_gl2(F(0), F(125), 5)
    assert (cls.kind, cls.d) == (OrbitKind.RAM_ELLIPTIC, 1)


def test_delta_abs_ramified_valuation():
    # |D| = q^(-2d - ord_p(fundamental discriminant))
    absD, cls = delta_abs_gl2(F(0), F(5), 5)
    assert absD == qhalf(1, 5, -2)
    absD, cls = delta_abs_gl2(F(0), F(1), 2)   # gamma of order 4, disc -4
    assert absD == qhalf(1, 2, -4) and cls.d == 0


def test_delta_abs_depth_from_eigenvalue_valuations():
    # split classes built from unit eigenvalue pairs: d = ord_p(l1 - l2)
    rng = random.Random(23)
    for p in (3, 5, 7):
        for _ in range(30):
            a = rng.randint(1, 200)
            while a % p == 0:
                a = rng.randint(1, 200)
            for d_target in (0, 1, 2):
                b = a + p ** d_target * rng.choice((1, 2))
                if b % p == 0 or a == b or (b - a) % p ** (d_target + 1) == 0:
                    continue
                absD, cls = delta_abs_gl2(F(a + b), F(a * b), p)
                assert cls.kind is OrbitKind.HYPERBOLIC
                assert cls.d == d_target == ord_p(F(b - a), p)
                assert absD == qhalf(1, p, -4 * d_target)


def test_delta_abs_errors():
    with pytest.raises(ValueError, match="regular"):
        delta_abs_gl2(F(2), F(1), 5)
    with pytest.raises(ValueError, match="valuation"):
        delta_abs_gl2(F(1, 5), F(1, 25), 5)  # eigenvalues off the lattice


def test_delta_abs_odd_conductor_valuation_is_arithmetic_error(monkeypatch):
    import padic_orbits.weylsteinberg as ws

    # A corrupted square class: disc -4 over -8 leaves conductor^2 = 1/2.
    monkeypatch.setattr(ws, "squarefree_part", lambda x: -2)
    with pytest.raises(ArithmeticError, match="odd valuation"):
        delta_abs_gl2(F(0), F(1), 2)


def test_steinberg_sl2():
    assert steinberg_sl2(F(2)) == F(5, 2)
    assert steinberg_sl2(F(1)) == 2
    with pytest.raises(ValueError):
        steinberg_sl2(F(0))
    assert chevalley_sl2_lie(F(1), F(-1), F(0)) == 1


def test_sl2_jacobian():
    for t in (F(2), F(-3, 7), F(5, 4)):
        assert sl2_jacobian(t) == 1 - t ** -2


def test_steinberg_sp4_values():
    a, b = steinberg_sp4(F(2), F(3))
    assert a == F(35, 6)
    assert b == F(6) + F(3, 2) + F(2, 3) + F(1, 6) + 2 == F(31, 3)


def test_sp4_jacobian_degenerate_values():
    assert sp4_jacobian(F(5), F(5)) == 0
    assert sp4_jacobian(F(1), F(2)) == 0


def test_sp4_identity_check():
    chk = sp4_identity_check(F(2), F(3))
    assert chk.ok and chk.omega_sign in (1, -1)
    with pytest.raises(ValueError, match="degenerate"):
        sp4_identity_check(F(2), F(2))
    with pytest.raises(ValueError, match="degenerate"):
        sp4_identity_check(F(1), F(2))


def test_gsp_charpoly_factor():
    assert gsp_charpoly_factor(1, F(1), qhalf(1, 3, -4), 3) == qhalf(1, 3, -2)
    assert gsp_charpoly_factor(3, F(5), qhalf(1, 5, -4), 5) == qhalf(1, 5, 0)
    with pytest.raises(ValueError, match="quarter"):
        gsp_charpoly_factor(2, F(5), qhalf(1, 5, -4), 5)

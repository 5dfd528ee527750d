import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

import padic_orbits.exact as exact
import padic_orbits.weylsteinberg as ws
from padic_orbits.cli import main
from padic_orbits.exact import disc_split, ord_p
from padic_orbits.gl2local import full_report
from padic_orbits.localquad import QuadKind, classify_quad
from padic_orbits.weylsteinberg import (
    Gl2OrbitClass,
    GroupKind,
    OrbitKind,
    SpectralData,
    Sp4IdentityCheck,
    _Dual,
    class_from_split,
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


def test_weyl_disc_rank_two_pins():
    # Values of the per-family products before they shared one root table.
    assert weyl_disc(SpectralData(GroupKind.GLN, (F(2), F(3), F(-5)))) == F(-784, 225)
    assert weyl_disc(SpectralData(GroupKind.SP2N, (F(2), F(3)))) == F(100, 9)
    assert weyl_disc(SpectralData(GroupKind.GSP2N, (F(2), F(3, 5)), F(7))) == F(5793649, 157500)
    assert weyl_disc(SpectralData(GroupKind.SP2N_LIE, (F(1, 2), F(3)))) == F(11025, 4)


_small_nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


@given(group=st.sampled_from(GroupKind), eigs=st.lists(_small_nonzero, min_size=1, max_size=3),
       nu=_small_nonzero, data=st.data())
def test_weyl_disc_is_weyl_invariant(group, eigs, nu, data):
    # The Weyl group permutes the eigenvalues and, for the symplectic families,
    # swaps l with its partner nu/l (groups) or -l (Lie algebra).
    if group is GroupKind.SLN_LIE:
        eigs = eigs + [-sum(eigs)]
    multiplier = nu if group is GroupKind.GSP2N else None
    moved = data.draw(st.permutations(eigs))
    flips = data.draw(st.lists(st.booleans(), min_size=len(eigs), max_size=len(eigs)))
    if group in (GroupKind.SP2N, GroupKind.GSP2N):
        partner = multiplier or F(1)
        moved = [partner / x if f else x for x, f in zip(moved, flips)]
    elif group is GroupKind.SP2N_LIE:
        moved = [-x if f else x for x, f in zip(moved, flips)]

    def disc(e):
        try:
            return weyl_disc(SpectralData(group, tuple(e), multiplier))
        except ValueError as exc:  # non-regular spectra are rejected either way
            return str(exc)

    assert disc(moved) == disc(eigs)


# A small pool, so that repeats, l = +-1, l * l' = nu and (Lie) 0 are common.
_pool = st.sampled_from([F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(3), F(2, 3)])


@given(group=st.sampled_from(GroupKind), data=st.data())
def test_weyl_disc_rejects_exactly_the_repeated_spectra(group, data):
    lie = group in (GroupKind.SLN_LIE, GroupKind.SP2N_LIE)
    eigs = data.draw(st.lists(st.one_of(_pool, st.just(F(0))) if lie else _pool,
                              min_size=1, max_size=3))
    if group is GroupKind.SLN_LIE:
        eigs = eigs + [-sum(eigs)]
    multiplier = None
    if group is GroupKind.GSP2N:
        multiplier = data.draw(st.one_of(_pool, st.just(eigs[0] * eigs[-1])))
    # The full spectrum: l and its partner nu/l (Sp, GSp) or -l (sp).
    if group in (GroupKind.SP2N, GroupKind.GSP2N):
        spectrum = eigs + [(multiplier or 1) / x for x in eigs]
    elif group is GroupKind.SP2N_LIE:
        spectrum = eigs + [-x for x in eigs]
    else:
        spectrum = eigs
    s = SpectralData(group, tuple(eigs), multiplier)
    if len(set(spectrum)) == len(spectrum):
        assert weyl_disc(s) != 0
    else:
        with pytest.raises(ValueError, match="regular"):
            weyl_disc(s)


def test_weyl_disc_rejects_non_regular():
    with pytest.raises(ValueError, match="regular"):
        weyl_disc(SpectralData(GroupKind.GLN, (F(2), F(2))))
    with pytest.raises(ValueError, match="regular"):
        weyl_disc(SpectralData(GroupKind.SP2N, (F(1),)))  # 1/1 collides


# Small values, where one root can need more bits than its eigenvalues, and
# wide ones of up to 40 bits above and below.
_bit_pool = st.one_of(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                      st.fractions(min_value=-2 ** 40, max_value=2 ** 40,
                                   max_denominator=2 ** 40))


@given(group=st.sampled_from(GroupKind), eigs=st.lists(_bit_pool, min_size=1, max_size=5),
       nu=_bit_pool)
def test_print_bound_covers_the_discriminant(group, eigs, nu):
    # A budget one bit below the bits of D must refuse it: the bound is at least D's size.
    lie = group in (GroupKind.SLN_LIE, GroupKind.SP2N_LIE)
    if group is GroupKind.SLN_LIE:
        eigs = eigs + [-sum(eigs)]
    assume(lie or all(eigs))
    assume(group is not GroupKind.GSP2N or nu)
    s = SpectralData(group, tuple(eigs), nu if group is GroupKind.GSP2N else None)
    try:
        D = weyl_disc(s)
    except ValueError:   # not regular
        return
    bits = max(D.numerator.bit_length(), D.denominator.bit_length())
    assume(bits > 1)   # D = 1 when there is no root
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ws, "_PRINT_BITS", bits - 1)
        with pytest.raises(ValueError, match=rf"= \d+ must be at most {bits - 1}: "):
            weyl_disc(s)


def test_weyl_disc_print_budget_boundary(monkeypatch):
    # GL_n on 2, 3, ..., n + 1: the bound 2 R (2 * 6 + 2) passes 12000 bits at n = 30
    assert weyl_disc(SpectralData(GroupKind.GLN, tuple(map(F, range(2, 31))))) != 0

    def refuse(s):
        raise RuntimeError("roots built before the budget check")

    monkeypatch.setattr(ws, "_positive_roots", refuse)
    with pytest.raises(ValueError, match=r"^a bound on the bits of D\(gamma\) at 30 eigenvalues "
                                         r"= 12180 must be at most 12000: printed results"):
        weyl_disc(SpectralData(GroupKind.GLN, tuple(map(F, range(2, 32)))))


def test_orbit_class_checks_its_print_budget_before_primality(monkeypatch):
    def refuse(n):
        raise RuntimeError("primality tested before the print budget")

    monkeypatch.setattr(exact, "is_prime", refuse)
    with pytest.raises(ValueError, match=r"\(d = 5999, q = 3\) = 12002 must be at most 12000"):
        Gl2OrbitClass(OrbitKind.UNRAM_ELLIPTIC, 5999, 3)


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
    # |D|_p = |prod_{i<j} (li - lj)^2|_p / |prod li|_p^(n-1), in valuations
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
            assert ord_p(D, p) == ord_p(diff, p) - (n - 1) * ord_p(det, p)
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
        assert ord_p(D, p) == ord_p(diff, p)


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


def _orbit_class(trace, det, p):
    # the class of an element at p, as the orbital report reads it
    return full_report(trace, det, p).orbit_class


def _class_from_disc(trace, det, p):
    # the class at p read off the one split of trace^2 - 4 det
    return class_from_split(*disc_split(trace * trace - 4 * det), p)


def test_gl2_orbit_class_examples():
    assert _orbit_class(F(5), F(6), 5) == Gl2OrbitClass(OrbitKind.HYPERBOLIC, 0, 5)
    cls = _orbit_class(F(0), F(-1), 3)
    assert cls.kind is OrbitKind.HYPERBOLIC and cls.d == 0
    cls = _orbit_class(F(1), F(6), 5)
    assert cls.kind is OrbitKind.UNRAM_ELLIPTIC and cls.d == 0
    assert _class_from_disc(F(1), F(6), 5) == cls


def test_gl2_orbit_class_depth_from_conductor():
    # disc = -4, -16, -64 have conductors 1, 2, 4 over Q(i)
    for det, d_expected in ((F(1), 0), (F(4), 1), (F(16), 2)):
        cls = _orbit_class(F(0), det, 2)
        assert cls.kind is OrbitKind.RAM_ELLIPTIC and cls.d == d_expected
    # odd p: disc = -p has depth 0, disc = -p^3 has depth 1
    cls = _orbit_class(F(0), F(5), 5)
    assert (cls.kind, cls.d) == (OrbitKind.RAM_ELLIPTIC, 0)
    cls = _orbit_class(F(0), F(125), 5)
    assert (cls.kind, cls.d) == (OrbitKind.RAM_ELLIPTIC, 1)


def test_gl2_orbit_class_ramified_valuation():
    # ord_p(disc) = 2d + ord_p(fundamental discriminant)
    for trace, det, p, fundamental in (
        (0, 5, 5, -20),    # disc -20 = -20 * 1^2
        (0, 125, 5, -20),  # disc -500 = -20 * 5^2
        (0, 1, 2, -4),     # gamma of order 4, disc -4
        (2, 5, 2, -4),     # disc -16 = -4 * 2^2
    ):
        cls = _orbit_class(F(trace), F(det), p)
        assert cls.kind is OrbitKind.RAM_ELLIPTIC
        assert ord_p(trace * trace - 4 * det, p) == 2 * cls.d + ord_p(fundamental, p)


def test_gl2_orbit_class_depth_from_eigenvalue_valuations():
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
                cls = _orbit_class(F(a + b), F(a * b), p)
                assert cls.kind is OrbitKind.HYPERBOLIC
                assert cls.d == d_target == ord_p(F(b - a), p)


def test_gl2_orbit_class_errors():
    with pytest.raises(ValueError, match="regular"):
        _orbit_class(F(2), F(1), 5)
    for classify in (_orbit_class, _class_from_disc):   # eigenvalues off the lattice
        with pytest.raises(ValueError, match="valuation"):
            classify(F(1, 5), F(1, 25), 5)


def test_gl2_orbit_class_split_check_is_arithmetic_error(monkeypatch, capsys):
    # a factorization that drops the odd prime 23 of disc -23 cannot multiply back
    real = exact._prime_powers
    monkeypatch.setattr(exact, "_prime_powers",
                        lambda n: ((p, e) for p, e in real(n) if p % 2 == 0))
    for classify in (_orbit_class, _class_from_disc):
        with pytest.raises(ArithmeticError, match="does not multiply back"):
            classify(F(1), F(6), 5)
    assert main(["orbital", "--trace", "1", "--det", "6", "--p", "5"]) == 3
    assert json.loads(capsys.readouterr().out) == {
        "error": "the split of -23/1 as D0 f^2 does not multiply back"}


def _squarefree_part(x):
    # the squarefree d with x = d * (rational square), by trial division
    out = -1 if x < 0 else 1
    for n in (abs(x.numerator), x.denominator):
        k = 2
        while n > 1:
            e = 0
            while n % k == 0:
                n //= k
                e += 1
            out *= k ** (e % 2)
            k += 1
    return out


def _three_step_class(trace, det, p):
    """The class by the route that preceded the one split: the squarefree part
    d0, the fundamental discriminant of d0, the kind of Q_p(sqrt d0), and the
    depth as half of ord_p(disc / fundamental discriminant)."""
    disc = trace * trace - 4 * det
    d0 = _squarefree_part(disc)
    if d0 == 1:
        delta0, kind = 1, OrbitKind.HYPERBOLIC
    else:
        delta0 = d0 if d0 % 4 == 1 else 4 * d0
        kind = {QuadKind.SPLIT: OrbitKind.HYPERBOLIC,
                QuadKind.UNRAMIFIED: OrbitKind.UNRAM_ELLIPTIC,
                QuadKind.RAMIFIED: OrbitKind.RAM_ELLIPTIC}[classify_quad(d0, p).kind]
    twice_depth = ord_p(disc / delta0, p)
    assert twice_depth % 2 == 0
    if twice_depth < 0:
        raise ValueError("inconsistent valuation data: negative depth")
    return Gl2OrbitClass(kind, twice_depth // 2, p)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def test_gl2_orbit_class_matches_the_three_step_route():
    # traces in Z, Z/2, Z/3 and Z/4, with p = 2 and the primes dividing them
    traces = {F(k, m) for m in (1, 2, 3, 4) for k in range(-12, 13)}
    count = 0
    for trace in sorted(traces):
        for det in range(-20, 21):
            if trace * trace == 4 * det:
                continue
            for p in (2, 3, 5, 7):
                cls = _outcome(_class_from_disc, trace, F(det), p)
                assert cls == _outcome(_three_step_class, trace, F(det), p), (trace, det, p)
                count += isinstance(cls, str)
    assert count > 1000   # the negative depths of non-integral traces are compared too


def test_steinberg_sl2():
    assert steinberg_sl2(F(2)) == F(5, 2)
    assert steinberg_sl2(F(1)) == 2
    with pytest.raises(ValueError):
        steinberg_sl2(F(0))
    # int input stays exact: a Fraction, never a float
    assert type(steinberg_sl2(2)) is Fraction and steinberg_sl2(2) == F(5, 2)


def test_sl2_jacobian():
    for t in (F(2), F(-3, 7), F(5, 4)):
        assert sl2_jacobian(t) == 1 - t ** -2


def test_steinberg_sp4_values():
    a, b = steinberg_sp4(F(2), F(3))
    assert a == F(35, 6)
    assert b == F(6) + F(3, 2) + F(2, 3) + F(1, 6) + 2 == F(31, 3)
    coords = steinberg_sp4(2, 3)
    assert coords == (F(35, 6), F(31, 3)) and all(type(c) is Fraction for c in coords)
    for t1, t2 in ((0, 3), (F(2), F(0))):
        with pytest.raises(ValueError):
            steinberg_sp4(t1, t2)


def _value(x):
    """The value of a dual number as a reduced Fraction."""
    return F(x.n, x.den)


@given(t1=_small_nonzero, t2=_small_nonzero)
def test_dual_derivatives_of_the_maps_match_the_closed_forms(t1, t2):
    # One dual pass per variable differentiates the maps themselves; the
    # closed-form Jacobians are derived by hand, independently.
    assert steinberg_sl2(_Dual(t1, 1)).b == sl2_jacobian(t1)
    a1, b1 = steinberg_sp4(_Dual(t1, 1), t2)
    a2, b2 = steinberg_sp4(t1, _Dual(t2, 1))
    assert (_value(a1), _value(b1)) == (_value(a2), _value(b2)) == steinberg_sp4(t1, t2)
    assert a1.b * b2.b - a2.b * b1.b == sp4_jacobian(t1, t2)


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


class _FractionDual:
    """The reference: dual numbers a + b eps over Fractions, normalized at
    every step, as the package computed them before its duals carried
    integer numerators over one denominator."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __add__(self, o):
        if isinstance(o, _FractionDual):
            return _FractionDual(self.a + o.a, self.b + o.b)
        return _FractionDual(self.a + o, self.b)

    __radd__ = __add__

    def __mul__(self, o):
        if isinstance(o, _FractionDual):
            return _FractionDual(self.a * o.a, self.a * o.b + self.b * o.a)
        return _FractionDual(self.a * o, self.b * o)

    __rmul__ = __mul__

    def __rtruediv__(self, o):
        r = o / self.a
        return _FractionDual(r, -self.b * r / self.a)


def _reference_sp4_jacobian(t1, t2):
    t1, t2 = F(t1), F(t2)
    if t1 == 0 or t2 == 0:
        raise ValueError("torus coordinates must be nonzero")
    return (1 - t1 ** -2) * (1 - t2 ** -2) * (1 - 1 / (t1 * t2)) * (t1 - t2)


def _reference_sp4_identity_check(t1, t2):
    t1, t2 = F(t1), F(t2)
    jac = _reference_sp4_jacobian(t1, t2)
    pos_product = (1 - t1 / t2) * (1 - t1 * t2) * (1 - t1 * t1) * (1 - t2 * t2)
    if jac == 0 or pos_product == 0:
        raise ValueError("degenerate torus element: identity check needs a regular point")
    a1, b1 = steinberg_sp4(_FractionDual(t1, 1), t2)
    a2, b2 = steinberg_sp4(t1, _FractionDual(t2, 1))
    jac_ok = jac == a1.b * b2.b - a2.b * b1.b
    rhs = t1 * t1 * t2 * jac / pos_product
    lhs = 1 / (t1 * t2)
    sign = 1 if lhs == rhs else -1 if lhs == -rhs else 0
    return Sp4IdentityCheck(jac_ok, sign != 0, sign)


def _parts(x):
    if isinstance(x, _FractionDual):
        return F(x.a), F(x.b)
    return _value(x), x.b


# Signed numerators and denominators up to 10^6, and ints.
_BOUND = 10 ** 6
_nonzero = st.integers(-_BOUND, _BOUND).filter(bool)
_rational = st.one_of(st.builds(F, _nonzero, _nonzero), _nonzero)


@given(a=_rational, b=_rational, c=_rational, d=_rational)
def test_dual_steps_match_the_fraction_reference(a, b, c, d):
    x, y = _Dual(a, b), _Dual(c, d)
    rx, ry = _FractionDual(F(a), F(b)), _FractionDual(F(c), F(d))
    assert _parts(x) == (a, b) and x.den > 0
    for got, want in [(x + y, rx + ry), (x * y, rx * ry), (x + c, rx + c), (c + x, c + rx),
                      (x * c, rx * c), (c * x, c * rx), (c / x, c / rx), (F(1) / x, 1 / rx)]:
        assert _parts(got) == _parts(want)
        assert got.den > 0


@given(t1=_rational, t2=_rational)
def test_dual_columns_of_the_maps_match_the_fraction_reference(t1, t2):
    assert _parts(steinberg_sl2(_Dual(t1, 1))) == _parts(steinberg_sl2(_FractionDual(F(t1), 1)))
    # the other coordinate as a plain rational, as a constant dual, or seeded
    for other, ref in ((t2, t2), (_Dual(t2, 0), _FractionDual(F(t2), 0)),
                       (_Dual(t2, 1), _FractionDual(F(t2), 1))):
        got = steinberg_sp4(_Dual(t1, 1), other)
        want = steinberg_sp4(_FractionDual(F(t1), 1), ref)
        assert list(map(_parts, got)) == list(map(_parts, want))


@st.composite
def _points(draw):
    """Any rationals, and the partners of t1 that make (t1, t2) degenerate."""
    t1 = draw(st.one_of(_rational, st.sampled_from([1, -1, 0])))
    partners = [t1, F(1), F(-1), -t1, 0] + ([1 / F(t1)] if t1 else [])
    return t1, draw(st.one_of(_rational, st.sampled_from(partners)))


@given(point=_points())
@example(point=(F(3, 2), F(-5, 7)))
@example(point=(F(-1, 10 ** 6), F(10 ** 6, 7)))
@example(point=(2, 2))
@example(point=(0, 2))
def test_sp4_identity_check_matches_the_fraction_reference(point):
    for args in (point, point[::-1]):
        assert _outcome(sp4_jacobian, *args) == _outcome(_reference_sp4_jacobian, *args)
        assert _outcome(sp4_identity_check, *args) == _outcome(_reference_sp4_identity_check, *args)

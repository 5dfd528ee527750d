import itertools
import math
import operator
import os
import subprocess
import sys
import time
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import padic_orbits.quadglobal as qg
from padic_orbits.exact import is_fundamental_discriminant
from padic_orbits.localquad import field_disc, kronecker_symbol
from padic_orbits.quadglobal import (
    class_number,
    class_number_scan,
    cnf_report,
    dirichlet_L1,
    finite_adelic_volume,
    global_identity_check,
    hurwitz6_row,
    hurwitz_hw,
    quad_field_data,
)

F = Fraction


def test_class_number_examples():
    assert class_number(-4) == 1
    assert class_number(-23) == 3
    assert class_number(-3) == 1
    assert class_number(-163) == 1
    assert class_number(-15) == 2
    assert class_number(-12) == 1


def test_reduced_forms_minus_23():
    # (2, 1, 3) stands for (2, +-1, 3) as well: three classes
    triples = [t for t in qg._reduced_triples(-23) if math.gcd(*t) == 1]
    assert triples == [(1, 1, 6), (2, 1, 3)]


def test_walk_yields_reduced_triples():
    for D in range(-3, -3001, -1):
        if D % 4 in (0, 1):
            for a, b, c in qg._reduced_triples(D):
                assert 0 <= b <= a <= c and b * b - 4 * a * c == D, (D, a, b, c)


def test_class_number_rejects_bad_disc():
    for bad in (5, -1, -2, 0):
        with pytest.raises(ValueError):
            class_number(bad)


def test_two_counting_methods_agree():
    for D in range(-3, -501, -1):
        if D % 4 in (0, 1):
            assert class_number(D) == class_number_scan(D), D


def _reduced_triples(D):
    return list(qg._reduced_triples(D))


def _refuse(*args):
    raise RuntimeError("called where it must not be")


# Every entry point that walks or scans the forms of one discriminant.
_CLASS_NUMBER_ENTRIES = [_reduced_triples, class_number, class_number_scan]


@pytest.mark.parametrize("entry", _CLASS_NUMBER_ENTRIES, ids=lambda f: f.__name__)
def test_class_number_budget_rejects_large_disc_before_work(monkeypatch, entry):
    # every walk and scan sizes its loops and tables with isqrt
    monkeypatch.setattr(qg, "isqrt", _refuse)
    cap = qg._DISC_CAP
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"at most {cap}: the independent scan, "
                                         r"class_number_scan, does O\(\|D\|\) work"):
        entry(-(cap + 3))
    with pytest.raises(ValueError, match="at most"):
        entry(-10 ** 12)
    assert time.perf_counter() - start < 1.0   # a walk or scan at 10^12 would take hours


@pytest.mark.parametrize("entry", _CLASS_NUMBER_ENTRIES, ids=lambda f: f.__name__)
def test_class_number_budget_admits_the_cap(monkeypatch, entry):
    monkeypatch.setattr(qg, "_DISC_CAP", 1000)
    entry(-1000)
    with pytest.raises(ValueError, match="at most 1000"):
        entry(-1003)


@settings(deadline=None)
@given(st.integers(3, 2 * 10 ** 5).filter(lambda N: N % 4 in (0, 3)))
def test_walk_and_scan_agree_on_random_disc(N):
    D = -N
    assert class_number(D) == class_number_scan(D)


# Both bins of the benchmark's class-number items, [-4*10^6, -10^6) and
# [-10^7, -4*10^6), each with one D = 0 and one D = 1 (mod 4).
_LARGE_DISCS = [-1000003, -3999996, -4000004, -9999991]

# Orders f^2 D0 in Q(sqrt -1) and Q(sqrt -3), rich in forms on the boundary
# (b = 0, b = a or a = c), at h = f prod_{p | f} (1 - (D0/p)/p) / [O_K* : O*].
_LARGE_ORDERS = [
    (-4 * 1009 ** 2, 504), (-3 * 577 ** 2, 192), (-3 * 1000 ** 2, 600),
    (-3 * 999 ** 2, 324), (-4 * 1000 ** 2, 400), (-4 * 999 ** 2, 648),
]


@pytest.mark.parametrize("D", _LARGE_DISCS)
def test_scan_matches_walk_on_large_disc(D):
    assert class_number_scan(D) == class_number(D)


@pytest.mark.parametrize("D, h", _LARGE_ORDERS)
def test_scan_and_walk_on_large_orders(D, h):
    assert class_number_scan(D) == class_number(D) == h


def test_sieved_walk_matches_trial_division():
    for D in range(-3, -6001, -1):
        if D % 4 in (0, 1):
            assert list(qg._reduced_triples(D)) == _trial_division_walk(D), D


@pytest.mark.parametrize("D", _LARGE_DISCS + [D for D, _ in _LARGE_ORDERS])
def test_sieved_walk_matches_trial_division_on_large_disc(D):
    assert list(qg._reduced_triples(D)) == _trial_division_walk(D)


@pytest.mark.parametrize("D, h", [(-99999999, 6976), (-10 ** 8, 2000)])
def test_walk_at_the_cap(D, h):
    # both values agree with the trial-division walk and the scan
    assert class_number(D) == h
    assert class_number_scan(D) == h


def test_sqrt_mod_squares_back():
    # every odd prime below 3000, the ell = 1 (mod 8) Tonelli steps included
    odd_primes = [ell for ell in range(3, 3000, 2)
                  if all(ell % q for q in range(3, math.isqrt(ell) + 1, 2))]
    for ell in odd_primes:
        for a in {x * x % ell for x in range(ell)}:
            r = qg._sqrt_mod(a, ell)
            assert 0 <= r < ell and r * r % ell == a, (a, ell)


def test_scan_and_row_do_not_use_the_sieve(monkeypatch):
    Ds = (-3, -4, -23, -3 * 577 ** 2)
    scans = [class_number_scan(D) for D in Ds]
    rows = [hurwitz6_row(n) for n in (1, 2, 3, 27, 1000)]
    for name in ("_reduced_triples", "_sqrt_mod"):
        monkeypatch.setattr(qg, name, _refuse)
    assert [class_number_scan(D) for D in Ds] == scans == [1, 1, 3, 192]
    assert [hurwitz6_row(n) for n in (1, 2, 3, 27, 1000)] == rows


def test_scan_does_not_walk(monkeypatch):
    monkeypatch.setattr(qg, "_reduced_triples", _refuse)
    assert [class_number_scan(D) for D in (-3, -4, -23, -3 * 577 ** 2)] == [1, 1, 3, 192]


def test_walk_does_not_scan(monkeypatch):
    monkeypatch.setattr(qg, "class_number_scan", _refuse)
    assert [class_number(D) for D in (-3, -4, -23, -3 * 577 ** 2)] == [1, 1, 3, 192]


def test_pruned_scan_matches_unpruned_scan():
    # D = 1 and 5 (mod 8), and many non-fundamental orders
    for D in range(-3, -20001, -1):
        if D % 4 in (0, 1):
            assert class_number_scan(D) == _unpruned_scan(D), D


@pytest.mark.parametrize("D", _LARGE_DISCS + [D for D, _ in _LARGE_ORDERS])
def test_pruned_scan_matches_unpruned_scan_on_large_disc(D):
    assert class_number_scan(D) == _unpruned_scan(D)


@pytest.mark.parametrize("D", [-23, -183, -20003, -3 * 577 ** 2, -4000004, -4 * 1009 ** 2])
def test_scan_tests_exactly_the_a_with_no_empty_proper_divisor(monkeypatch, D):
    h = class_number(D)
    # the pruning reads no residue symbol, prime or square root, and no walk
    for name in ("kronecker_symbol", "is_prime", "_sqrt_mod", "_reduced_triples"):
        monkeypatch.setattr(qg, name, _refuse)
    tested = []
    filterfalse = qg.filterfalse

    def recording(pred, iterable):
        tested.append(pred.__self__)
        return filterfalse(pred, iterable)

    monkeypatch.setattr(qg, "filterfalse", recording)
    assert class_number_scan(D) == h
    # d is empty when b^2 = D (mod 4d) has no root; b mod 2d decides b^2 mod 4d
    top = math.isqrt(-D // 3)
    empty = [False] + [all((b * b - D) % (4 * d) for b in range(2 * d))
                       for d in range(1, top + 1)]
    assert tested == [a for a in range(1, top + 1)
                      if not any(empty[d] for d in range(1, a) if a % d == 0)]


def test_parity_stepped_scan_matches_full_b_range():
    for D in range(-3, -3001, -1):
        if D % 4 in (0, 1):
            assert class_number_scan(D) == _full_b_scan(D), D


def test_hurwitz6_matches_class_number_sum():
    # every D in [-5000, -3]: D = -4n at t = 0 and D = 1 - 4n at t = 1
    h = {}
    for n in range(1, 1251):
        row = hurwitz6_row(n)
        for t in (0, 1):
            D = t - 4 * n
            assert F(row[t], 6) == _hurwitz_from_class_numbers(D, h), D


@pytest.mark.parametrize("D, H", [
    (-3, F(1, 3)), (-12, F(4, 3)), (-27, F(4, 3)), (-48, F(10, 3)), (-75, F(7, 3)),
    (-108, F(16, 3)), (-4, F(1, 2)), (-16, F(3, 2)), (-36, F(5, 2)), (-64, F(7, 2)),
    (-100, F(5, 2)), (-144, F(15, 2)),
])
def test_hurwitz6_at_the_weighted_forms(D, H):
    # D = -3 m^2 and -4 m^2, m <= 6: m (x^2 + x y + y^2) weighs 1/3 and
    # m (x^2 + y^2) weighs 1/2; 6 H(|D|) is the row of n = (t^2 - D)/4 at
    # t = D mod 2
    t = D % 2
    assert hurwitz6_row((t * t - D) // 4)[t] == 6 * H


def test_hurwitz6_row_matches_weighted_walk():
    walk = {}
    for n in range(1, 1501):
        expected = []
        for t in range(math.isqrt(4 * n - 1) + 1):
            D = t * t - 4 * n
            if D not in walk:
                walk[D] = _weighted_walk(D)
            expected.append(walk[D])
        assert hurwitz6_row(n) == expected, n


@settings(deadline=None)
@given(st.integers(1, 2 * 10 ** 4), st.data())
def test_hurwitz6_row_on_random_n(n, data):
    row = hurwitz6_row(n)
    assert len(row) == math.isqrt(4 * n - 1) + 1
    t = data.draw(st.integers(0, len(row) - 1))
    assert row[t] == _weighted_walk(t * t - 4 * n)
    # Kronecker-Hurwitz: sum over all t in Z of H(4n - t^2), with H(0) = -1/12
    # at t = +-2 sqrt(n), is 2 sigma(n) - sum_{d | n} min(d, n/d); times 6
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    square = math.isqrt(n) ** 2 == n
    assert row[0] + 2 * sum(row[1:]) - square == 6 * (
        2 * sum(divisors) - sum(min(d, n // d) for d in divisors))


def test_hurwitz6_row_does_not_walk_or_scan(monkeypatch):
    expected = [hurwitz6_row(n) for n in (1, 2, 3, 27, 1000)]
    for name in ("_reduced_triples", "class_number", "class_number_scan"):
        monkeypatch.setattr(qg, name, _refuse)
    assert [hurwitz6_row(n) for n in (1, 2, 3, 27, 1000)] == expected
    # and once more from an empty table, so that building it is covered too
    monkeypatch.setattr(qg, "_ROOTS", [])
    assert [hurwitz6_row(n) for n in (1, 2, 3, 27, 1000)] == expected
    assert expected[:3] == [[3, 2], [6, 6, 3], [8, 6, 6, 2]]


@pytest.mark.parametrize("n", [0, qg._ROW_CAP + 1, 10 ** 12])
def test_hurwitz6_row_budget_rejects_before_work(monkeypatch, n):
    # the row sizes its tables with isqrt
    monkeypatch.setattr(qg, "isqrt", _refuse)
    built = len(qg._ROOTS)
    start = time.perf_counter()
    refusal = (r"^n must be a positive integer$" if n < 1 else
               rf"^n = {n} must be at most {qg._ROW_CAP}: the class-number row does O\(n\) work$")
    with pytest.raises(ValueError, match=refusal):
        hurwitz6_row(n)
    assert time.perf_counter() - start < 1.0
    assert len(qg._ROOTS) == built


def test_hurwitz6_row_budget_admits_the_cap(monkeypatch):
    monkeypatch.setattr(qg, "_ROW_CAP", 50)
    assert len(hurwitz6_row(50)) == 15
    with pytest.raises(ValueError, match="n = 51 must be at most 50"):
        hurwitz6_row(51)


def _is_square(x):
    return x >= 0 and math.isqrt(x) ** 2 == x


def test_hurwitz6_row_matches_row_reference():
    for n in range(1, 3001):
        assert hurwitz6_row(n) == _row_reference(n), n
    # The sweep reaches both edges of the band, for small and large a:
    # |D_t| = 4 a^2, the first t past the bulk, where (a, 0, a) weighs 3,
    # and |D_t| = 3 a^2, the last t of the band, where (a, a, a) weighs 2.
    for edge in (4, 3):
        edges = [(n, a) for n in range(1, 3001) for a in range(1, math.isqrt(4 * n // 3) + 1)
                 if _is_square(4 * n - edge * a * a)]
        assert (1, 1) in edges and max(a for _, a in edges) >= 50, edge


@settings(deadline=None, max_examples=20)
@given(st.integers(1, qg._ROW_CAP))
def test_hurwitz6_row_from_an_empty_table_on_random_n(n):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qg, "_ROOTS", [])
        assert hurwitz6_row(n) == _row_reference(n)


def test_row_table_counts_the_roots():
    # entry a - 1: weight[r] = #{b mod 2a : b^2 = r (mod 4a)}, the links
    # list the b <= a with b^2 = r (mod 4a) in increasing order, a + 1 ending,
    # and the getter reads the residues t^2 mod 4a of 0 <= t <= a, and of
    # t = 20 too at a = 19, so that no gather makes a 20-tuple
    hurwitz6_row(4000)
    for a, (weight, first, nxt, squares) in enumerate(qg._ROOTS[:73], 1):
        m = 4 * a
        assert list(weight) == [sum(b * b % m == r for b in range(2 * a)) for r in range(m)], a
        ts = range(21 if a == 19 else a + 1)
        assert squares(range(m)) == tuple(t * t % m for t in ts), a
        for r in range(m):
            roots, b = [], first[r]
            while b != a + 1:
                roots.append(b)
                b = nxt[b]
            assert roots == [b for b in range(a + 1) if b * b % m == r], (a, r)


@pytest.mark.parametrize("ns", [[9000, 1000, 40, 3], [3, 40, 1000, 9000]])
def test_row_table_does_not_depend_on_order(ns):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qg, "_ROOTS", [])
        for n in ns:
            assert hurwitz6_row(n) == _row_reference(n), (ns, n)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(1, 10 ** 4), min_size=1, max_size=6))
def test_row_table_only_grows_to_the_largest_n(ns):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qg, "_ROOTS", [])
        seen = []
        for i, n in enumerate(ns):
            hurwitz6_row(n)
            assert len(qg._ROOTS) == math.isqrt(4 * max(ns[:i + 1]) // 3), (ns, n)
            assert all(x is y for x, y in zip(seen, qg._ROOTS))
            seen = list(qg._ROOTS)


def test_row_table_is_one_compact_list(monkeypatch):
    monkeypatch.setattr(qg, "_ROOTS", [])
    hurwitz6_row(10 ** 4)
    table = qg._ROOTS
    assert [name for name, value in vars(qg).items() if isinstance(value, list)] == ["_ROOTS"]
    assert len(table) == 115
    for a, entry in enumerate(table, 1):
        assert type(entry) is tuple
        assert [type(x) for x in entry] == [bytes, array, array, operator.itemgetter]
        assert [len(x) for x in entry[:3]] == [4 * a, 4 * a, a + 1]
        assert len(entry[3].__reduce__()[1]) == (21 if a == 19 else a + 1)
        assert entry[1].typecode == entry[2].typecode == "H"
    # the getter's index tuple counts too: sys.getsizeof of an itemgetter
    # leaves it out; 187 KiB measured on CPython 3.11
    size = sys.getsizeof(table) + sum(
        sys.getsizeof(e) + sum(map(sys.getsizeof, e)) + sys.getsizeof(e[3].__reduce__()[1])
        for e in table)
    assert size <= 230 * 1024


def test_row_half_period_mirrors_and_rotates(monkeypatch):
    # the bulk's period for a: the getter over the rotated weights gives
    # weight[D_t mod 4a] for 0 <= t <= a (t <= a + 1 at a = 19), and the
    # mirror D_{2a-t} = D_t (mod 4a) the rest of 0 <= t < 2a
    monkeypatch.setattr(qg, "_ROOTS", [])
    hurwitz6_row(10800)
    assert len(qg._ROOTS) == 120
    for n in [*range(1, 41), 1000, 9973, 10800, 99991, qg._ROW_CAP]:
        N = 4 * n
        for a, (weight, _, _, squares) in enumerate(qg._ROOTS, 1):
            m = 4 * a
            s = -N % m
            half = bytes(squares(weight[s:] + weight[:s]))
            period = [weight[(t * t - N) % m] for t in range(2 * a)]
            assert list(half + half[2 * a - len(half):0:-1]) == period, (n, a)
    # the one 4-byte slot of a t never carries: the weights of a sum to 2a,
    # so a slot holds at most top (top + 1)
    assert all(sum(weight) == 2 * a for a, (weight, *_) in enumerate(qg._ROOTS, 1))
    top = math.isqrt(4 * qg._ROW_CAP // 3)
    assert top * (top + 1) < 2 ** 32   # 133,590 at the cap


def test_hurwitz_examples():
    assert hurwitz_hw(-3, 1) == F(1, 3)
    assert hurwitz_hw(-4, 1) == F(1, 2)
    assert hurwitz_hw(-8, 1) == 1
    assert hurwitz_hw(-12, 1) == 1   # the order Z[sqrt -3] has only the units +-1


def test_hurwitz_times_units_is_integral():
    for D in range(-3, -2001, -1):
        if D % 4 in (0, 1):
            u = 3 if D == -3 else 2 if D == -4 else 1
            assert (hurwitz_hw(D, class_number(D)) * u).denominator == 1


def _cnf(d):
    # the cnf command's route: the gate of d, the field built from its
    # discriminant, then the formula
    return cnf_report(quad_field_data(field_disc(d)))


def test_quad_field_data():
    K = quad_field_data(field_disc(-1))
    assert (K.d, K.disc, K.w, K.h) == (-1, -4, 4, 1)
    K = quad_field_data(field_disc(-3))
    assert (K.d, K.disc, K.w, K.h) == (-3, -3, 6, 1)
    K = quad_field_data(field_disc(-23))
    assert (K.d, K.disc, K.w, K.h) == (-23, -23, 2, 3)
    assert quad_field_data(-8).d == -2
    for d in (-12, 5, 0, 1):
        with pytest.raises(ValueError, match="^d must be a negative squarefree integer$"):
            field_disc(d)


def test_field_disc_is_the_split_of_a_negative_squarefree_d():
    # d is the D -> d rule of quad_field_data read back, and D is fundamental
    for d in range(-1, -301, -1):
        squarefree = all(d % (k * k) for k in range(2, 18))
        if not squarefree:
            with pytest.raises(ValueError, match="squarefree"):
                field_disc(d)
            continue
        disc = field_disc(d)
        assert is_fundamental_discriminant(disc) and disc == (d if d % 4 == 1 else 4 * d)
        assert quad_field_data(disc).d == d


def test_finite_adelic_volume():
    assert finite_adelic_volume(quad_field_data(-4)) == F(1, 4)
    assert finite_adelic_volume(quad_field_data(-3)) == F(1, 6)
    assert finite_adelic_volume(quad_field_data(-23)) == F(3, 2)


def test_dirichlet_L1_examples():
    val, err = dirichlet_L1(-4, 10 ** 6)
    assert err <= 4e-6
    assert abs(val - math.pi / 4) <= err
    val, err = dirichlet_L1(-3, 10 ** 6)
    assert abs(val - math.pi / (3 * math.sqrt(3))) <= err
    val, err = dirichlet_L1(-23, 10 ** 6)
    assert abs(val - 3 * math.pi / math.sqrt(23)) <= err


@pytest.mark.parametrize("disc", [-3, -4, -23, -104, -199])
@pytest.mark.parametrize("terms", [10 ** 4, 10 ** 5 + 7])
def test_dirichlet_L1_matches_direct_sum(disc, terms):
    M = terms // abs(disc) * abs(disc)
    direct = math.fsum(kronecker_symbol(disc, n) / n for n in range(1, M + 1))
    value, bound = dirichlet_L1(disc, terms)
    assert abs(value - direct) <= 1e-15
    assert bound == abs(disc) / M


def test_package_imports_without_numpy():
    code = ("import sys; sys.modules['numpy'] = None; "
            "import padic_orbits.cli; from padic_orbits.quadglobal import cnf_report, "
            "quad_field_data; sys.exit(not cnf_report(quad_field_data(-23)).ok)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_huge_term_budget_is_cheap():
    t0 = time.perf_counter()
    value, bound = dirichlet_L1(-23, 10 ** 12)
    assert abs(value - 3 * math.pi / math.sqrt(23)) <= bound + 1e-12
    assert time.perf_counter() - t0 < 0.5


def test_dirichlet_L1_budget_rejects_large_disc_before_work():
    cap = qg._L_DISC_CAP
    start = time.perf_counter()
    for disc in (-(cap + 3), -4 * (cap + 1), -(10 ** 18 + 3)):
        with pytest.raises(ValueError, match=rf"at most {cap}: L\(1, chi\) evaluates "
                                             r"2\|disc\| digamma values"):
            dirichlet_L1(disc, 10 ** 20)
    assert time.perf_counter() - start < 1.0   # 2 * 10^6 digamma values take seconds


def test_dirichlet_L1_budget_admits_the_cap(monkeypatch):
    monkeypatch.setattr(qg, "_L_DISC_CAP", 23)
    dirichlet_L1(-23, 10 ** 4)
    with pytest.raises(ValueError, match="at most 23"):
        dirichlet_L1(-24, 10 ** 4)


@pytest.mark.parametrize("entry, args", [(_cnf, (-9999991,)),
                                         (global_identity_check, (1, 2500000))],
                         ids=["cnf", "global-check"])
def test_L_budget_refuses_before_the_class_number_and_the_local_reports(
        monkeypatch, entry, args):
    # |disc| = 9999991 and 1111111: inside the class-number cap, past L(1, chi)'s
    monkeypatch.setattr(qg, "class_number", _refuse)
    monkeypatch.setattr(qg, "class_from_split", _refuse)
    monkeypatch.setattr(qg, "report_for_class", _refuse)
    with pytest.raises(ValueError, match=rf"must be at most {qg._L_DISC_CAP}: L\(1, chi\) "
                                         r"evaluates 2\|disc\| digamma values"):
        entry(*args)


def test_L_budget_comes_after_the_class_number_cap(monkeypatch):
    monkeypatch.setattr(qg, "class_number", _refuse)
    for refused in (lambda: _cnf(-(10 ** 9 + 7)),
                    lambda: global_identity_check(1, 10 ** 9 + 7)):
        with pytest.raises(ValueError, match=rf"at most {qg._DISC_CAP}: the independent scan"):
            refused()


def test_dirichlet_L1_preconditions():
    with pytest.raises(ValueError):
        dirichlet_L1(-9, 10 ** 4)
    with pytest.raises(ValueError):
        dirichlet_L1(-23, 10)


def test_cnf_residual_examples():
    assert _cnf(-1).residual < 1e-5
    assert _cnf(-23).residual < 1e-4
    rep = _cnf(-163)
    assert rep.field.h == 1 and rep.ok


def test_cnf_sweep_small():
    for disc in range(-3, -101, -1):
        if not is_fundamental_discriminant(disc):
            continue
        rep = cnf_report(quad_field_data(disc))
        assert rep.ok and rep.field.disc == disc, disc


def test_global_identity_examples():
    rep = global_identity_check(1, 6)
    assert rep.field.disc == -23 and rep.residual < 1e-4
    assert set(rep.primes_S) == {2, 3, 23}
    rep = global_identity_check(0, 1)
    assert rep.residual < 1e-5
    rep = global_identity_check(1, 1)
    assert rep.residual < 1e-5


def test_global_identity_off_s_triviality():
    rep = global_identity_check(1, 6)
    assert len(rep.off_S_samples) == 5
    assert all(v == 1 for v in rep.off_S_samples.values())


def test_global_identity_off_s_failure_is_arithmetic_error(monkeypatch):
    import padic_orbits.quadglobal as qg

    original = qg.report_for_class

    def corrupted(c):
        return original(c)._replace(O_canonical=Fraction(2))

    monkeypatch.setattr(qg, "report_for_class", corrupted)
    with pytest.raises(ArithmeticError, match="off-S canonical integral != 1 at p = 5"):
        global_identity_check(1, 6)


def test_global_identity_rejects_hyperbolic():
    with pytest.raises(ValueError):
        global_identity_check(5, 6)


def test_global_conductor_squared_times_field_disc_is_the_discriminant():
    # the conductor is the split's f; t = 0 or m and n = m^2 give
    # conductors m over the fields of discriminant -4 and -3
    pairs = [(t, n) for n in range(1, 25) for t in range(-9, 10) if t * t < 4 * n]
    pairs += [(t, m * m) for m in range(2, 40) for t in (0, m)]
    assert len(pairs) > 300
    for trace, det in pairs:
        rep = global_identity_check(trace, det)
        assert rep.conductor ** 2 * rep.field.disc == trace * trace - 4 * det, (trace, det)
    assert global_identity_check(0, 36 ** 2).conductor == 36
    assert global_identity_check(0, 252).conductor == 12   # disc -1008 = -7 * 12^2


def test_residual_within_proven_bound():
    for trace, det in ((1, 6), (0, 1), (1, 1), (0, 2), (2, 3)):
        rep = global_identity_check(trace, det)
        assert rep.ok, (trace, det, rep.residual, rep.bound)


# --------------------------------------------------------------------------
# References: the algorithms the package replaced, written out here so that
# no rule is taken from the code under test.


def _full_b_scan(D):
    # the a-first scan over every b in (-a, a], before the parity step
    count = 0
    a = 1
    while 3 * a * a <= abs(D):
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a:
                continue
            if b < 0 and a == c:
                continue
            if math.gcd(math.gcd(a, abs(b)), c) == 1:
                count += 1
        a += 1
    return count


def _unpruned_scan(D):
    # the parity-stepped scan before the pruning: every a <= sqrt(|D|/3)
    # tests a | (b^2 - D)/4 for each b = D (mod 2) with 0 <= b <= a
    parity = D % 2
    top = math.isqrt(-D // 3)
    norms = [(b * b - D) // 4 for b in range(parity, top + 1, 2)]
    count = 0
    for a in range(1, top + 1):
        for m in itertools.filterfalse(a.__rmod__, itertools.islice(norms, (a - parity) // 2 + 1)):
            c = m // a
            if c < a:
                continue
            b = math.isqrt(4 * m + D)
            if math.gcd(a, b, c) == 1:
                count += 2 if 0 < b < a and a != c else 1
    return count


def _trial_division_walk(D):
    # the walk before the sieve: for each b = D (mod 2) with 3 b^2 <= |D|,
    # every a with max(b, 1) <= a <= sqrt(m) dividing m = (b^2 - D) / 4
    triples = []
    b = D % 2
    while 3 * b * b <= -D:
        m = (b * b - D) // 4
        for a in range(max(b, 1), math.isqrt(m) + 1):
            if m % a == 0:
                triples.append((a, b, m // a))
        b += 2
    return triples


def _weighted_walk(D):
    # 6 H(|D|) on the walk: (a, 0, a) weighs 3, (a, a, a) weighs 2, the other
    # boundary triples 6 and the rest 12, which stand for (a, +-b, c)
    total = 0
    for a, b, c in qg._reduced_triples(D):
        if b == 0 or b == a or a == c:
            total += 3 if b == 0 and a == c else 2 if b == a == c else 6
        else:
            total += 12
    return total


def _hurwitz_from_class_numbers(D, h):
    # H(|D|) = sum of h(D/m^2)/u(D/m^2) over m with D/m^2 a discriminant;
    # h from the independent scan, memoized in the caller's dict
    total = F(0)
    m = 1
    while m * m <= -D:
        if D % (m * m) == 0 and (D // (m * m)) % 4 in (0, 1):
            d = D // (m * m)
            if d not in h:
                h[d] = class_number_scan(d)
            total += F(h[d], 3 if d == -3 else 2 if d == -4 else 1)
        m += 1
    return total


def _row_reference(n):
    # the row before the table: for each a, the b <= a grouped by b^2 mod 4a
    # in a dict built per call, and every (t, b) hit weighed in Python
    N = 4 * n
    discs = [t * t - N for t in range(math.isqrt(N - 1) + 1)]
    row = [0] * len(discs)
    a = 1
    while 3 * a * a <= N:
        m = 4 * a
        roots = {}
        for b in range(a + 1):
            roots.setdefault(b * b % m, []).append(b)
        span = math.isqrt(N - 3 * a * a) + 1
        hits = list(map(roots.get, map(operator.mod, discs[:span], itertools.repeat(m))))
        for t, bs in itertools.compress(enumerate(hits), hits):
            D = discs[t]
            for b in bs:
                c = (b * b - D) // m
                if c > a:
                    row[t] += 6 if b == 0 or b == a else 12
                elif c == a:
                    row[t] += 3 if b == 0 else 2 if b == a else 6
        a += 1
    return row

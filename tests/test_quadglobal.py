import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from padic_orbits.exact import is_fundamental_discriminant
from padic_orbits.localquad import kronecker_symbol
from padic_orbits.quadglobal import (
    ReducedForm,
    class_number,
    class_number_scan,
    cnf_report,
    cnf_residual,
    dirichlet_L1,
    finite_adelic_volume,
    global_identity_check,
    hurwitz_hw,
    quad_field_data,
    reduced_forms,
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
    forms = reduced_forms(-23)
    assert [(f.a, f.b, f.c) for f in forms] == [(1, 1, 6), (2, 1, 3), (2, -1, 3)]
    assert all(f.discriminant == -23 for f in forms)


def test_reduced_form_validation():
    with pytest.raises(ValueError):
        ReducedForm(2, 0, 2)       # imprimitive
    with pytest.raises(ValueError):
        ReducedForm(3, 1, 1)       # a > c
    with pytest.raises(ValueError):
        ReducedForm(2, -2, 3)      # boundary sign


def test_class_number_rejects_bad_disc():
    for bad in (5, -1, -2, 0):
        with pytest.raises(ValueError):
            class_number(bad)


def test_two_counting_methods_agree():
    for D in range(-3, -501, -1):
        if D % 4 in (0, 1):
            assert class_number(D) == class_number_scan(D), D


def test_hurwitz_examples():
    assert hurwitz_hw(-3) == F(1, 3)
    assert hurwitz_hw(-4) == F(1, 2)
    assert hurwitz_hw(-8) == 1


def test_hurwitz_times_units_is_integral():
    for D in range(-3, -2001, -1):
        if D % 4 in (0, 1):
            u = 3 if D == -3 else 2 if D == -4 else 1
            assert (hurwitz_hw(D) * u).denominator == 1


def test_quad_field_data():
    K = quad_field_data(-1)
    assert (K.disc, K.w, K.h) == (-4, 4, 1)
    K = quad_field_data(-3)
    assert (K.disc, K.w, K.h) == (-3, 6, 1)
    K = quad_field_data(-23)
    assert (K.disc, K.w, K.h) == (-23, 2, 3)
    with pytest.raises(ValueError):
        quad_field_data(-12)
    with pytest.raises(ValueError):
        quad_field_data(5)


def test_finite_adelic_volume():
    assert finite_adelic_volume(quad_field_data(-1)) == F(1, 4)
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
            "from padic_orbits import cnf_report; sys.exit(not cnf_report(-23, 10 ** 6).ok)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_huge_term_budget_is_cheap():
    t0 = time.perf_counter()
    rep = cnf_report(-23, 10 ** 12)
    assert rep.ok
    assert time.perf_counter() - t0 < 0.5


def test_dirichlet_L1_preconditions():
    with pytest.raises(ValueError):
        dirichlet_L1(-9, 10 ** 4)
    with pytest.raises(ValueError):
        dirichlet_L1(-23, 10)


def test_cnf_residual_examples():
    assert cnf_residual(-1, 10 ** 6) < 1e-5
    assert cnf_residual(-23, 10 ** 6) < 1e-4
    rep = cnf_report(-163, 10 ** 6)
    assert rep.field.h == 1 and rep.ok


def test_cnf_sweep_small():
    for disc in range(-3, -101, -1):
        if not is_fundamental_discriminant(disc):
            continue
        d = disc if disc % 2 else disc // 4
        rep = cnf_report(d, 10 ** 5)
        assert rep.ok, disc


def test_global_identity_examples():
    rep = global_identity_check(1, 6, 10 ** 6)
    assert rep.field.disc == -23 and rep.residual < 1e-4
    assert set(rep.primes_S) == {2, 3, 23}
    rep = global_identity_check(0, 1, 10 ** 6)
    assert rep.residual < 1e-5
    rep = global_identity_check(1, 1, 10 ** 6)
    assert rep.residual < 1e-5


def test_global_identity_off_s_triviality():
    rep = global_identity_check(1, 6, 10 ** 5)
    assert len(rep.off_S_samples) == 5
    assert all(v == "1" for v in rep.off_S_samples.values())


def test_global_identity_rejects_hyperbolic():
    with pytest.raises(ValueError):
        global_identity_check(5, 6)


def test_residual_within_proven_bound():
    for trace, det in ((1, 6), (0, 1), (1, 1), (0, 2), (2, 3)):
        rep = global_identity_check(trace, det, 2 * 10 ** 5)
        assert rep.ok, (trace, det, rep.residual, rep.bound)

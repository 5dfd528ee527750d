"""Acceptance gate: every criterion runs at its stated tolerance.

Two sub-checks reproduce published worked-example tables that direct
enumeration refutes with one-line integer witnesses (3^2 - 2*2^2 = 1 and
2^2 - 3*1^2 = 1).  Those literal table values are asserted below as strict
expected failures: the suite stays green while recording exactly which
published values cannot be reproduced and why.  Everything else must pass.
"""

import json
import math
import re
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from padic_orbits import acceptance
from padic_orbits.pointcount import Constraint, NormEquation, digit_table, volume_profile


def _report(result, limit_seconds):
    line = f"[{'PASS' if result.ok else 'FAIL'}] {result.key}: {result.seconds:.2f}s"
    print(line)
    for d in result.discrepancies:
        print(f"    published {d.reference!r} is irreproducible; computed {d.computed!r} "
              f"(witness: {d.witness})")
    assert result.ok, result.details
    assert result.seconds < limit_seconds, f"{result.key} exceeded {limit_seconds}s"


def test_criterion_1_torus_volumes_vs_point_counts():
    _report(acceptance.criterion_1_torus_volumes(), 30)


def test_criterion_2_digit_analysis():
    result = acceptance.criterion_2_digit_analysis()
    _report(result, 1)
    checks = {d.check for d in result.discrepancies}
    assert checks == {"d=2 digit table, x2 row", "d=3 digit table, completeness"}


def test_criterion_3_local_class_number_identity():
    _report(acceptance.criterion_3_local_cnf(), 10)


def test_criterion_4_gl2_factorization():
    _report(acceptance.criterion_4_gl2_factorization(), 1)


def test_criterion_5_analytic_class_number_formula():
    _report(acceptance.criterion_5_cnf(), 60)


def test_criterion_6_global_identity():
    _report(acceptance.criterion_6_global(), 60)


def test_criterion_7_trace_formula_vs_oracle():
    _report(acceptance.criterion_7_trace_formula(), 60)


def test_criterion_7_builds_one_hurwitz_row_per_n(monkeypatch):
    # 472 (k, n) checks at 50 distinct n: every weight at one n shares a row
    from padic_orbits import eichlerselberg

    real, calls = eichlerselberg.hurwitz6_row, []
    monkeypatch.setattr(eichlerselberg, "hurwitz6_row", lambda n: calls.append(n) or real(n))
    assert acceptance.criterion_7_trace_formula().ok
    assert sorted(calls) == list(range(1, 51))


def test_criterion_8_orbit_form_numerics():
    _report(acceptance.criterion_8_orbit_forms(), 5)


def test_criterion_9_jacobian_identities():
    _report(acceptance.criterion_9_jacobians(), 5)


def test_criterion_9_checks_a_fixed_grid_with_no_sampling(monkeypatch):
    from padic_orbits import weylsteinberg

    real, points = weylsteinberg.sp4_identity_check, []
    monkeypatch.setattr(weylsteinberg, "sp4_identity_check",
                        lambda t1, t2: points.append((t1, t2)) or real(t1, t2))
    monkeypatch.setattr(acceptance, "random", None)
    assert acceptance.criterion_9_jacobians().ok
    assert points == list(product(range(2, 12), range(20, 30)))


def test_criterion_9_fails_when_the_grid_realizes_both_omega_signs(monkeypatch):
    # The omega identity holds up to a sign; with both signs on the grid,
    # neither signed polynomial identity vanishes on all of it.
    from padic_orbits import weylsteinberg

    real = weylsteinberg.sp4_identity_check

    def one_flipped(t1, t2):
        chk = real(t1, t2)
        return replace(chk, omega_sign=-chk.omega_sign) if (t1, t2) == (2, 20) else chk

    monkeypatch.setattr(weylsteinberg, "sp4_identity_check", one_flipped)
    result = acceptance.criterion_9_jacobians()
    assert not result.ok
    assert result.details[1:] == [
        "FAIL omega signs +1 and -1 both realized: neither identity is proved"]


# The benchmark's golden record of reproduce-all, read here and never written.
_GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden_acceptance.json"


# The six criteria whose JSON holds no float: any change to their output,
# under any interpreter flag, is a change to what reproduce-all prints.
@pytest.mark.parametrize("key", ["torus-volumes", "digit-analysis", "local-cnf",
                                 "gl2-factorization", "trace-formula", "jacobians"])
def test_float_free_criteria_match_the_golden_record(key):
    got = dict(acceptance.CRITERIA)[key]().to_json()
    del got["seconds"]
    assert got == json.loads(_GOLDEN.read_text())[key]


def test_run_all_with_skip():
    results = acceptance.run_all({"cnf", "global-identity"})
    by_key = {r.key: r for r in results}
    assert by_key["cnf"].details == ["skipped"]
    assert by_key["global-identity"].details == ["skipped"]
    assert all(r.ok for r in results)


def test_corrupted_constant_trips_the_gate(monkeypatch):
    # mutating a closed form must make at least one criterion fail
    from padic_orbits import gl2local

    original = gl2local.orbital_canonical_f0

    def corrupted(c):
        return original(c) + 1

    monkeypatch.setattr(gl2local, "orbital_canonical_f0", corrupted)
    result = acceptance.criterion_4_gl2_factorization()
    assert not result.ok
    assert "FAIL factorization Hyperbolic q=2 d=0" in result.details


def _doubled(module, name):
    original = getattr(module, name)
    return module, name, lambda *args: 2 * original(*args)


def _failure_cases():
    from padic_orbits import eichlerselberg, kirillov, localquad, quadglobal, weylsteinberg
    from padic_orbits.pointcount import DigitConstraint

    sqrt3_table = list(acceptance._REFERENCE_TABLE_SQRT3)
    sqrt3_table[3] = DigitConstraint("y", 1, "free")
    cases = [
        (acceptance.criterion_1_torus_volumes, _doubled(localquad, "norm1_volume"),
         r"FAIL norm-one volume at p=3 d=-1$"),
        (acceptance.criterion_2_digit_analysis,
         (acceptance, "_REFERENCE_TABLE_SQRT3", tuple(sqrt3_table)),
         r"FAIL: d=3 identity-component row y1 free computed y1 = 0$"),
        (acceptance.criterion_3_local_cnf,
         (acceptance, "classnum_local_check", lambda d, p: (d, p) != (-23, 2)),
         r"FAIL at d=-23, p=2$"),
        (acceptance.criterion_5_cnf, _doubled(quadglobal, "cnf_target"),
         r"FAIL at disc=-3: residual \S+ > bound "),
        (acceptance.criterion_6_global, _doubled(quadglobal, "finite_adelic_volume"),
         r"FAIL: X\^2 - 1 X \+ 6: residual \S+ >= 1e-4$"),
        (acceptance.criterion_7_trace_formula, _doubled(eichlerselberg, "dim_cusp_forms"),
         r"FAIL dimension at k=12$"),
        (acceptance.criterion_8_orbit_forms, _doubled(kirillov, "sphere_density_spherical"),
         r"FAIL sphere density error \S+ at phi=\S+, theta="),
        (acceptance.criterion_9_jacobians, _doubled(weylsteinberg, "sl2_jacobian"),
         r"FAIL rank-1 derivative at t=-?\d+(/\d+)?$"),
    ]

    def wrong_sp4(t1, t2):
        s1, s2 = weylsteinberg.steinberg_sl2(t1), weylsteinberg.steinberg_sl2(t2)
        return s1 + s2, s1 * s2 + s1

    real_coeffs = eichlerselberg.eigenform_coeffs

    def wrong_coefficient(k, N):
        coeffs = real_coeffs(k, N)
        return coeffs[:6] + [coeffs[6] + 1] + coeffs[7:] if k == 16 else coeffs

    # Criterion 9 differentiates the maps themselves, so a wrong map fails it.
    maps = [
        ("steinberg_sl2", _doubled(weylsteinberg, "steinberg_sl2"),
         r"FAIL rank-1 derivative at t=-?\d+(/\d+)?$"),
        ("steinberg_sp4", (weylsteinberg, "steinberg_sp4", wrong_sp4),
         r"FAIL rank-2 identity at \(-?\d+(/\d+)?, -?\d+(/\d+)?\)$"),
    ]
    return ([pytest.param(*case, id=case[0].__name__) for case in cases]
            + [pytest.param(acceptance.criterion_7_trace_formula,
                            (eichlerselberg, "eigenform_coeffs", wrong_coefficient),
                            r"FAIL oracle at k=16, n=7$", id="criterion_7_trace_formula-oracle")]
            + [pytest.param(acceptance.criterion_9_jacobians, patch, pattern,
                            id=f"criterion_9_jacobians-{name}") for name, patch, pattern in maps])


@pytest.mark.parametrize("criterion, patch, fail_pattern", _failure_cases())
def test_failure_names_its_input(monkeypatch, criterion, patch, fail_pattern):
    # A corrupted closed form fails the criterion; its FAIL line, which comes
    # after the summary details, names the input it failed at.
    monkeypatch.setattr(*patch)
    result = criterion()
    assert not result.ok
    assert any(re.match(fail_pattern, line) for line in result.details), result.details


# -- published table values refuted by enumeration -------------------------


@pytest.mark.xfail(strict=True,
                   reason="published digit relation x2 = y1 for x^2 - 2y^2 = 1; "
                          "the solution (3, 2) has x2 = 0, x1 = y1 = 1")
def test_published_sqrt2_x2_row():
    table = digit_table(NormEquation(2, Constraint.NORM_ONE), 4)
    rows = {f"{r.var}{r.index}": r for r in table.component_at((1, 0)).rows}
    assert rows["x2"].relation == "y1"


@pytest.mark.xfail(strict=True,
                   reason="published table treats x0 = 1 as forced for "
                          "x^2 - 3y^2 = 1; the solution (2, 1) has x0 = 0")
def test_published_sqrt3_full_table():
    table = digit_table(NormEquation(3, Constraint.NORM_ONE), 3)
    rows = {f"{r.var}{r.index}": r for r in table.rows}
    assert rows["x0"].status == "forced" and rows["x0"].value == 1


@pytest.mark.xfail(strict=True,
                   reason="published volume 1/2 for x^2 - 3y^2 = 1 counts a single "
                          "branch; the even-x branch through (2, 1) doubles it")
def test_published_sqrt3_total_volume():
    prof = volume_profile(NormEquation(3, Constraint.NORM_ONE), 2, 5)
    assert prof.volume == Fraction(1, 2)


@pytest.mark.xfail(strict=True,
                   reason="published conversion coefficient -1/D; the realized "
                          "sign against D = -4t^2 is +1/D (signs are reported, "
                          "not fixed, by the orbit-form checks)")
def test_published_conversion_sign():
    from padic_orbits.kirillov import sl2_conversion_report
    rep = sl2_conversion_report(2.0)
    assert math.isclose(rep.coefficient, -1.0 / rep.weyl_disc, rel_tol=1e-12)

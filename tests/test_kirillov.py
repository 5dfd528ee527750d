import math
import random

import pytest

from padic_orbits import kirillov
from padic_orbits.kirillov import (
    cone_pullback_check,
    sl2_conversion_coefficient,
    sl2_conversion_report,
    sphere_density_spherical,
    sphere_form,
)


def test_cone_pullback_examples():
    assert abs(cone_pullback_check(1.0, 0.0) - 4.0) <= 1e-8
    assert abs(cone_pullback_check(2.0, math.pi / 2) - 4.0) <= 1e-8
    assert abs(cone_pullback_check(1.0, math.pi - 0.15) - 4.0) <= 1e-6


def test_cone_preconditions():
    with pytest.raises(ValueError):
        cone_pullback_check(0.01, 0.0)
    with pytest.raises(ValueError):
        cone_pullback_check(1.0, math.pi)


def test_cone_second_order_convergence(monkeypatch):
    rng = random.Random(3)
    ratios = []
    for _ in range(20):
        t = rng.uniform(0.5, 3.0)
        theta = rng.uniform(0.3, math.pi - 0.3)
        errs = []
        for h in (1e-3, 5e-4, 2.5e-4):
            monkeypatch.setattr(kirillov, "_STEP", h)
            errs.append(abs(cone_pullback_check(t, theta) - 4.0))
        if errs[1] > 1e-12 and errs[2] > 1e-12:
            ratios.append(errs[0] / errs[1])
            ratios.append(errs[1] / errs[2])
    ratios.sort()
    median = ratios[len(ratios) // 2]
    assert 3.0 <= median <= 5.0


def test_sphere_form_examples():
    assert sphere_form(0, 0, 1) == (-2.0, 0.0, -0.0)
    assert sphere_form(1, 0, 0) == (-0.0, 0.0, -2.0)
    assert sphere_form(0, 1, 0) == (-0.0, 2.0, -0.0)
    with pytest.raises(ValueError):
        sphere_form(0.5, 0.5, 0.5)


def test_sphere_rotational_invariance():
    rng = random.Random(5)
    for _ in range(100):
        z = rng.uniform(-1, 1)
        phi = rng.uniform(0, 2 * math.pi)
        r = math.sqrt(1 - z * z)
        x, y = r * math.cos(phi), r * math.sin(phi)
        f1, f2, f3 = sphere_form(x, y, z)
        assert abs(f1 * f1 + f2 * f2 + f3 * f3 - 4.0) < 1e-12


def test_sphere_density():
    rng = random.Random(9)
    for _ in range(100):
        phi = rng.uniform(0.1, math.pi - 0.1)
        theta = rng.uniform(0, 2 * math.pi)
        assert abs(sphere_density_spherical(phi, theta) - 2 * math.sin(phi)) <= 1e-8


def test_conversion_coefficient_values():
    assert sl2_conversion_coefficient(1.0) == -0.25
    assert sl2_conversion_coefficient(2.0) == -0.0625
    assert sl2_conversion_coefficient(-1.0) == -0.25  # even in t
    with pytest.raises(ValueError):
        sl2_conversion_coefficient(1e-6)


def test_conversion_report_product():
    for t in (0.5, 1.0, 2.0, 5.0):
        rep = sl2_conversion_report(t)
        assert abs(rep.product - 1.0) <= 1e-12
        assert rep.realized_sign == 1
        assert abs(abs(rep.coefficient) - 1.0 / abs(rep.weyl_disc)) <= 1e-12


def test_conversion_report_violation_is_arithmetic_error(monkeypatch, capsys):
    import json

    from padic_orbits.cli import main

    original = kirillov.sl2_conversion_coefficient
    monkeypatch.setattr(kirillov, "sl2_conversion_coefficient", lambda t: 2 * original(t))
    with pytest.raises(ArithmeticError, match="conversion coefficient off"):
        sl2_conversion_report(1.0)
    # the CLI reports it as a failed invariant (exit 3), not a traceback
    assert main(["kirillov", "--check", "conversion"]) == 3
    assert "conversion coefficient off" in json.loads(capsys.readouterr().out)["error"]


def test_conversion_report_witness_is_distance_from_one(monkeypatch):
    # A coefficient of the wrong sign gives product -1, which is 2.0 away from 1.
    original = kirillov.sl2_conversion_coefficient
    monkeypatch.setattr(kirillov, "sl2_conversion_coefficient", lambda t: -original(t))
    with pytest.raises(ArithmeticError, match=r"off \|D\|\^-1 by 2\.0$"):
        sl2_conversion_report(1.0)

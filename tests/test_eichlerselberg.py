from fractions import Fraction

import pytest

from padic_orbits.eichlerselberg import (
    PowerSeriesZ,
    dim_cusp_forms,
    eigenform_coeffs,
    eta_tau,
    gegenbauer_like,
    oracle_coefficient,
    trace_formula,
)

F = Fraction


def test_gegenbauer_examples():
    assert gegenbauer_like(5, 7, 0) == 1
    assert gegenbauer_like(0, 1, 10) == -1   # period-4 recurrence
    assert gegenbauer_like(1, 1, 10) == -1   # period-6 recurrence


def test_gegenbauer_matches_root_form():
    # U_j(t, n) (rho^(j+1) - rhobar^(j+1)) = rho - rhobar for X^2 - t X + n
    import cmath
    for t in range(-5, 6):
        for n in (1, 2, 3, 5):
            rho = (t + cmath.sqrt(t * t - 4 * n)) / 2
            bar = (t - cmath.sqrt(t * t - 4 * n)) / 2
            for j in (0, 1, 2, 5, 8):
                lhs = gegenbauer_like(t, n, j) * (rho - bar)
                rhs = rho ** (j + 1) - bar ** (j + 1)
                assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


def test_trace_12_1_term_by_term():
    tt = trace_formula(12, 1)
    assert tt.identity_term == F(11, 12)
    assert tt.elliptic_term == F(7, 12)
    assert tt.hyperbolic_term == F(-1, 2)
    assert tt.rhs_total == 1
    assert tt.trace == 1 == dim_cusp_forms(12)


def test_trace_examples():
    assert trace_formula(12, 2).trace == -24
    for n in range(1, 21):
        assert trace_formula(14, n).trace == 0


def test_trace_rejects_bad_weight():
    with pytest.raises(ValueError):
        trace_formula(13, 1)
    with pytest.raises(ValueError):
        trace_formula(2, 1)


def test_eta_tau_values():
    tau = eta_tau(10)
    assert tau[1] == 1
    assert tau[2] == -24
    assert tau[5] == 4830
    assert tau[1:8] == [1, -24, 252, -1472, 4830, -6048, -16744]


def test_eigenform_examples():
    assert eigenform_coeffs(12, 5) == [1, -24, 252, -1472, 4830]
    assert eigenform_coeffs(16, 2)[1] == 216
    with pytest.raises(ValueError, match="one-dimensional"):
        eigenform_coeffs(24, 5)


def test_eigenform_normalization_failure_is_arithmetic_error(monkeypatch):
    import padic_orbits.eichlerselberg as es

    monkeypatch.setattr(es, "eta_tau", lambda N: [0, 2] + [0] * (N - 1))
    with pytest.raises(ArithmeticError, match="weight 12"):
        eigenform_coeffs(12, 5)


def test_oracle_equality_spot():
    for k in (12, 16, 18, 20, 22, 26):
        coeffs = eigenform_coeffs(k, 30)
        for n in range(1, 31):
            assert trace_formula(k, n).trace == coeffs[n - 1], (k, n)


def test_dimension_oracle():
    dims = {4: 0, 10: 0, 12: 1, 14: 0, 16: 1, 24: 2, 26: 1, 36: 3, 38: 2, 40: 3}
    for k, dim in dims.items():
        assert dim_cusp_forms(k) == dim
    for k in range(4, 41, 2):
        assert trace_formula(k, 1).trace == dim_cusp_forms(k)


def test_hecke_multiplicativity_through_formula():
    t = {n: trace_formula(12, n).trace for n in (2, 3, 6)}
    assert t[6] == t[2] * t[3]


def test_oracle_coefficient_dispatch():
    assert oracle_coefficient(12, 2) == -24
    assert oracle_coefficient(14, 9) == 0
    with pytest.raises(ValueError):
        oracle_coefficient(24, 2)


def test_power_series_truncation():
    f = PowerSeriesZ([1, 1], 4)
    g = f * f
    assert g.coeffs == [1, 2, 1, 0, 0]
    h = PowerSeriesZ([1] * 5, 4) * PowerSeriesZ([1] * 5, 4)
    assert h.coeffs == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        PowerSeriesZ([1], 3) * PowerSeriesZ([1], 4)


def test_eta_tau_bounds():
    with pytest.raises(ValueError):
        eta_tau(0)
    with pytest.raises(ValueError):
        eta_tau(10 ** 5)

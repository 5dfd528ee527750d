"""Numeric checks of the symplectic 2-form on two rank-one coadjoint orbits.

Everything here is 64-bit floating point on purpose: the point is finite
difference verification of the closed-form pullbacks, not exact arithmetic.
Sign conventions for 2-forms depend on coordinate ordering, so the checks
compare magnitudes and report the realized sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .weylsteinberg import GroupKind, SpectralData, weyl_disc

_STEP = 1e-5   # the central-difference step h of the cone check


def _cone_point(t: float, theta: float) -> tuple[float, float, float]:
    # Parametrization of the half-cone orbit: (x, y, z) with z^2 + 4 x y = 0.
    return (t * (math.cos(theta) + 1.0), t * (math.cos(theta) - 1.0), t * math.sin(theta))


def cone_pullback_check(t: float, theta: float) -> float:
    """Pullback coefficient of (4/x) dx ^ dz through the cone parametrization.

    Central differences in (t, theta) of step h = ``_STEP``; the exact
    coefficient is 4 independently of the sample point, so the return value
    minus 4 is the discretization error, O(h^2).  The chart degenerates along
    x -> 0 (theta near pi), which is excluded.
    """
    if t < 0.1:
        raise ValueError("t must be at least 0.1")
    if abs(theta - math.pi) < 0.1:
        raise ValueError("theta must stay 0.1 away from pi (chart degenerates)")
    x, _, _ = _cone_point(t, theta)
    if abs(x) < 1e-6:
        raise ValueError("chart degeneracy: x coordinate vanished")
    h = _STEP
    xp_t, _, zp_t = _cone_point(t + h, theta)
    xm_t, _, zm_t = _cone_point(t - h, theta)
    xp_a, _, zp_a = _cone_point(t, theta + h)
    xm_a, _, zm_a = _cone_point(t, theta - h)
    dx_dt = (xp_t - xm_t) / (2 * h)
    dz_dt = (zp_t - zm_t) / (2 * h)
    dx_da = (xp_a - xm_a) / (2 * h)
    dz_da = (zp_a - zm_a) / (2 * h)
    return (4.0 / x) * (dx_dt * dz_da - dx_da * dz_dt)


def sphere_form(x: float, y: float, z: float) -> tuple[float, float, float]:
    """Coefficients (-2z, 2y, -2x) of the orbit 2-form at a unit-sphere point."""
    if abs(x * x + y * y + z * z - 1.0) > 1e-10:
        raise ValueError("point is not on the unit sphere")
    return (-2.0 * z, 2.0 * y, -2.0 * x)


def _form_value(p: tuple[float, float, float], u, v) -> float:
    f1, f2, f3 = sphere_form(*p)
    return (f1 * (u[0] * v[1] - u[1] * v[0])
            + f2 * (u[0] * v[2] - u[2] * v[0])
            + f3 * (u[1] * v[2] - u[2] * v[1]))


def sphere_density_spherical(phi: float, theta: float) -> float:
    """|form(d_phi, d_theta)| in spherical coordinates; expected 2 sin(phi)."""
    if not 0.0 < phi < math.pi:
        raise ValueError("phi must lie strictly between 0 and pi")
    p = (math.sin(phi) * math.cos(theta), math.sin(phi) * math.sin(theta), math.cos(phi))
    d_phi = (math.cos(phi) * math.cos(theta), math.cos(phi) * math.sin(theta), -math.sin(phi))
    d_theta = (-math.sin(phi) * math.sin(theta), math.sin(phi) * math.cos(theta), 0.0)
    return abs(_form_value(p, d_phi, d_theta))


@dataclass(frozen=True)
class ConversionReport:
    t: float
    coefficient: float       # geometric-form / orbit-form coefficient ratio
    weyl_disc: float         # D(t h) = -4 t^2, exact via eigenvalues
    product: float           # coefficient * D, expected 1
    realized_sign: int       # sign of coefficient relative to 1/D

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "coefficient": self.coefficient,
            "weyl_disc": self.weyl_disc,
            "coefficient_times_disc": self.product,
            "realized_sign": self.realized_sign,
        }


def sl2_conversion_coefficient(t: float) -> float:
    """Ratio of the geometric fiber form to the orbit 2-form at diag(t, -t).

    The geometric form there is -1/(2t) dx ^ dy against the orbit form
    2t dx ^ dy, giving -1/(4 t^2); its magnitude is |D(t h)|^(-1).
    """
    if abs(t) < 1e-3:
        raise ValueError("|t| must be at least 1e-3 (regular semisimple)")
    geometric = -1.0 / (2.0 * t)
    orbit_form = 2.0 * t
    return geometric / orbit_form


def sl2_conversion_report(t: float) -> ConversionReport:
    coeff = sl2_conversion_coefficient(t)
    ft = Fraction(t)
    disc = float(weyl_disc(SpectralData(GroupKind.SLN_LIE, (ft, -ft))))
    product = coeff * disc
    if abs(product - 1.0) > 1e-12:
        raise ArithmeticError(f"conversion coefficient off |D|^-1 by {abs(product - 1.0)}")
    sign = 1 if coeff * (1.0 / disc) > 0 else -1
    return ConversionReport(t, coeff, disc, product, sign)

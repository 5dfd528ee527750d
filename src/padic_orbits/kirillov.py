"""Numeric checks of the symplectic 2-form on two rank-one coadjoint orbits,
and the exact sl(2) conversion coefficient to the geometric measure.

The orbit-form checks are 64-bit floating point on purpose: the point is
finite difference verification of the closed-form pullbacks.  The
conversion coefficient is a rational function of t and is checked exactly,
sign included: the gate requires it to be +1/D(t h), so the report's
realized sign is always 1.  Sign conventions for 2-forms depend on
coordinate ordering, so the orbit-form checks compare magnitudes.
"""

import math
import random
from fractions import Fraction
from typing import NamedTuple

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
    if not t >= 0.1:
        raise ValueError("t must be at least 0.1")
    if not abs(theta - math.pi) >= 0.1:
        raise ValueError("theta must stay 0.1 away from pi (chart degenerates)")
    x, _, _ = _cone_point(t, theta)
    if not abs(x) >= 1e-6:
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
    if not abs(x * x + y * y + z * z - 1.0) <= 1e-10:
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


class ConversionReport(NamedTuple):
    t: Fraction
    coefficient: Fraction              # geometric-form / orbit-form coefficient ratio
    weyl_disc: Fraction                # D(t h) = -4 t^2, exact via eigenvalues
    coefficient_times_disc: Fraction   # expected 1
    realized_sign: int                 # sign of coefficient relative to 1/D


def sl2_conversion_coefficient(t: Fraction) -> Fraction:
    """Ratio of the geometric fiber form to the orbit 2-form at diag(t, -t).

    The geometric form there is -1/(2t) dx ^ dy against the orbit form
    2t dx ^ dy, giving -1/(4 t^2) exactly for any rational t != 0; its
    magnitude is |D(t h)|^(-1).
    """
    t = Fraction(t)
    if not t:
        raise ValueError("t must be nonzero (regular semisimple)")
    geometric = -1 / (2 * t)
    orbit_form = 2 * t
    return geometric / orbit_form


def sl2_conversion_report(t: Fraction) -> ConversionReport:
    t = Fraction(t)
    coeff = sl2_conversion_coefficient(t)
    disc = weyl_disc(SpectralData(GroupKind.SLN_LIE, (t, -t)))
    product = coeff * disc
    if product != 1:
        raise ArithmeticError(f"t={t}: conversion coefficient times D(t h) = {product}, "
                              f"off 1 by {abs(product - 1)}")
    return ConversionReport(t, coeff, disc, product, 1)   # the gate leaves coeff = +1/D


def _worse(error: float, worst: float) -> bool:
    # error replaces worst when it is larger or is the first NaN, which no
    # comparison reports: a NaN sample stays the worst
    return error > worst or math.isnan(error) and not math.isnan(worst)


class WorstSample(NamedTuple):
    samples: int
    error: float      # the largest absolute error over the samples, or NaN
    witness: str      # the first sample point where it occurs


def orbit_form_samples() -> tuple[WorstSample, WorstSample, tuple]:
    """Criterion 8's worst cone and sphere errors, and the ConversionReport at
    t = 1/2, 1, 2, 5.  One Random(20240817) draws the 20 cone points, then the
    100 sphere points; only the worst point of each is formatted.  The worst
    is the first point of the largest error, or the first NaN if any."""
    rng = random.Random(20240817)
    cone = 0.0, None, None
    for _ in range(20):
        t = rng.uniform(0.5, 3.0)
        theta = rng.uniform(0, 2 * math.pi)
        if abs(theta - math.pi) < 0.15:   # nudge the sample off the degenerate chart
            theta = (theta + 1.0) % (2 * math.pi - 0.3)
        error = abs(cone_pullback_check(t, theta) - 4.0)
        if _worse(error, cone[0]):
            cone = error, t, theta
    sphere = 0.0, None, None
    for _ in range(100):
        phi = rng.uniform(0.1, math.pi - 0.1)
        theta = rng.uniform(0, 2 * math.pi)
        error = abs(sphere_density_spherical(phi, theta) - 2 * math.sin(phi))
        if _worse(error, sphere[0]):
            sphere = error, phi, theta
    return (WorstSample(20, cone[0], "t={}, theta={}".format(*cone[1:])),
            WorstSample(100, sphere[0], "phi={}, theta={}".format(*sphere[1:])),
            tuple(map(sl2_conversion_report, (Fraction(1, 2), 1, 2, 5))))

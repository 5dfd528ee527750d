"""GL2 orbital integrals of the unit spherical function, both normalizations.

The canonical normalization gives the centralizer's maximal compact volume 1;
the geometric normalization comes from the fibration over the trace/det
plane.  Both sides are closed forms in (kind, depth, q), and the conversion
factor between them is computed independently so the factorization identity
is an actual check rather than a definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import QHalfPower, _require_prime, frac_to_json, qhalf
from .weylsteinberg import Gl2OrbitClass, OrbitKind, delta_abs_gl2


def orbital_canonical_f0(c: Gl2OrbitClass) -> Fraction:
    """Orbital integral of 1_{GL2(O)} with vol(T^c) = 1 on the centralizer.

    Hyperbolic: q^d.  Unramified elliptic: 1 + (q+1)(q^d - 1)/(q - 1).
    Ramified elliptic: (q^(d+1) - 1)/(q - 1); this is half the fixed-point
    count, which is normalized to vol(Z\\T) = 1 instead (see
    ``building_fixed_points``).
    """
    q = Fraction(c.q)
    if c.kind is OrbitKind.HYPERBOLIC:
        return q ** c.d
    if c.kind is OrbitKind.UNRAM_ELLIPTIC:
        return 1 + (q + 1) * (q ** c.d - 1) / (q - 1)
    return (q ** (c.d + 1) - 1) / (q - 1)


def building_fixed_points(c: Gl2OrbitClass) -> Fraction:
    """Fixed-point count on the tree: 2 * O_can for ramified classes, else O_can."""
    mult = 2 if c.kind is OrbitKind.RAM_ELLIPTIC else 1
    return mult * orbital_canonical_f0(c)


def orbital_geometric_f0(c: Gl2OrbitClass) -> QHalfPower:
    """Orbital integral of 1_{GL2(O)} in the geometric normalization."""
    q = Fraction(c.q)
    base = 1 / (1 - 1 / q) ** 2
    if c.kind is OrbitKind.HYPERBOLIC:
        val = base
    elif c.kind is OrbitKind.UNRAM_ELLIPTIC:
        val = base * (1 - Fraction(2, q + 1) * q ** -c.d)
    else:
        val = base * (1 - q ** -(c.d + 1))
    return qhalf(val, c.q)


def abs_weyl_disc_half(c: Gl2OrbitClass) -> QHalfPower:
    """|D|^(1/2) of the class: q^-d split/unramified, q^(-d-1/2) ramified."""
    half_exp = -2 * c.d - (1 if c.kind is OrbitKind.RAM_ELLIPTIC else 0)
    return QHalfPower(Fraction(1), half_exp, c.q)


def _formal_torus_volume(c: Gl2OrbitClass) -> QHalfPower:
    # vol(T^c) with respect to the character form, formal in q: the odd-p
    # ramified value q^(-1/2)(1 - 1/q) is used for every q, matching the
    # closed forms above (the p = 2 arithmetic corrections live in localquad).
    q = Fraction(c.q)
    if c.kind is OrbitKind.HYPERBOLIC:
        return qhalf((1 - 1 / q) ** 2, c.q)
    if c.kind is OrbitKind.UNRAM_ELLIPTIC:
        return qhalf((1 - 1 / q) * (1 + 1 / q), c.q)
    return qhalf(1 - 1 / q, c.q, half_exp=-1)


def conversion_factor(c: Gl2OrbitClass) -> QHalfPower:
    """|D|^(1/2) / vol(T^c): multiplies O_canonical into O_geometric."""
    return abs_weyl_disc_half(c) / _formal_torus_volume(c)


def dgbar_scale(q: int) -> Fraction:
    """L(1, sigma_G) * vol(G_0) = (1 - 1/q)(1 + 1/q) for GL2."""
    _require_prime(q)
    qq = Fraction(q)
    return (1 - 1 / qq) * (1 + 1 / qq)


@dataclass(frozen=True)
class OrbitalReport:
    orbit_class: Gl2OrbitClass
    abs_weyl_disc: QHalfPower
    O_canonical: Fraction
    O_geometric: QHalfPower
    conversion: QHalfPower
    dgbar: Fraction

    def to_json(self) -> dict:
        return {
            "class": self.orbit_class.to_json(),
            "abs_weyl_disc": self.abs_weyl_disc.to_json(),
            "O_canonical": frac_to_json(self.O_canonical),
            "O_geometric": self.O_geometric.to_json(),
            "conversion": self.conversion.to_json(),
            "dgbar_scale": frac_to_json(self.dgbar),
        }


def report_for_class(c: Gl2OrbitClass) -> OrbitalReport:
    o_can = orbital_canonical_f0(c)
    o_geom = orbital_geometric_f0(c)
    conv = conversion_factor(c)
    if o_geom != conv * qhalf(o_can, c.q):
        raise ArithmeticError("factorization identity violated; closed forms corrupted")
    half = abs_weyl_disc_half(c)
    return OrbitalReport(c, half * half, o_can, o_geom, conv, dgbar_scale(c.q))


def full_report(trace: Fraction, det: Fraction, p: int) -> OrbitalReport:
    """Classify a GL2 element by (trace, det) at p and assemble all integrals.

    The depth is recomputed from the characteristic polynomial data, never
    taken on trust; the factorization O_geometric = conversion * O_canonical
    is re-verified exactly on the way out.
    """
    _, c = delta_abs_gl2(Fraction(trace), Fraction(det), p)
    return report_for_class(c)


def class_from_letter(letter: str, d: int, q: int) -> Gl2OrbitClass:
    kinds = {"h": OrbitKind.HYPERBOLIC, "u": OrbitKind.UNRAM_ELLIPTIC, "r": OrbitKind.RAM_ELLIPTIC}
    if letter not in kinds:
        raise ValueError("kind must be one of h, u, r")
    return Gl2OrbitClass(kinds[letter], d, q)

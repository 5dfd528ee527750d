"""Executable acceptance checks, shared by the test suite and the CLI.

Each criterion is a function returning a CriterionResult.  Two worked-example
tables this package reproduces contain errors that direct enumeration
contradicts with one-line integer witnesses; the affected sub-checks are kept
(they document exactly what the published tables claim), reported as
``discrepancies`` with their witnesses, and do not count as regressions.
Everything else must pass exactly.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import eichlerselberg as es
from . import gl2local, kirillov, localquad, pointcount, quadglobal, weylsteinberg
from .exact import (
    QHalfPower,
    frac_to_json,
    is_fundamental_discriminant,
    is_prime,
    is_squarefree,
    ord_p,
    qhalf,
)
from .localquad import QuadKind, classify_quad, classnum_local_check
from .pointcount import Constraint, NormEquation, digit_table, volume_profile
from .weylsteinberg import OrbitKind


@dataclass
class Discrepancy:
    check: str
    reference: str
    computed: str
    witness: str

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "reference_value": self.reference,
            "computed_value": self.computed,
            "witness": self.witness,
        }


@dataclass
class CriterionResult:
    key: str
    title: str
    ok: bool
    seconds: float
    details: list = field(default_factory=list)
    discrepancies: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "title": self.title,
            "ok": self.ok,
            "seconds": round(self.seconds, 3),
            "details": self.details,
            "discrepancies": [d.to_json() for d in self.discrepancies],
        }


class _Dual:
    """Minimal dual numbers over Fraction: exact forward derivatives."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        o = o if isinstance(o, _Dual) else _Dual(o)
        return _Dual(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __mul__(self, o):
        o = o if isinstance(o, _Dual) else _Dual(o)
        return _Dual(self.a * o.a, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inv(self):
        return _Dual(1 / self.a, -self.b / (self.a * self.a))


_SQUAREFREE_CANDIDATES = [-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 11, -11, 13, -13]


def _representative(p: int, kind: QuadKind) -> int:
    if kind is QuadKind.RAMIFIED:
        return p
    for d in _SQUAREFREE_CANDIDATES:
        if d % p and classify_quad(d, p).kind is kind:
            return d
    raise LookupError(f"no representative for {kind} at {p}")


def criterion_1_torus_volumes() -> CriterionResult:
    """Point-count volumes match the closed-form torus volumes, odd p <= 23."""
    t0 = time.perf_counter()
    details, ok = [], True
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for kind in (QuadKind.SPLIT, QuadKind.UNRAMIFIED, QuadKind.RAMIFIED):
            d = _representative(p, kind)
            t = classify_quad(d, p)
            prof = volume_profile(NormEquation(d, Constraint.UNIT_NORM), p, 3)
            prefactor = QHalfPower(Fraction(1), -ord_p(d, p), p)  # |2 sqrt(d)|, odd p
            lhs = qhalf(prof.volume, p) * prefactor
            if lhs != localquad.res_torus_volume(t, p).vol_omega_T_Tc:
                ok = False
                details.append(f"FAIL unit-norm volume at p={p} d={d}")
            if kind is QuadKind.SPLIT:
                continue
            prof1 = volume_profile(NormEquation(d, Constraint.NORM_ONE), p, 3)
            lhs1 = qhalf(prof1.volume, p) * prefactor
            if lhs1 != localquad.norm1_volume(t, p):
                ok = False
                details.append(f"FAIL norm-one volume at p={p} d={d}")
    details.append("24 unit-norm and 16 norm-one profiles checked exactly")
    return CriterionResult("torus-volumes", "torus volumes vs point counts (odd p <= 23)",
                           ok, time.perf_counter() - t0, details)


_REFERENCE_TABLE_SQRT2 = [
    ("x", 0, "forced", 1, None),
    ("y", 0, "forced", 0, None),
    ("x", 1, "free", None, None),
    ("y", 1, "free", None, None),
    ("x", 2, "affine", None, "y1"),       # enumeration gives x1 + y1 instead
    ("y", 2, "free", None, None),
]
_REFERENCE_TABLE_SQRT3 = [
    ("x", 0, "forced", 1, None),
    ("y", 0, "forced", 0, None),
    ("x", 1, "free", None, None),
    ("y", 1, "forced", 0, None),
    ("x", 2, "affine", None, "x1"),
    ("y", 2, "free", None, None),
]


def _row_matches(row: pointcount.DigitConstraint, ref) -> bool:
    var, idx, status, value, relation = ref
    return (row.var, row.index, row.status, row.value, row.relation) == (
        var, idx, status, value, relation)


def criterion_2_digit_analysis() -> CriterionResult:
    """2-adic digit tables and solution-set volumes for d = 2 and d = 3."""
    t0 = time.perf_counter()
    details, ok = [], True
    discrepancies = []

    table2 = digit_table(NormEquation(2, Constraint.NORM_ONE), 4)
    comp2 = table2.component_at((1, 0))
    if len(table2.components) != 1:
        ok = False
        details.append("FAIL: d=2 table expected a single solution component")
    for ref in _REFERENCE_TABLE_SQRT2:
        row = comp2.rows[{"x": 0, "y": 1}[ref[0]] + 2 * ref[1]]
        if _row_matches(row, ref):
            continue
        if (ref[0], ref[1]) == ("x", 2):
            if row.status == "affine" and row.relation == "x1 + y1":
                discrepancies.append(Discrepancy(
                    "d=2 digit table, x2 row",
                    "x2 = y1",
                    "x2 = x1 + y1",
                    "3^2 - 2*2^2 = 1 lies on the curve with x2=0, x1=1, y1=1",
                ))
                continue
        ok = False
        details.append(f"FAIL: d=2 digit row {ref} computed {row!r}")
    prof2 = volume_profile(NormEquation(2, Constraint.NORM_ONE), 2, 5)
    if prof2.volume != 1:
        ok = False
        details.append(f"FAIL: d=2 solution-set volume {prof2.volume} != 1")
    details.append(f"d=2: volume {frac_to_json(prof2.volume)}, "
                   f"digit patterns at depth 4: {comp2.pattern_count}")

    table3 = digit_table(NormEquation(3, Constraint.NORM_ONE), 3)
    comp3 = table3.component_at((1, 0))
    for ref in _REFERENCE_TABLE_SQRT3:
        row = comp3.rows[{"x": 0, "y": 1}[ref[0]] + 2 * ref[1]]
        if not _row_matches(row, ref):
            ok = False
            details.append(f"FAIL: d=3 identity-component row {ref} computed {row!r}")
    if comp3.volume != Fraction(1, 2):
        ok = False
        details.append(f"FAIL: d=3 identity-component volume {comp3.volume} != 1/2")
    try:
        other = table3.component_at((0, 1))
        discrepancies.append(Discrepancy(
            "d=3 digit table, completeness",
            "single branch with x0 = 1 forced; total volume 1/2",
            f"second solution component at (x0,y0)=(0,1) "
            f"with volume {frac_to_json(other.volume)}; "
            f"total volume {frac_to_json(table3.volume_at_depth)}",
            "2^2 - 3*1^2 = 1 is a solution with x even",
        ))
    except KeyError:
        ok = False
        details.append("FAIL: expected even-x solution component for d=3 is missing")
    details.append(
        f"d=3: identity-component volume {frac_to_json(comp3.volume)} "
        f"(matching the tabulated count 4/8), "
        f"full solution set {frac_to_json(table3.volume_at_depth)}"
    )
    return CriterionResult("digit-analysis", "p = 2 digit tables and volumes",
                           ok, time.perf_counter() - t0, details, discrepancies)


def criterion_3_local_cnf() -> CriterionResult:
    """classnum_local_check holds for all squarefree -50 <= d < 0, p <= 50."""
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for d in range(-1, -51, -1):
        if not is_squarefree(d):
            continue
        for p in range(2, 51):
            if not is_prime(p):
                continue
            checked += 1
            if not classnum_local_check(d, p):
                failures.append((d, p))
    ok = not failures
    details = [f"{checked} (d, p) pairs checked exactly"]
    details += [f"FAIL at d={d}, p={p}" for d, p in failures]
    return CriterionResult("local-cnf", "local class number identity",
                           ok, time.perf_counter() - t0, details)


def criterion_4_gl2_factorization() -> CriterionResult:
    """O_geometric = conversion * O_canonical, plus the depth-limit behaviour."""
    t0 = time.perf_counter()
    details, ok = [], True
    count = 0
    for kind in OrbitKind:
        for q in (2, 3, 5, 7):
            base = 1 / (1 - Fraction(1, q)) ** 2
            gaps = []
            for d in range(6):
                c = weylsteinberg.Gl2OrbitClass(kind, d, q)
                geom = gl2local.orbital_geometric_f0(c)
                conv = gl2local.conversion_factor(c)
                can = gl2local.orbital_canonical_f0(c)
                count += 1
                if geom != conv * qhalf(can, q):
                    ok = False
                    details.append(f"FAIL factorization {kind.value} q={q} d={d}")
                gaps.append(abs(geom.as_fraction() - base))
            if kind is OrbitKind.HYPERBOLIC:
                if any(g != 0 for g in gaps):
                    ok = False
                    details.append(f"FAIL hyperbolic limit at q={q}")
            elif any(not b < a for a, b in zip(gaps, gaps[1:])):
                ok = False
                details.append(f"FAIL strict decrease {kind.value} q={q}: {gaps}")
    details.append(f"{count} exact factorizations verified; elliptic gaps strictly decreasing")
    return CriterionResult("gl2-factorization", "GL2 geometric/canonical factorization",
                           ok, time.perf_counter() - t0, details)


def criterion_5_cnf(terms: int = 10 ** 6) -> CriterionResult:
    """Analytic class number formula within the proven bound, |disc| <= 200."""
    t0 = time.perf_counter()
    details, ok = [], True
    checked = 0
    worst = 0.0
    for disc in range(-3, -201, -1):
        if not is_fundamental_discriminant(disc):
            continue
        d = disc if disc % 2 else disc // 4
        rep = quadglobal.cnf_report(d, terms)
        checked += 1
        worst = max(worst, rep.residual / rep.err_bound)
        if not rep.ok:
            ok = False
            details.append(f"FAIL at disc={disc}: residual {rep.residual} > bound {rep.err_bound}")
    details.append(f"{checked} fundamental discriminants at {terms} terms; "
                   f"worst residual/bound = {worst:.3g}")
    return CriterionResult("cnf", "analytic class number formula", ok,
                           time.perf_counter() - t0, details)


def criterion_6_global(terms: int = 10 ** 6) -> CriterionResult:
    """Global volume-orbital identity for three elliptic elements."""
    t0 = time.perf_counter()
    details, ok = [], True
    for trace, det in ((1, 6), (0, 1), (1, 1)):
        rep = quadglobal.global_identity_check(trace, det, terms)
        line = (f"X^2 - {trace} X + {det}: residual {rep.residual:.2e} "
                f"(h={rep.field.h}, w={rep.field.w}, S={list(rep.primes_S)})")
        details.append(line)
        if rep.residual >= 1e-4:
            ok = False
            details.append(f"FAIL: residual {rep.residual} >= 1e-4")
    return CriterionResult("global-identity", "global volume-orbital identity", ok,
                           time.perf_counter() - t0, details)


def criterion_7_trace_formula() -> CriterionResult:
    """Trace formula equals the power-series oracle; vanishing and dimensions."""
    t0 = time.perf_counter()
    details, ok = [], True
    for k in (12, 16, 18, 20, 22, 26):
        coeffs = es.eigenform_coeffs(k, 50)
        for n in range(1, 51):
            if es.trace_formula(k, n).trace != coeffs[n - 1]:
                ok = False
                details.append(f"FAIL oracle at k={k}, n={n}")
    for k in (4, 6, 8, 10, 14):
        for n in range(1, 31):
            if es.trace_formula(k, n).trace != 0:
                ok = False
                details.append(f"FAIL vanishing at k={k}, n={n}")
    for k in range(4, 41, 2):
        if es.trace_formula(k, 1).trace != es.dim_cusp_forms(k):
            ok = False
            details.append(f"FAIL dimension at k={k}")
    t12 = {n: es.trace_formula(12, n).trace for n in (2, 3, 6)}
    if t12[6] != t12[2] * t12[3]:
        ok = False
        details.append("FAIL multiplicativity tau(6) != tau(2) tau(3)")
    details.append("6 weights x 50 coefficients, 5 vanishing weights x 30, dims to k=40")
    return CriterionResult("trace-formula", "trace formula vs eta/Eisenstein oracle", ok,
                           time.perf_counter() - t0, details)


def criterion_8_orbit_forms() -> CriterionResult:
    """Numeric checks of the orbit 2-forms and the conversion coefficient."""
    t0 = time.perf_counter()
    details, ok = [], True
    rng = random.Random(20240817)
    worst_cone = 0.0
    for _ in range(20):
        t = rng.uniform(0.5, 3.0)
        theta = rng.uniform(0, 2 * math.pi)
        if abs(theta - math.pi) < 0.15:
            theta = (theta + 1.0) % (2 * math.pi - 0.3)
        err = abs(kirillov.cone_pullback_check(t, theta, 1e-5) - 4.0)
        worst_cone = max(worst_cone, err)
    if worst_cone > 1e-6:
        ok = False
        details.append(f"FAIL cone pullback error {worst_cone}")
    worst_sphere = 0.0
    for _ in range(100):
        phi = rng.uniform(0.1, math.pi - 0.1)
        theta = rng.uniform(0, 2 * math.pi)
        err = abs(kirillov.sphere_density_spherical(phi, theta) - 2 * math.sin(phi))
        worst_sphere = max(worst_sphere, err)
    if worst_sphere > 1e-8:
        ok = False
        details.append(f"FAIL sphere density error {worst_sphere}")
    signs = set()
    for t in (0.5, 1.0, 2.0, 5.0):
        rep = kirillov.sl2_conversion_report(t)
        if abs(abs(rep.coefficient) - 1.0 / abs(rep.weyl_disc)) > 1e-12:
            ok = False
            details.append(f"FAIL conversion magnitude at t={t}")
        signs.add(rep.realized_sign)
    details.append(f"cone worst {worst_cone:.2e}; sphere worst {worst_sphere:.2e}; "
                   f"conversion coefficient = +D^-1 exactly (realized signs {sorted(signs)})")
    return CriterionResult("orbit-forms", "orbit 2-form numerics", ok,
                           time.perf_counter() - t0, details)


def criterion_9_jacobians() -> CriterionResult:
    """Rank-1 derivative identity and the rank-2 Jacobian, 100+ exact points."""
    t0 = time.perf_counter()
    details, ok = [], True
    rng = random.Random(57721)

    def rand_frac():
        return Fraction(rng.randint(-60, 60), rng.randint(1, 40))

    done = 0
    while done < 100:
        t = rand_frac()
        if t in (0, 1, -1):
            continue
        x = _Dual(t, 1)
        dual_derivative = (x + x.inv()).b
        if dual_derivative != weylsteinberg.sl2_jacobian(t):
            ok = False
            details.append(f"FAIL rank-1 derivative at t={t}")
        if dual_derivative != -(t ** -2) * (1 - t * t):
            ok = False
            details.append(f"FAIL rank-1 root expression at t={t}")
        done += 1

    done = 0
    omega_signs = set()
    while done < 100:
        t1, t2 = rand_frac(), rand_frac()
        if 0 in (t1, t2) or t1 in (t2, -t2) or 1 in (t1 * t1, t2 * t2, (t1 * t2) ** 2):
            continue
        chk = weylsteinberg.sp4_identity_check(t1, t2)
        if not chk.ok:
            ok = False
            details.append(f"FAIL rank-2 identity at ({t1}, {t2})")
        omega_signs.add(chk.omega_sign)
        done += 1
    details.append(f"100 rank-1 and 100 rank-2 points verified exactly; "
                   f"omega signs realized: {sorted(omega_signs)}")
    return CriterionResult("jacobians", "Jacobian identities", ok,
                           time.perf_counter() - t0, details)


CRITERIA = (
    ("torus-volumes", criterion_1_torus_volumes),
    ("digit-analysis", criterion_2_digit_analysis),
    ("local-cnf", criterion_3_local_cnf),
    ("gl2-factorization", criterion_4_gl2_factorization),
    ("cnf", criterion_5_cnf),
    ("global-identity", criterion_6_global),
    ("trace-formula", criterion_7_trace_formula),
    ("orbit-forms", criterion_8_orbit_forms),
    ("jacobians", criterion_9_jacobians),
)


def run_all(skip: set | None = None, terms: int = 10 ** 6) -> list[CriterionResult]:
    skip = skip or set()
    results = []
    for key, fn in CRITERIA:
        if key in skip:
            results.append(CriterionResult(key, f"{key} (skipped)", True, 0.0, ["skipped"]))
            continue
        if key in ("cnf", "global-identity"):
            results.append(fn(terms))
        else:
            results.append(fn())
    return results

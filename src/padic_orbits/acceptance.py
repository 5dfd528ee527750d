"""Executable acceptance checks, shared by the test suite and the CLI.

Each criterion is a function returning a CriterionResult.  Two worked-example
tables this package reproduces contain errors that direct enumeration
contradicts with one-line integer witnesses; the affected sub-checks are kept
(they document exactly what the published tables claim), reported as
``discrepancies`` with their witnesses, and do not count as regressions.
Everything else must pass exactly.
"""

import time
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from . import eichlerselberg as es
from . import gl2local, kirillov, localquad, quadglobal, weylsteinberg
from .exact import (
    QHalfPower,
    is_fundamental_discriminant,
    is_prime,
    is_squarefree,
    ord_p,
    qhalf,
    to_json,
)
from .localquad import QuadKind, classify_quad, classnum_local_check, kronecker_symbol
from .pointcount import Constraint, DigitConstraint, NormEquation, digit_table, volume_profile
from .weylsteinberg import OrbitKind, _Dual


class Discrepancy(NamedTuple):
    check: str
    reference_value: str
    computed_value: str
    witness: str


class CriterionResult(NamedTuple):
    key: str
    title: str
    ok: bool
    seconds: float
    details: list
    discrepancies: list

    # The benchmark reads result.to_json() and drops its "seconds".
    to_json = to_json


def _result(key: str, title: str, t0: float, details: list, failures: list,
            discrepancies: list | None = None) -> CriterionResult:
    """A criterion passes exactly when it collected no failures; they follow its details."""
    return CriterionResult(key, title, not failures, time.perf_counter() - t0,
                           details + failures, discrepancies or [])


_SQUAREFREE_CANDIDATES = [-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 11, -11, 13, -13]


def _representative(p: int, kind: QuadKind) -> int:
    # at an odd p, a d prime to p is split where (d/p) = 1 and unramified where it is -1
    if kind is QuadKind.RAMIFIED:
        return p
    for d in _SQUAREFREE_CANDIDATES:
        if kronecker_symbol(d, p) == (1 if kind is QuadKind.SPLIT else -1):
            return d
    raise LookupError(f"no representative for {kind} at {p}")


def criterion_1_torus_volumes() -> CriterionResult:
    """Point-count volumes match the closed-form torus volumes, odd p <= 23."""
    t0 = time.perf_counter()
    failures = []
    equations = {}   # one NormEquation, and one squarefree test, per (d, constraint)

    def equation(d, constraint):
        if (d, constraint) not in equations:
            equations[d, constraint] = NormEquation(d, constraint)
        return equations[d, constraint]

    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for kind in (QuadKind.SPLIT, QuadKind.UNRAMIFIED, QuadKind.RAMIFIED):
            d = _representative(p, kind)
            t = classify_quad(d, p)
            prof = volume_profile(equation(d, Constraint.UNIT_NORM), p, 3)
            prefactor = QHalfPower(Fraction(1), -ord_p(d, p), p)  # |2 sqrt(d)|, odd p
            lhs = qhalf(prof.volume, p) * prefactor
            if lhs != localquad.res_torus_volume(t, p).vol_omega_T_Tc:
                failures.append(f"FAIL unit-norm volume at p={p} d={d}")
            if kind is QuadKind.SPLIT:
                continue
            prof1 = volume_profile(equation(d, Constraint.NORM_ONE), p, 3)
            lhs1 = qhalf(prof1.volume, p) * prefactor
            if lhs1 != localquad.norm1_volume(t, p):
                failures.append(f"FAIL norm-one volume at p={p} d={d}")
    return _result("torus-volumes", "torus volumes vs point counts (odd p <= 23)", t0,
                   ["24 unit-norm and 16 norm-one profiles checked exactly"], failures)


_REFERENCE_TABLE_SQRT2 = (
    DigitConstraint("x", 0, "forced", 1),
    DigitConstraint("y", 0, "forced", 0),
    DigitConstraint("x", 1, "free"),
    DigitConstraint("y", 1, "free"),
    DigitConstraint("x", 2, "affine", relation="y1"),   # enumeration gives x1 + y1 instead
    DigitConstraint("y", 2, "free"),
)
_COMPUTED_SQRT2_X2 = DigitConstraint("x", 2, "affine", relation="x1 + y1")
_REFERENCE_TABLE_SQRT3 = (
    DigitConstraint("x", 0, "forced", 1),
    DigitConstraint("y", 0, "forced", 0),
    DigitConstraint("x", 1, "free"),
    DigitConstraint("y", 1, "forced", 0),
    DigitConstraint("x", 2, "affine", relation="x1"),
    DigitConstraint("y", 2, "free"),
)


def criterion_2_digit_analysis() -> CriterionResult:
    """2-adic digit tables and solution-set volumes for d = 2 and d = 3."""
    t0 = time.perf_counter()
    failures, discrepancies = [], []

    table2 = digit_table(NormEquation(2, Constraint.NORM_ONE), 4)
    comp2 = table2.component_at((1, 0))
    if len(table2.components) != 1:
        failures.append("FAIL: d=2 table expected a single solution component")
    # Rows come in the order x0, y0, x1, y1, ..., the order of the published tables.
    for row, ref in zip(comp2.rows, _REFERENCE_TABLE_SQRT2):
        if row == ref:
            continue
        if row == _COMPUTED_SQRT2_X2:
            discrepancies.append(Discrepancy(
                "d=2 digit table, x2 row",
                "x2 = y1",
                "x2 = x1 + y1",
                "3^2 - 2*2^2 = 1 lies on the curve with x2=0, x1=1, y1=1",
            ))
            continue
        failures.append(f"FAIL: d=2 digit row {ref!r} computed {row!r}")
    prof2 = volume_profile(NormEquation(2, Constraint.NORM_ONE), 2, 5)
    if prof2.volume != 1:
        failures.append(f"FAIL: d=2 solution-set volume {prof2.volume} != 1")
    details = [f"d=2: volume {prof2.volume}, "
               f"digit patterns at depth 4: {comp2.pattern_count}"]

    table3 = digit_table(NormEquation(3, Constraint.NORM_ONE), 3)
    comp3 = table3.component_at((1, 0))
    for row, ref in zip(comp3.rows, _REFERENCE_TABLE_SQRT3):
        if row != ref:
            failures.append(f"FAIL: d=3 identity-component row {ref!r} computed {row!r}")
    if comp3.volume != Fraction(1, 2):
        failures.append(f"FAIL: d=3 identity-component volume {comp3.volume} != 1/2")
    try:
        other = table3.component_at((0, 1))
        discrepancies.append(Discrepancy(
            "d=3 digit table, completeness",
            "single branch with x0 = 1 forced; total volume 1/2",
            f"second solution component at (x0,y0)=(0,1) "
            f"with volume {other.volume}; "
            f"total volume {table3.volume_at_depth}",
            "2^2 - 3*1^2 = 1 is a solution with x even",
        ))
    except KeyError:
        failures.append("FAIL: expected even-x solution component for d=3 is missing")
    details.append(
        f"d=3: identity-component volume {comp3.volume} "
        f"(matching the tabulated count 4/8), "
        f"full solution set {table3.volume_at_depth}"
    )
    return _result("digit-analysis", "p = 2 digit tables and volumes", t0,
                   details, failures, discrepancies)


def criterion_3_local_cnf() -> CriterionResult:
    """classnum_local_check holds for all squarefree -50 <= d < 0, p <= 50."""
    t0 = time.perf_counter()
    failures = []
    checked = 0
    primes = [p for p in range(2, 51) if is_prime(p)]
    for d in range(-1, -51, -1):
        if not is_squarefree(d):
            continue
        for p in primes:
            checked += 1
            if not classnum_local_check(d, p):
                failures.append(f"FAIL at d={d}, p={p}")
    return _result("local-cnf", "local class number identity", t0,
                   [f"{checked} (d, p) pairs checked exactly"], failures)


def criterion_4_gl2_factorization() -> CriterionResult:
    """O_geometric = conversion * O_canonical, plus the depth-limit behaviour."""
    t0 = time.perf_counter()
    failures = []
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
                    failures.append(f"FAIL factorization {kind.value} q={q} d={d}")
                gaps.append(abs(geom.as_fraction() - base))
            if kind is OrbitKind.HYPERBOLIC:
                if any(g != 0 for g in gaps):
                    failures.append(f"FAIL hyperbolic limit at q={q}")
            elif any(not b < a for a, b in zip(gaps, gaps[1:])):
                failures.append(f"FAIL strict decrease {kind.value} q={q}: {gaps}")
    return _result("gl2-factorization", "GL2 geometric/canonical factorization", t0,
                   [f"{count} exact factorizations verified; elliptic gaps strictly decreasing"],
                   failures)


def criterion_5_cnf() -> CriterionResult:
    """Analytic class number formula within the proven bound, |disc| <= 200."""
    t0 = time.perf_counter()
    failures = []
    checked = 0
    worst = 0.0
    for disc in range(-3, -201, -1):
        if not is_fundamental_discriminant(disc):
            continue
        rep = quadglobal.cnf_report(quadglobal.quad_field_data(disc))
        checked += 1
        ratio = rep.residual / rep.err_bound
        if ratio > worst or ratio != ratio:   # a NaN ratio stays the worst
            worst = ratio
        if not rep.ok:
            failures.append(f"FAIL at disc={disc}: residual {rep.residual} "
                            f"not within bound {rep.err_bound}")
    return _result("cnf", "analytic class number formula", t0,
                   [f"{checked} fundamental discriminants at {quadglobal.L_TERMS} terms; "
                    f"worst residual/bound = {worst:.3g}"], failures)


def criterion_6_global() -> CriterionResult:
    """Global volume-orbital identity for three elliptic elements."""
    t0 = time.perf_counter()
    details, failures = [], []
    for trace, det in ((1, 6), (0, 1), (1, 1)):
        rep = quadglobal.global_identity_check(trace, det)
        details.append(f"X^2 - {trace} X + {det}: residual {rep.residual:.2e} "
                       f"(h={rep.field.h}, w={rep.field.w}, S={list(rep.primes_S)})")
        if not rep.ok:
            failures.append(f"FAIL: X^2 - {trace} X + {det}: residual {rep.residual} "
                            f"not within bound {rep.bound}")
    return _result("global-identity", "global volume-orbital identity", t0, details, failures)


def criterion_7_trace_formula() -> CriterionResult:
    """Trace formula equals the power-series oracle; vanishing and dimensions.

    The checks are grouped by n: one ``hecke_traces`` call per n evaluates
    every weight checked at that n against one Hurwitz row, 50 rows in all.
    """
    t0 = time.perf_counter()
    failures = []
    oracle = {k: es.eigenform_coeffs(k, 50) for k in (12, 16, 18, 20, 22, 26)}
    vanishing = (4, 6, 8, 10, 14)
    dimensions = range(4, 41, 2)
    t12 = {}
    for n in range(1, 51):
        weights = dimensions if n == 1 else (*oracle, *vanishing) if n <= 30 else oracle
        traces = es.hecke_traces(n, weights)
        for k, coeffs in oracle.items():
            if traces[k].trace != coeffs[n - 1]:
                failures.append(f"FAIL oracle at k={k}, n={n}")
        if n <= 30:
            failures += [f"FAIL vanishing at k={k}, n={n}" for k in vanishing if traces[k].trace]
        if n == 1:
            failures += [f"FAIL dimension at k={k}" for k in dimensions
                         if traces[k].trace != es.dim_cusp_forms(k)]
        t12[n] = traces[12].trace
    if t12[6] != t12[2] * t12[3]:
        failures.append("FAIL multiplicativity tau(6) != tau(2) tau(3)")
    return _result("trace-formula", "trace formula vs eta/Eisenstein oracle", t0,
                   ["6 weights x 50 coefficients, 5 vanishing weights x 30, dims to k=40"],
                   failures)


def criterion_8_orbit_forms() -> CriterionResult:
    """Numeric checks of the orbit 2-forms and the exact conversion coefficient."""
    t0 = time.perf_counter()
    failures = []
    cone, sphere, conversions = kirillov.orbit_form_samples()
    if not cone.error <= 1e-6:
        failures.append(f"FAIL cone pullback error {cone.error} at {cone.witness}")
    if not sphere.error <= 1e-8:
        failures.append(f"FAIL sphere density error {sphere.error} at {sphere.witness}")
    signs = sorted({rep.realized_sign for rep in conversions})
    return _result("orbit-forms", "orbit 2-form numerics", t0,
                   [f"cone worst {cone.error:.2e}; sphere worst {sphere.error:.2e}; "
                    f"conversion coefficient = +D^-1 exactly (realized signs {signs})"],
                   failures)


def criterion_9_jacobians() -> CriterionResult:
    """Rank-1 derivative identity and the rank-2 Jacobian, proved on grids: the
    maps state each identity's degree per variable, and a polynomial vanishing
    on a product grid with more points per variable is zero (Alon, 1999)."""
    t0 = time.perf_counter()
    failures = []
    for t in range(2, 102):
        dual_derivative = weylsteinberg.steinberg_sl2(_Dual(t, 1)).b
        if dual_derivative != weylsteinberg.sl2_jacobian(t):
            failures.append(f"FAIL rank-1 derivative at t={t}")
        # -t^-2 (1 - t^2), cross-multiplied
        if dual_derivative.numerator * t * t != -(1 - t * t) * dual_derivative.denominator:
            failures.append(f"FAIL rank-1 root expression at t={t}")

    omega_signs = set()
    for t1, t2 in product(range(2, 12), range(20, 30)):
        chk = weylsteinberg.sp4_identity_check(t1, t2)
        if not chk.ok:
            failures.append(f"FAIL rank-2 identity at ({t1}, {t2})")
        omega_signs.add(chk.omega_sign)
    if len(omega_signs - {0}) > 1:
        failures.append("FAIL omega signs +1 and -1 both realized: neither identity is proved")
    return _result("jacobians", "Jacobian identities", t0,
                   [f"100 rank-1 and 100 rank-2 points verified exactly; "
                    f"omega signs realized: {sorted(omega_signs)}"], failures)


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


def run_all(skip: set | None = None) -> list[CriterionResult]:
    skip = skip or set()
    return [CriterionResult(key, f"{key} (skipped)", True, 0.0, ["skipped"], []) if key in skip
            else fn() for key, fn in CRITERIA]

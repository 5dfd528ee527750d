"""Seeded workloads for the padic-orbits benchmark.

A workload is a sequence of passes; a pass is a list of items, and an item is
one check a user would ask for: it runs the package's public functions and
returns ``(ok, digest, message)``.  ``digest`` is a canonical string of the
computed values, used to prove that traced and untraced runs agree.

Every call into the package goes through a module attribute looked up at call
time (``quadglobal.class_number(...)``), so the tracer's patches are seen.

Inputs stay inside the package's documented limits: p^(2k) <= 10^9 for the
enumeration oracles, ``eigenform_coeffs`` N <= 2000 and ``eta_tau`` N <= 10^4.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from padic_orbits import acceptance, eichlerselberg, localquad, pointcount, quadglobal
from padic_orbits.exact import QHalfPower, ord_p, qhalf

GOLDEN_PATH = Path(__file__).with_name("golden_acceptance.json")

# The one-dimensional cusp spaces, where eigenform_coeffs is an oracle.
ONE_DIM_WEIGHTS = (12, 16, 18, 20, 22, 26)
ORACLE_N = 1000                 # eigenform_coeffs(k, 1000): within N <= 2000
REQUESTS_PER_WEIGHT = 8         # one n from each eighth of [1, ORACLE_N]
LARGE_ITEMS = 6                 # k in [24, 60], n in [5000, 10000]
UNIT_NORM_P_BINS = ((300, 600), (600, 900), (900, 1200), (1200, 1500))
PROFILE_ITEMS = 12              # odd p <= 31 at k_max = 3: 31^6 < 10^9
P2_ITEMS = 4
CLASS_NUMBER_BINS = ((10 ** 6, 4 * 10 ** 6), (4 * 10 ** 6, 10 ** 7))
SQUAREFREE_D = tuple(d for d in range(-30, 31) if d not in (0, 1) and all(
    d % (q * q) for q in (2, 3, 5)))


def _is_prime(n: int) -> bool:
    # Input generation stays independent of the package under test.
    return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))


def _prime_in(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        p = rng.randrange(lo, hi)
        if _is_prime(p):
            return p


def _pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


# --------------------------------------------------------------------------
# acceptance: the nine criteria of reproduce-all, in a seeded order


def acceptance_pass(rng: random.Random) -> list[tuple]:
    keys = [key for key, _ in acceptance.CRITERIA]
    rng.shuffle(keys)
    return [("criterion", key) for key in keys]


def _criterion(state: dict, key: str):
    keys = {k for k, _ in acceptance.CRITERIA}
    # run_all keeps reproduce-all's dispatch, including terms = 10**6.
    results = acceptance.run_all(skip=keys - {key})
    result = next(r for r in results if r.key == key)
    got = result.to_json()
    del got["seconds"]   # the one non-deterministic field of reproduce-all
    digest = json.dumps(got, sort_keys=True)
    if "golden" not in state:
        state["golden"] = json.loads(GOLDEN_PATH.read_text())
    want = state["golden"][key]
    if not result.ok:
        return False, digest, f"criterion {key} not ok: {result.details}"
    if got != want:
        fields = sorted(f for f in set(got) | set(want) if got.get(f) != want.get(f))
        return False, digest, f"criterion {key} differs from golden in {fields}"
    return True, digest, ""


# --------------------------------------------------------------------------
# hecke: trace formula requests against the eta/Eisenstein oracle


def hecke_pass(rng: random.Random) -> list[tuple]:
    width = ORACLE_N // REQUESTS_PER_WEIGHT
    requests = [("request", k, rng.randrange(j * width, (j + 1) * width) + 1)
                for k in ONE_DIM_WEIGHTS for j in range(REQUESTS_PER_WEIGHT)]
    step = 5000 // LARGE_ITEMS
    requests += [("large", 2 * rng.randrange(12, 31), 5000 + j * step + rng.randrange(step))
                 for j in range(LARGE_ITEMS)]
    rng.shuffle(requests)
    items, built = [], set()
    for item in requests:
        if item[0] == "request" and item[1] not in built:
            built.add(item[1])
            items.append(("oracle", item[1]))
        items.append(item)
    return items


def _oracle(state: dict, k: int):
    coeffs = eichlerselberg.eigenform_coeffs(k, ORACLE_N)
    state[("coeffs", k)] = coeffs

    def a(n):
        return coeffs[n - 1]

    # Hecke relations of a normalized eigenform, independent of trace_formula.
    problems = [f"a(1) = {a(1)}"] if a(1) != 1 else []
    problems += [f"a({p}^2)" for p in (2, 3, 5, 7) if a(p * p) != a(p) ** 2 - p ** (k - 1)]
    problems += [f"a({m * n})" for m, n in ((2, 3), (2, 5), (3, 7)) if a(m * n) != a(m) * a(n)]
    digest = f"{k}:{hash(tuple(coeffs))}:{a(2)}:{a(ORACLE_N)}"
    return not problems, digest, f"eigenform k={k} fails {problems}" if problems else ""


def _request(state: dict, k: int, n: int):
    trace = eichlerselberg.trace_formula(k, n).trace
    want = state[("coeffs", k)][n - 1]
    ok = trace == want
    return ok, f"{k}:{n}:{trace}", "" if ok else f"Tr T_{n} at k={k} is {trace}, oracle {want}"


def _large(state: dict, k: int, n: int):
    trace = eichlerselberg.trace_formula(k, n).trace   # ArithmeticError if not integral
    dim = eichlerselberg.trace_formula(k, 1).trace
    ok = dim == eichlerselberg.dim_cusp_forms(k)
    return ok, f"{k}:{n}:{trace}:{dim}", "" if ok else f"Tr T_1 at k={k} is {dim}"


# --------------------------------------------------------------------------
# oracles: brute-force enumeration against closed forms, and the two scans


def oracles_pass(rng: random.Random) -> list[tuple]:
    items = []
    for lo, hi in UNIT_NORM_P_BINS:
        p = _prime_in(rng, lo, hi)
        items.append(("unit_k1", rng.choice(SQUAREFREE_D + (p, -p)), p))
    odd_primes = [p for p in range(3, 32) if _is_prime(p)]
    for j in range(PROFILE_ITEMS):
        p = rng.choice(odd_primes)
        constraint = pointcount.Constraint.UNIT_NORM if j % 2 else pointcount.Constraint.NORM_ONE
        while True:
            d = rng.choice(SQUAREFREE_D + (p, -p))
            # The norm-one closed form is stated for the non-split kinds only.
            if d % p == 0 or constraint is pointcount.Constraint.UNIT_NORM or \
                    pow(d % p, (p - 1) // 2, p) != 1:
                break
        items.append(("profile", d, p, constraint.value))
    items += [("p2", rng.choice(SQUAREFREE_D)) for _ in range(P2_ITEMS)]
    for lo, hi in CLASS_NUMBER_BINS:
        D = -rng.randrange(lo, hi)
        items.append(("classno", D - (D % 4 - 1) if D % 4 in (2, 3) else D))
    rng.shuffle(items)
    return items


def _unit_volume_ok(d: int, p: int, volume: Fraction) -> bool:
    # |2 sqrt(d)|_p times the solution-set volume is the torus volume.
    prefactor = QHalfPower(Fraction(1, 2) if p == 2 else Fraction(1), -ord_p(d, p), p)
    t = localquad.classify_quad(d, p)
    return qhalf(volume, p) * prefactor == localquad.res_torus_volume(t, p).vol_omega_T_Tc


def _unit_k1(state: dict, d: int, p: int):
    eq = pointcount.NormEquation(d, pointcount.Constraint.UNIT_NORM)
    n = pointcount.count_mod(eq, p, 1)
    ok = _unit_volume_ok(d, p, Fraction(n, p * p))
    return ok, f"{d}:{p}:{n}", "" if ok else f"unit-norm count {n} at d={d}, p={p}"


def _profile(state: dict, d: int, p: int, constraint: str):
    c = pointcount.Constraint(constraint)
    prof = pointcount.volume_profile(pointcount.NormEquation(d, c), p, 3)
    digest = f"{d}:{p}:{constraint}:{prof.counts}:{prof.volume}"
    if prof.volume is None or prof.counts != prof.raw_counts:
        return False, digest, f"profile d={d}, p={p}, {constraint} did not stabilize smoothly"
    if c is pointcount.Constraint.UNIT_NORM:
        ok = _unit_volume_ok(d, p, prof.volume)
    else:
        t = localquad.classify_quad(d, p)
        prefactor = QHalfPower(Fraction(1), -ord_p(d, p), p)
        ok = qhalf(prof.volume, p) * prefactor == localquad.norm1_volume(t, p)
    return ok, digest, "" if ok else f"volume {prof.volume} at d={d}, p={p}, {constraint}"


def _p2(state: dict, d: int):
    eq = pointcount.NormEquation(d, pointcount.Constraint.NORM_ONE)
    table = pointcount.digit_table(eq, 6)
    prof = pointcount.volume_profile(eq, 2, 8)
    problems = []
    if table.pattern_count != dict(prof.counts)[6]:
        problems.append(f"{table.pattern_count} digit patterns vs count {dict(prof.counts)[6]}")
    if prof.volume != table.volume_at_depth:
        problems.append(f"profile volume {prof.volume} vs table {table.volume_at_depth}")
    # In x + y sqrt(d) coordinates the unit-norm set is the full unit group
    # only when Z_2[sqrt d] is the maximal order, i.e. d is ramified at 2.
    if localquad.classify_quad(d, 2).kind is localquad.QuadKind.RAMIFIED:
        unit = pointcount.volume_profile(
            pointcount.NormEquation(d, pointcount.Constraint.UNIT_NORM), 2, 3)
        if unit.volume is None or not _unit_volume_ok(d, 2, unit.volume):
            problems.append(f"unit-norm volume {unit.volume}")
    digest = f"{d}:{prof.counts}:{table.pattern_count}:{table.volume_at_depth}"
    return not problems, digest, f"p=2, d={d}: {problems}" if problems else ""


def _classno(state: dict, D: int):
    h = quadglobal.class_number(D)
    scan = quadglobal.class_number_scan(D)
    ok = h == scan
    return ok, f"{D}:{h}", "" if ok else f"h({D}): reduced forms {h}, scan {scan}"


# --------------------------------------------------------------------------

PASS_BUILDERS = {
    "acceptance": acceptance_pass,
    "hecke": hecke_pass,
    "oracles": oracles_pass,
}

ITEM_RUNNERS = {
    "criterion": _criterion,
    "oracle": _oracle,
    "request": _request,
    "large": _large,
    "unit_k1": _unit_k1,
    "profile": _profile,
    "p2": _p2,
    "classno": _classno,
}


def make_pass(workload: str, seed: int, index: int) -> list[tuple]:
    """The index-th pass of a workload: the same (seed, index) gives the same items."""
    return PASS_BUILDERS[workload](_pass_rng(workload, seed, index))


def run_item(state: dict, item: tuple) -> tuple[bool, str, str]:
    """Run one item; an exception is a failed item, named in the message."""
    try:
        return ITEM_RUNNERS[item[0]](state, *item[1:])
    except Exception as exc:  # an item boundary: record and keep running
        return False, f"error:{type(exc).__name__}", f"{item}: {type(exc).__name__}: {exc}"

"""Brute-force solution counting for binary norm equations over Z/p^k.

This is the oracle side of the torus-volume story: volumes of the unit-norm
set {|x^2 - d y^2| = 1} and the norm-one curve {x^2 - d y^2 = 1} are obtained
from residue counts with no reference to the closed forms they later verify.

Counts reported here are *solution-set* counts: the number of residue pairs
mod p^k that arise from genuine Z_p-points.  For the open unit-norm condition
and for smooth odd-p curves this equals the plain congruence count; at p = 2
the congruence count overshoots (solutions mod 2^k that fail to persist), so
the image is computed by enumerating at a deeper level and projecting.  The
raw congruence counts are kept alongside for transparency.

A congruence count enumerates every residue mod p^k once, squaring it into
one histogram X of the squares, and sums X[s] X[(c + d s) mod p^k] over the
squares s: each y with y^2 = s pairs with each root x of c + d s.  Only the
p = 2 projection builds the pairs themselves.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import isqrt
from operator import mod, mul
from typing import Optional

from .exact import _check_budget, _require_prime, frac_to_json, is_squarefree

# The work of a count is O(p^k): one table of the squares mod p^k.  The
# enumeration budget p^(2k) <= 10^9 is the same as p^k <= isqrt(10^9) = 31,622.
_ENUM_CAP = isqrt(10 ** 9)
_ENUM_WORK = "a count does O(p^k) work, within the enumeration budget p^(2k) <= 10^9"
# Since p >= 2, p^k <= 31,622 needs 2^k <= 31,622, so k <= 14: checked first,
# it bounds k before any power is taken.
_K_MAX = _ENUM_CAP.bit_length() - 1
_DEPTH_CAP = 6
# Hensel: a mod-2^(k+2) congruence solution of the norm-one equation agrees
# with a true Z_2 solution mod 2^k (the gradient (2x, -2dy) has valuation
# exactly 1 on the curve).
_P2_LIFT_BUFFER = 2


class Constraint(enum.Enum):
    UNIT_NORM = "unit"   # |x^2 - d y^2| = 1, an open 2-dimensional set
    NORM_ONE = "one"     # x^2 - d y^2 = 1, a smooth curve (dimension 1)


@dataclass(frozen=True)
class NormEquation:
    epsilon: int
    constraint: Constraint

    def __post_init__(self):
        if not is_squarefree(self.epsilon):
            raise ValueError(f"epsilon = {self.epsilon} must be squarefree")

    @property
    def dim(self) -> int:
        return 2 if self.constraint is Constraint.UNIT_NORM else 1


def _check_args(p: int, k: int) -> int:
    """Check p and k for a count mod p^k; return p as tested prime."""
    p = _require_prime(p)
    if k < 1:
        raise ValueError("k must be >= 1")
    # k, then p, bound p^k before it is taken; p^k <= 31,622 needs both
    _check_budget("k", k, _K_MAX, _ENUM_WORK)
    _check_budget("p", p, _ENUM_CAP, _ENUM_WORK)
    _check_budget("p^k", p ** k, _ENUM_CAP, _ENUM_WORK)
    return p


def _congruence_count(eq: NormEquation, p: int, k: int) -> int:
    """Plain count of pairs mod p^k satisfying eq, from one histogram of squares.

    X[s] counts the residues mod m whose square is s, so the pairs with
    x^2 = c + d y^2 mod m number sum_s X[s] X[(c + d s) mod m]: y runs over
    the X[s] roots of s and x over the roots of c + d s.
    """
    unit = eq.constraint is Constraint.UNIT_NORM
    # The unit condition only depends on (x, y) mod p: every pair except the
    # zeros x^2 = d y^2 of the norm form.
    c, m = (0, p) if unit else (1, p ** k)
    X = Counter(map(pow, range(m), repeat(2), repeat(m)))
    targets = map(mod, map(c.__add__, map(eq.epsilon.__mul__, X)), repeat(m))
    pairs = sum(map(mul, X.values(), map(X.get, targets, repeat(0))))
    return (p * p - pairs) * p ** (2 * (k - 1)) if unit else pairs


def _norm_one_2adic_image(d: int, k: int) -> set[tuple[int, int]]:
    """Residue pairs mod 2^k of the Z_2-points of x^2 - d y^2 = 1, projected from
    the pairs mod m = 2^(k + buffer) that one table of square roots mod m gives."""
    m = 1 << (k + _P2_LIFT_BUFFER)
    roots: dict[int, list[int]] = {}
    for x in range(m):
        roots.setdefault(x * x % m, []).append(x)
    mask = (1 << k) - 1
    return {(x & mask, y & mask) for y in range(m) for x in roots.get((1 + d * y * y) % m, ())}


def count_mod(eq: NormEquation, p: int, k: int) -> int:
    """Number of residue pairs mod p^k on the solution set of eq.

    Unit-norm counts are exact congruence counts (the condition is determined
    mod p, so every residue pair lifts).  Norm-one counts at p = 2 are images
    of the 2-adic solution set, computed by buffered projection.
    """
    _check_args(p, k)
    if p == 2 and eq.constraint is Constraint.NORM_ONE:
        return len(_norm_one_2adic_image(eq.epsilon, k))
    # Unit-norm pairs and points of the odd-p curve (smooth over Z_p) all lift.
    return _congruence_count(eq, p, k)


def raw_count_mod(eq: NormEquation, p: int, k: int) -> int:
    """Literal congruence-solution count mod p^k (no lifting filter)."""
    _check_args(p, k)
    return _congruence_count(eq, p, k)


@dataclass(frozen=True)
class CountProfile:
    p: int
    equation: NormEquation
    counts: tuple[tuple[int, int], ...]
    raw_counts: tuple[tuple[int, int], ...]
    dim: int
    stabilized_from: Optional[int]
    volume: Optional[Fraction]

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "d": self.equation.epsilon,
            "constraint": self.equation.constraint.value,
            "dim": self.dim,
            "counts": [[k, str(n)] for k, n in self.counts],
            "raw_counts": [[k, str(n)] for k, n in self.raw_counts],
            "stabilized_from": self.stabilized_from,
            "volume": None if self.volume is None else frac_to_json(self.volume),
        }


def volume_profile(eq: NormEquation, p: int, k_max: int) -> CountProfile:
    """Counts for k = 1..k_max plus stabilization detection and the volume.

    Stabilization at k0 means N_{k+1} = p^dim N_k for every k0 <= k < k_max;
    it is only declared once two consecutive scalings have been observed, and
    then volume = N_{k0} / p^(k0 * dim).
    """
    p = _check_args(p, k_max)   # before the first count: the deepest level costs most
    counts = [(k, count_mod(eq, p, k)) for k in range(1, k_max + 1)]
    raw = counts
    if p == 2 and eq.constraint is Constraint.NORM_ONE:
        # The only case where the congruence count differs from the image.
        raw = [(k, raw_count_mod(eq, p, k)) for k in range(1, k_max + 1)]
    dim = eq.dim
    scale = p ** dim
    stabilized: Optional[int] = None
    for k0 in range(1, k_max - 1):
        if all(counts[i][1] == scale * counts[i - 1][1] for i in range(k0, k_max)):
            stabilized = k0
            break
    volume = None
    if stabilized is not None:
        volume = Fraction(counts[stabilized - 1][1], p ** (stabilized * dim))
    return CountProfile(p, eq, tuple(counts), tuple(raw), dim, stabilized, volume)


# --------------------------------------------------------------------------
# 2-adic digit tables


@dataclass(frozen=True)
class DigitConstraint:
    var: str          # "x" or "y"
    index: int
    status: str       # "forced" | "free" | "affine" | "irregular"
    value: Optional[int] = None              # for forced digits
    relation: Optional[str] = None           # for affine digits, e.g. "x1 + y1"

    def to_json(self) -> dict:
        return {
            "var": self.var,
            "index": self.index,
            "status": self.status,
            "value": self.value,
            "relation": self.relation,
        }

    def __repr__(self):
        name = f"{self.var}{self.index}"
        if self.status == "forced":
            return f"{name} = {self.value}"
        if self.status == "affine":
            return f"{name} = {self.relation}"
        return f"{name} {self.status}"


@dataclass(frozen=True)
class DigitComponent:
    anchor: tuple[int, int]   # (x0, y0)
    rows: tuple[DigitConstraint, ...]
    pattern_count: int
    volume: Fraction

    def to_json(self) -> dict:
        return {
            "anchor": list(self.anchor),
            "rows": [r.to_json() for r in self.rows],
            "pattern_count": self.pattern_count,
            "volume": frac_to_json(self.volume),
        }


@dataclass(frozen=True)
class DigitTable:
    equation: NormEquation
    depth: int
    rows: tuple[DigitConstraint, ...]          # full solution set
    components: tuple[DigitComponent, ...]     # grouped by leading digits
    pattern_count: int
    volume_at_depth: Fraction

    def component_at(self, anchor: tuple[int, int]) -> DigitComponent:
        for c in self.components:
            if c.anchor == anchor:
                return c
        raise KeyError(f"no solution component with leading digits {anchor}")

    def to_json(self) -> dict:
        return {
            "d": self.equation.epsilon,
            "depth": self.depth,
            "rows": [r.to_json() for r in self.rows],
            "components": [c.to_json() for c in self.components],
            "pattern_count": self.pattern_count,
            "volume_at_depth": frac_to_json(self.volume_at_depth),
        }


def _gauss_affine_fit(points: list[tuple[int, ...]], j: int) -> Optional[tuple[int, list[int]]]:
    """Fit c_j = a0 + sum a_i c_i over GF(2); None if no affine relation holds."""
    ncols = j + 1
    rows = [list((1,) + pt[:j]) + [pt[j]] for pt in points]
    pivots, r0 = [], 0
    for c in range(ncols):
        pr = next((r for r in range(r0, len(rows)) if rows[r][c]), None)
        if pr is None:
            continue
        rows[r0], rows[pr] = rows[pr], rows[r0]
        for r in range(len(rows)):
            if r != r0 and rows[r][c]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[r0])]
        pivots.append(c)
        r0 += 1
    if not all(any(row[:ncols]) or not row[ncols] for row in rows):
        return None
    coeff = [0] * ncols
    for idx, c in enumerate(pivots):
        coeff[c] = rows[idx][ncols]
    const, lin = coeff[0], coeff[1:]
    for pt in points:
        if (const ^ (sum(a & b for a, b in zip(lin, pt)) & 1)) != pt[j]:
            return None
    return const, lin


def _classify_digits(vecs: set[tuple[int, ...]], depth: int) -> tuple[DigitConstraint, ...]:
    names = [(v, i) for i in range(depth) for v in ("x", "y")]
    out = []
    for j, (var, idx) in enumerate(names):
        prev = {v[:j] for v in vecs}
        now = {v[: j + 1] for v in vecs}
        if len(now) == 2 * len(prev):
            out.append(DigitConstraint(var, idx, "free"))
            continue
        if len(now) != len(prev):
            out.append(DigitConstraint(var, idx, "irregular"))
            continue
        fit = _gauss_affine_fit(sorted(now), j)
        if fit is None:
            out.append(DigitConstraint(var, idx, "irregular"))
            continue
        const, lin = fit
        terms = [f"{names[i][0]}{names[i][1]}" for i in range(j) if lin[i]]
        if not terms:
            out.append(DigitConstraint(var, idx, "forced", value=const))
        else:
            rel = " + ".join(terms) + (" + 1" if const else "")
            out.append(DigitConstraint(var, idx, "affine", relation=rel))
    return tuple(out)


def digit_table(eq: NormEquation, depth: int) -> DigitTable:
    """2-adic digit analysis of the solution set, to the given digit depth.

    Takes the image of the 2-adic solution set mod 2^depth (the projection
    count_mod counts at p = 2) and classifies each digit in the order
    x0, y0, x1, y1, ... as forced, free, or affinely determined by earlier
    digits.  The same classification is emitted per solution component
    (grouped by the leading digit pair), which is the shape hand analyses
    of these equations usually take.
    """
    if eq.constraint is not Constraint.NORM_ONE:
        raise ValueError("digit tables are defined for the norm-one constraint")
    if depth < 1:
        raise ValueError("depth must be a positive integer")
    _check_budget("depth", depth, _DEPTH_CAP, "a table enumerates the pairs mod 2^(depth + 2)")
    proj = _norm_one_2adic_image(eq.epsilon, depth)

    def to_vec(x: int, y: int) -> tuple[int, ...]:
        return tuple(b for i in range(depth) for b in (((x >> i) & 1), ((y >> i) & 1)))

    vecs = {to_vec(x, y) for x, y in proj}
    by_anchor: dict[tuple[int, int], set[tuple[int, ...]]] = {}
    for x, y in proj:
        by_anchor.setdefault((x & 1, y & 1), set()).add(to_vec(x, y))
    components = tuple(
        DigitComponent(
            anchor,
            _classify_digits(sub, depth),
            len(sub),
            Fraction(len(sub), 1 << depth),
        )
        for anchor, sub in sorted(by_anchor.items())
    )
    return DigitTable(
        eq,
        depth,
        _classify_digits(vecs, depth),
        components,
        len(vecs),
        Fraction(len(vecs), 1 << depth),
    )

"""The package's records: immutable, compared by value, cheap to import.

Plain records are ``typing.NamedTuple``s; the four that validate their
fields put a ``__new__`` on a NamedTuple base.  Importing the CLI loads
neither ``dataclasses`` nor ``inspect``, which the dataclass machinery
pulled in and which dominated the package's import time.
"""

import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import padic_orbits
from padic_orbits import (
    acceptance,
    eichlerselberg,
    exact,
    gl2local,
    kirillov,
    localquad,
    quadglobal,
)
from padic_orbits.localquad import LocalQuadType, P2Detail, QuadKind
from padic_orbits.pointcount import (
    Constraint,
    DigitConstraint,
    NormEquation,
    digit_table,
    volume_profile,
)
from padic_orbits.weylsteinberg import (
    Gl2OrbitClass,
    GroupKind,
    OrbitKind,
    SpectralData,
    sp4_identity_check,
)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S keeps site's own imports out of the fresh interpreter.
    src = str(Path(padic_orbits.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import padic_orbits.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


_TABLE = digit_table(NormEquation(2, Constraint.NORM_ONE), 3)
_RECORDS = {
    "Discrepancy": lambda: acceptance.Discrepancy("check", "reference", "computed", "witness"),
    "CriterionResult": lambda: acceptance.run_all({key for key, _ in acceptance.CRITERIA})[0],
    "TraceTerms": lambda: eichlerselberg.trace_formula(12, 2),
    "OrbitalReport": lambda: gl2local.full_report(1, 6, 5),
    "ConversionReport": lambda: kirillov.sl2_conversion_report(1.0),
    "WorstSample": lambda: kirillov.orbit_form_samples()[1],
    "TorusVolumeReport": lambda: localquad.res_torus_volume(localquad.classify_quad(-1, 3), 3),
    "Norm1VolumeReport": lambda: localquad.norm1_report(localquad.classify_quad(5, 5), 5),
    "CountProfile": lambda: volume_profile(NormEquation(2, Constraint.NORM_ONE), 2, 3),
    "DigitConstraint": lambda: _TABLE.rows[0],
    "DigitComponent": lambda: _TABLE.components[0],
    "DigitTable": lambda: _TABLE,
    "QuadFieldData": lambda: quadglobal.quad_field_data(-4),
    "CnfReport": lambda: quadglobal.cnf_report(quadglobal.quad_field_data(-4)),
    "GlobalIdentityReport": lambda: quadglobal.global_identity_check(0, 1),
    "Sp4IdentityCheck": lambda: sp4_identity_check(2, 3),
    "LocalQuadType": lambda: localquad.classify_quad(-1, 2),
    "NormEquation": lambda: NormEquation(-1, Constraint.UNIT_NORM),
    "SpectralData": lambda: SpectralData(GroupKind.GSP2N, (2,), 6),
    "Gl2OrbitClass": lambda: Gl2OrbitClass(OrbitKind.RAM_ELLIPTIC, 1, 3),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_record_fields_are_read_only(name):
    record = _RECORDS[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


@pytest.mark.parametrize("make", [
    lambda x: NormEquation(x - 3, Constraint.NORM_ONE),
    lambda x: LocalQuadType(QuadKind.RAMIFIED, P2Detail.TWICE_UNIT if x == 1 else None),
    lambda x: Gl2OrbitClass(OrbitKind.HYPERBOLIC, x, 5),
    lambda x: SpectralData(GroupKind.GSP2N, (x + 1, x + 2), x + 4),
    lambda x: DigitConstraint("x", x, "affine", relation="y1"),
], ids=["NormEquation", "LocalQuadType", "Gl2OrbitClass", "SpectralData", "DigitConstraint"])
def test_records_compare_and_hash_by_value(make):
    a, b, other = make(1), make(1), make(2)
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != other


@pytest.mark.parametrize("make, message", [
    (lambda: LocalQuadType(QuadKind.SPLIT, P2Detail.TWICE_UNIT),
     "p2_detail only applies to the ramified kind"),
    (lambda: NormEquation(4, Constraint.NORM_ONE), "epsilon = 4 must be squarefree"),
    (lambda: SpectralData(GroupKind.GLN, ()), "need at least one eigenvalue"),
    (lambda: SpectralData(GroupKind.GSP2N, (2,)), "GSp requires the multiplier nu"),
    (lambda: SpectralData(GroupKind.GSP2N, (2,), 0), "multiplier must be nonzero"),
    (lambda: SpectralData(GroupKind.SP2N, (2,), 6), "multiplier only applies to GSp"),
    (lambda: SpectralData(GroupKind.GLN, (2, 0)), "group eigenvalues must be nonzero"),
    (lambda: SpectralData(GroupKind.SLN_LIE, (1, 2)), "sl eigenvalues must sum to zero"),
    (lambda: Gl2OrbitClass(OrbitKind.HYPERBOLIC, -1, 3), "depth d must be nonnegative"),
    (lambda: Gl2OrbitClass(OrbitKind.HYPERBOLIC, 0, 4), "4 is not prime"),
], ids=["p2-detail", "epsilon", "no-eigenvalues", "no-nu", "zero-nu", "nu-outside-gsp",
        "zero-eigenvalue", "sl-trace", "negative-depth", "composite-q"])
def test_validating_records_refuse_bad_fields(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_validating_records_normalize_their_fields():
    s = SpectralData(GroupKind.GSP2N, [2, 3], 6)
    assert s == SpectralData(GroupKind.GSP2N, (Fraction(2), Fraction(3)), Fraction(6))
    assert type(s.eigenvalues) is tuple
    assert {type(x) for x in (*s.eigenvalues, s.multiplier)} == {Fraction}
    # q is kept as the tested prime, which passes _require_prime untested
    assert type(Gl2OrbitClass(OrbitKind.HYPERBOLIC, 0, 5).q) is exact._Prime


def test_criterion_results_hold_their_own_lists():
    # perfbench compares to_json() with == against the JSON golden, where a
    # tuple would never equal the list json.loads gives.
    skipped = acceptance.run_all({key for key, _ in acceptance.CRITERIA})
    ran = acceptance.criterion_4_gl2_factorization()
    for result in (*skipped[:2], ran):
        payload = result.to_json()
        assert type(payload["details"]) is list and type(payload["discrepancies"]) is list
    assert skipped[0].details is not skipped[1].details
    assert skipped[0].discrepancies is not skipped[1].discrepancies

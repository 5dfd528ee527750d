"""Command-line interface: one subcommand per module, JSON on stdout.

Exit codes: 0 success, 1 domain error (with an {"error": ...} payload),
2 usage error, 3 failed internal invariant (an ArithmeticError other than
ZeroDivisionError, with the same payload).  All big integers are serialized
as decimal strings and keys are emitted sorted, so identical invocations
produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import acceptance, gl2local, kirillov, localquad, pointcount, quadglobal
from . import eichlerselberg as es
from . import weylsteinberg as ws
from .exact import _require_prime, frac_to_json


def _emit(payload: dict) -> int:
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _fail(message: str, code: int = 1) -> int:
    print(json.dumps({"error": message}, sort_keys=True))
    return code


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _fractions(text: str) -> tuple[Fraction, ...]:
    return tuple(map(_parse_fraction, text.split(",")))


def _prime(text: str) -> int:
    value = int(text)
    try:
        return _require_prime(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _even_weight(text: str) -> int:
    value = int(text)
    if value % 2 or value < 4:
        raise argparse.ArgumentTypeError("weight must be an even integer >= 4")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-orbits",
        description="Exact p-adic torus volumes, GL2 orbital integrals, class "
                    "numbers, and the level-one trace formula.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("torus-volume", help="closed-form torus volumes at p")
    p.set_defaults(run=_cmd_torus_volume)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument("--norm1", action="store_true")

    p = sub.add_parser("point-count", help="brute-force residue counts and volume")
    p.set_defaults(run=_cmd_point_count)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--constraint", choices=["unit", "one"], required=True)
    p.add_argument("--digits", action="store_true")

    p = sub.add_parser("disc", help="Weyl discriminant from eigenvalue data")
    p.set_defaults(run=_cmd_disc)
    p.add_argument("--group", choices=[g.value for g in ws.GroupKind] + ["gl2"], required=True)
    p.add_argument("--eigs", type=_fractions, required=True, help="comma-separated rationals")
    p.add_argument("--nu", type=_parse_fraction, default=None)

    p = sub.add_parser("orbital", help="GL2 orbital integral report")
    p.set_defaults(run=_cmd_orbital)
    p.add_argument("--trace", type=_parse_fraction)
    p.add_argument("--det", type=_parse_fraction)
    p.add_argument("--p", type=_prime)
    p.add_argument("--kind", choices=["h", "u", "r"])
    p.add_argument("--d", type=int)

    p = sub.add_parser("classnum", help="class number of a negative discriminant")
    p.set_defaults(run=_cmd_classnum)
    p.add_argument("--disc", type=int, required=True)

    p = sub.add_parser("cnf", help="analytic class number formula residual")
    p.set_defaults(run=_cmd_cnf)
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("global-check", help="global volume-orbital identity")
    p.set_defaults(run=_cmd_global_check)
    p.add_argument("--trace", type=int, required=True)
    p.add_argument("--det", type=int, required=True)

    p = sub.add_parser("trace", help="trace of a Hecke operator, level one")
    p.set_defaults(run=_cmd_trace)
    p.add_argument("--k", type=_even_weight, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--oracle", action="store_true")

    p = sub.add_parser("tau", help="Ramanujan tau values from the eta product")
    p.set_defaults(run=_cmd_tau)
    p.add_argument("--upto", type=int, required=True)

    p = sub.add_parser("kirillov", help="orbit 2-form numeric checks")
    p.set_defaults(run=_cmd_kirillov)
    p.add_argument("--check", choices=["cone", "sphere", "conversion"], required=True)

    p = sub.add_parser("reproduce-all", help="run every acceptance criterion")
    p.set_defaults(run=_cmd_reproduce_all)
    p.add_argument("--skip", action="append", default=[],
                   choices=[key for key, _ in acceptance.CRITERIA])
    return parser


def _cmd_torus_volume(args) -> int:
    t = localquad.classify_quad(args.d, args.p)
    if args.norm1:
        return _emit(localquad.norm1_report(t, args.p).to_json())
    return _emit(localquad.res_torus_volume(t, args.p).to_json())


def _cmd_point_count(args) -> int:
    eq = pointcount.NormEquation(args.d, pointcount.Constraint(args.constraint))
    payload = pointcount.volume_profile(eq, args.p, args.k).to_json()
    if args.digits:
        if args.p != 2:
            raise ValueError("digit tables are 2-adic; --digits requires --p 2")
        payload["digits"] = pointcount.digit_table(eq, min(args.k, 6)).to_json()
    return _emit(payload)


def _cmd_disc(args) -> int:
    eigs = args.eigs
    group = args.group
    if group == "gl2":
        group = "gln"
        if len(eigs) != 2:
            raise ValueError("gl2 takes exactly two eigenvalues")
    s = ws.SpectralData(ws.GroupKind(group), eigs, args.nu)
    return _emit({
        "group": args.group,
        "eigenvalues": [frac_to_json(x) for x in eigs],
        "nu": frac_to_json(args.nu) if args.nu is not None else None,
        "weyl_disc": frac_to_json(ws.weyl_disc(s)),
    })


def _cmd_orbital(args) -> int:
    by_element = args.trace is not None or args.det is not None
    if by_element:
        if args.trace is None or args.det is None or args.p is None:
            raise ValueError("element input needs --trace, --det and --p")
        report = gl2local.full_report(args.trace, args.det, args.p)
    else:
        if args.kind is None or args.d is None or args.p is None:
            raise ValueError("class input needs --kind, --d and --p")
        report = gl2local.report_for_class(gl2local.class_from_letter(args.kind, args.d, args.p))
    return _emit(report.to_json())


def _cmd_classnum(args) -> int:
    return _emit({
        "disc": args.disc,
        "class_number": str(quadglobal.class_number(args.disc)),
        "weighted_class_number": frac_to_json(quadglobal.hurwitz_hw(args.disc)),
    })


def _cmd_cnf(args) -> int:
    return _emit(quadglobal.cnf_report(args.d).to_json())


def _cmd_global_check(args) -> int:
    return _emit(quadglobal.global_identity_check(args.trace, args.det).to_json())


def _cmd_trace(args) -> int:
    # the oracle first, so that its cap refuses n before any trace-formula work
    oracle = es.oracle_coefficient(args.k, args.n) if args.oracle else None
    terms = es.trace_formula(args.k, args.n)
    payload = terms.to_json()
    if args.oracle:
        payload["oracle"] = str(oracle)
        payload["match"] = oracle == terms.trace
    return _emit(payload)


def _cmd_tau(args) -> int:
    tau = es.eta_tau(args.upto)
    return _emit({"upto": args.upto, "tau": [str(t) for t in tau[1:]]})


def _cmd_kirillov(args) -> int:
    import math
    import random

    rng = random.Random(11)
    samples = 20
    if args.check == "cone":
        worst = 0.0
        for _ in range(samples):
            t = rng.uniform(0.5, 3.0)
            theta = rng.uniform(0.2, math.pi - 0.2)
            worst = max(worst, abs(kirillov.cone_pullback_check(t, theta) - 4.0))
        return _emit({"check": "cone", "samples": samples,
                      "expected": 4.0, "worst_abs_error": worst})
    if args.check == "sphere":
        worst = 0.0
        for _ in range(samples):
            phi = rng.uniform(0.1, math.pi - 0.1)
            theta = rng.uniform(0.0, 2 * math.pi)
            worst = max(worst,
                        abs(kirillov.sphere_density_spherical(phi, theta) - 2 * math.sin(phi)))
        return _emit({"check": "sphere", "samples": samples,
                      "expected": "2 sin(phi)", "worst_abs_error": worst})
    reports = [kirillov.sl2_conversion_report(t).to_json() for t in (0.5, 1.0, 2.0, 5.0)]
    return _emit({"check": "conversion", "reports": reports})


def _cmd_reproduce_all(args) -> int:
    results = acceptance.run_all(set(args.skip))
    all_ok = all(r.ok for r in results)
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"[{status}] {r.key}: {r.title} ({r.seconds:.2f}s)", file=sys.stderr)
        for d in r.discrepancies:
            print(f"    reference-table discrepancy: {d.check}: published "
                  f"{d.reference!r}, computed {d.computed!r} (witness: {d.witness})",
                  file=sys.stderr)
        if not r.ok:
            for line in r.details:
                print(f"    {line}", file=sys.stderr)
    # Timings stay on the stderr lines above so that stdout is deterministic.
    stdout_results = [{k: v for k, v in r.to_json().items() if k != "seconds"}
                      for r in results]
    print(json.dumps({"ok": all_ok, "results": stdout_results}, sort_keys=True, indent=2))
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, ZeroDivisionError, KeyError) as exc:
        return _fail(str(exc))
    except ArithmeticError as exc:
        return _fail(str(exc), 3)


if __name__ == "__main__":
    sys.exit(main())

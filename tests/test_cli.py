import ast
import json
import re
import time
from pathlib import Path

import pytest

import padic_orbits.eichlerselberg as es
from padic_orbits.acceptance import CRITERIA
from padic_orbits.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_torus_volume(capsys):
    code, out = run_cli(capsys, "torus-volume", "--d", "-1", "--p", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "Unramified"
    assert payload["vol_omega_T_Tc"] == {
        "coeff_num": "8", "coeff_den": "9", "q": 3, "half_exp": 0}


def test_torus_volume_norm1_p2_is_domain_error(capsys):
    code, out = run_cli(capsys, "torus-volume", "--d", "2", "--p", "2", "--norm1")
    assert code == 1
    assert "error" in json.loads(out)


def test_torus_volume_norm1_odd_p(capsys):
    code, out = run_cli(capsys, "torus-volume", "--d", "5", "--p", "5", "--norm1")
    assert code == 0
    payload = json.loads(out)
    assert payload["index_Tc_over_T0"] == 2
    assert payload["vol_omega_T_Tc"] == {
        "coeff_num": "2", "coeff_den": "1", "q": 5, "half_exp": -1}


def test_point_count_digits_require_p2(capsys):
    code, out = run_cli(capsys, "point-count", "--d", "-1", "--p", "3", "--k", "2",
                        "--constraint", "one", "--digits")
    assert code == 1
    assert "2-adic" in json.loads(out)["error"]


def test_point_count_with_digits(capsys):
    code, out = run_cli(capsys, "point-count", "--d", "2", "--p", "2", "--k", "5",
                        "--constraint", "one", "--digits")
    assert code == 0
    payload = json.loads(out)
    assert payload["volume"] == "1"
    assert payload["counts"][:3] == [[1, "1"], [2, "4"], [3, "8"]]
    x2 = [r for r in payload["digits"]["components"][0]["rows"]
          if r["var"] == "x" and r["index"] == 2]
    assert x2[0]["relation"] == "x1 + y1"


def test_disc_subcommand(capsys):
    code, out = run_cli(capsys, "disc", "--group", "gl2", "--eigs", "2,3")
    assert code == 0
    assert json.loads(out)["weyl_disc"] == "-1/6"
    code, out = run_cli(capsys, "disc", "--group", "gsp2n", "--eigs", "2", "--nu", "6")
    assert code == 0
    assert json.loads(out)["weyl_disc"] == "-1/6"
    code, out = run_cli(capsys, "disc", "--group", "sl-lie", "--eigs", "3,-3")
    assert code == 0
    assert json.loads(out)["weyl_disc"] == "-36"
    code, out = run_cli(capsys, "disc", "--group", "sp-lie", "--eigs", "1/2")
    assert code == 0
    assert json.loads(out)["weyl_disc"] == "-1"


def test_orbital_by_element(capsys):
    code, out = run_cli(capsys, "orbital", "--trace", "5", "--det", "6", "--p", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == {"kind": "Hyperbolic", "d": 0, "q": 5}
    assert payload["O_canonical"] == "1"


def test_orbital_by_class(capsys):
    code, out = run_cli(capsys, "orbital", "--kind", "r", "--d", "1", "--p", "3")
    assert code == 0
    assert json.loads(out)["O_canonical"] == "4"


def test_classnum(capsys, monkeypatch):
    import padic_orbits.quadglobal as qg

    walks, walk = [], qg._reduced_triples
    monkeypatch.setattr(qg, "_reduced_triples", lambda D: walks.append(D) or walk(D))
    code, out = run_cli(capsys, "classnum", "--disc", "-23")
    assert code == 0
    payload = json.loads(out)
    assert payload["class_number"] == 3
    assert walks == [-23]   # the weighted count reuses the one walk's h


def test_classnum_over_budget_is_a_json_error_at_once(capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, "classnum", "--disc", "-1000000000000")
    assert time.perf_counter() - start < 5.0   # the walk would take hours
    assert code == 1
    assert "at most 100000000" in json.loads(out)["error"]


def test_trace_oracle_cap_is_checked_before_the_trace_formula(capsys, monkeypatch):
    def refuse(n):
        raise RuntimeError("trace formula built before the oracle's cap")

    monkeypatch.setattr(es, "hurwitz6_row", refuse)
    code, out = run_cli(capsys, "trace", "--k", "26", "--n", "2001", "--oracle")
    assert code == 1
    assert json.loads(out)["error"] == (
        "n = 2001 must be at most 2000: the eta/Eisenstein oracle multiplies series of n terms")


# The largest admitted and the first refused power of 3 in global-check: at
# 3^1291, prod O_can is the first value past the largest float.
@pytest.mark.parametrize("e, admitted", [(1290, True), (1291, False)])
def test_global_check_float_range_boundary(capsys, e, admitted):
    code, out = run_cli(capsys, "global-check", "--trace", "0", "--det", str(3 ** e))
    payload = json.loads(out)
    if admitted:
        assert code == 0 and payload["ok"] is True
    else:
        assert code == 1 and "within the float range" in payload["error"]


def test_trace_with_oracle(capsys):
    code, out = run_cli(capsys, "trace", "--k", "12", "--n", "2", "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["trace"] == "-24"
    assert payload["oracle"] == "-24"
    assert payload["match"] is True


def test_trace_over_budget_is_a_json_error_at_once(capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, "trace", "--k", "12", "--n", "1000000000")
    assert time.perf_counter() - start < 5.0   # the full sum would take hours
    assert code == 1
    assert "at most 100000" in json.loads(out)["error"]


# 1000003 and 1000033 are primes above the trial-division bound of 10^6, so
# neither N nor 4N factors before the bound.
_UNFACTORED = 1000003 * 1000033


@pytest.mark.parametrize("argv", [
    f"torus-volume --d {_UNFACTORED} --p 3",
    f"point-count --d {_UNFACTORED} --p 3 --k 1 --constraint unit",
    f"orbital --trace 0 --det {_UNFACTORED} --p 3",
    f"global-check --trace 0 --det {_UNFACTORED}",
], ids=["torus-volume", "point-count", "orbital", "global-check"])
def test_huge_input_is_a_json_error_at_once(capsys, argv):
    start = time.perf_counter()
    code, out = run_cli(capsys, *argv.split())
    assert time.perf_counter() - start < 5.0   # each ran past 10 s without the bound
    assert code == 1
    assert "trial divisor = 1000001 must be at most 1000000" in json.loads(out)["error"]


# Each is above 10^12 but drops below the bound's square after small divisors:
# 4 * 2^40, 4 * 10^29, and 1 - 4 * 1000003^2 over the square 1000003^2.
@pytest.mark.parametrize("argv", [
    "global-check --trace 0 --det 1099511627776",
    f"orbital --trace 0 --det {10 ** 29} --p 3",
    "orbital --trace 1/1000003 --det 1 --p 3",
], ids=["global-check", "orbital", "orbital-rational"])
def test_large_input_that_factors_at_once_is_admitted(capsys, argv):
    start = time.perf_counter()
    code, out = run_cli(capsys, *argv.split())
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert "error" not in json.loads(out)


# One absurd value per capped input.  Each is refused before any work, with
# a message that names its cap; trace --k, orbital --d, disc and
# torus-volume --p used to run for seconds, then fail in int-to-str
# conversion.  A refused p is a usage error, as a composite p is.
_PRINT_REFUSAL = "must be at most 12000: printed results are capped in bits"


@pytest.mark.parametrize("argv, code, cap", [
    ("trace --k 1000000 --n 2", 1, _PRINT_REFUSAL),
    ("trace --k 12 --n 1000000000", 1, "n = 1000000000 must be at most 100000:"),
    ("orbital --kind u --d 1000000 --p 3", 1, _PRINT_REFUSAL),
    ("point-count --d 3 --p 2 --k 1000000000 --constraint one", 1,
     "k = 1000000000 must be at most 14:"),
    ("point-count --d 2 --p 3 --k 3000000 --constraint unit", 1,
     "k = 3000000 must be at most 14:"),
    ("classnum --disc -1000000000000", 1, "at most 100000000:"),
    ("tau --upto 1000000000", 1, "N = 1000000000 must be at most 10000:"),
    ("cnf --d -1000000000001", 1, "at most 100000000:"),
    ("global-check --trace 1 --det 1000000007", 1, "at most 100000000:"),
    (f"global-check --trace 0 --det {3 ** 5000}", 1, "det = 3^5000: prod O_can is about 2^3963 "
                                                     "and (h/w) * prod O_can about 2^3961; the "
                                                     "float lhs and rhs need both within the "
                                                     "float range (at most 1.79769e+308)"),
    ("trace --k 26 --n 2001 --oracle", 1, "n = 2001 must be at most 2000: the eta/Eisenstein "
                                          "oracle multiplies series of n terms"),
    ("disc --group gln --eigs " + ",".join(map(str, range(2, 802))), 1,
     "at 800 eigenvalues = 15340800 " + _PRINT_REFUSAL),
    (f"torus-volume --d -1 --p {2 ** 9689 - 1}", 2,
     "bits of p = 9689 must be at most 6000: printed results are capped in bits"),
], ids=["trace-k", "trace-n", "orbital-d", "point-count-p2", "point-count-p3",
        "classnum", "tau", "cnf", "global-check", "global-check-float", "trace-oracle-n",
        "disc", "torus-volume-p"])
def test_over_budget_input_is_refused_at_once(capsys, argv, code, cap):
    start = time.perf_counter()
    try:
        exit_code = main(argv.split())
        error = json.loads(capsys.readouterr().out)["error"]
    except SystemExit as exc:   # a usage error: argparse names the argument on stderr
        exit_code = exc.code
        error = capsys.readouterr().err.splitlines()[-1]
    assert time.perf_counter() - start < 1.0
    assert exit_code == code
    assert cap in error and "Exceeds the limit" not in error
    if "float range" not in cap:   # the float range of global-check is not a budget
        assert re.fullmatch(r".+ = \d+ must be at most \d+: .+", error), error


# Domain refusals, each with its whole payload.  A d of cnf is gated once,
# before any cap, so d = -10^12 is refused as non-squarefree, not as over the
# class-number cap; that cap comes before the L budget.  The same n of trace
# gets the same name with and without the oracle.
_SQUAREFREE_D = "d must be a negative squarefree integer"


@pytest.mark.parametrize("argv, message", [
    ("cnf --d 4", _SQUAREFREE_D),
    ("cnf --d 0", _SQUAREFREE_D),
    ("cnf --d -12", _SQUAREFREE_D),
    ("cnf --d -1000000000000", _SQUAREFREE_D),
    ("cnf --d -1000000000001", "|D| = 4000000000004 must be at most 100000000: the independent "
                               "scan, class_number_scan, does O(|D|) work and sets the cap"),
    ("cnf --d -9999991", "|disc| = 9999991 must be at most 1000000: L(1, chi) evaluates "
                         "2|disc| digamma values"),
    ("global-check --trace 5 --det 6", "need an elliptic element: trace^2 - 4 det < 0"),
    ("orbital --trace 2 --det 1 --p 5", "not regular semisimple: zero discriminant"),
    ("orbital --trace 1/5 --det 1/25 --p 5", "inconsistent valuation data: negative depth"),
    ("torus-volume --d 12 --p 5", "d = 12 must be squarefree and != 0, 1"),
    ("point-count --d 12 --p 3 --k 2 --constraint one", "epsilon = 12 must be squarefree"),
    ("trace --k 12 --n 0", "n must be a positive integer"),
    ("trace --k 12 --n 0 --oracle", "n must be a positive integer"),
], ids=["cnf-d-positive", "cnf-d-zero", "cnf-d-not-squarefree", "cnf-d-not-squarefree-past-cap",
        "cnf-class-number-cap", "cnf-L-budget", "global-check-hyperbolic", "orbital-zero-disc",
        "orbital-negative-depth", "torus-volume-d", "point-count-d", "trace-n", "trace-oracle-n"])
def test_domain_refusal_keeps_its_message(capsys, argv, message):
    code, out = run_cli(capsys, *argv.split())
    assert code == 1
    assert json.loads(out) == {"error": message}


# The print budget admits (k // 2) * n.bit_length() and (d + 2) * q.bit_length()
# up to 12000: the largest admitted input prints, and the next one is refused.
@pytest.mark.parametrize("argv, admitted", [
    ("trace --k 1410 --n 99991", True),        # 705 * 17 = 11985 bits
    ("trace --k 1412 --n 99991", False),       # 706 * 17 = 12002
    ("trace --k 24000 --n 1", True),           # 12000 * 1
    ("trace --k 24002 --n 1", False),
    ("orbital --kind u --d 5998 --p 3", True),   # 6000 * 2
    ("orbital --kind u --d 5999 --p 3", False),
])
def test_print_budget_boundary(capsys, argv, admitted):
    code, out = run_cli(capsys, *argv.split())
    payload = json.loads(out)
    if admitted:
        assert code == 0 and "error" not in payload
    else:
        assert code == 1 and _PRINT_REFUSAL in payload["error"]


# A p that passed the CLI is not tested again by the functions it is passed to.
@pytest.mark.parametrize("argv, p", [
    ("torus-volume --d -1 --p 3", 3),
    ("orbital --trace 1 --det 6 --p 5", 5),
    ("orbital --kind r --d 1 --p 3", 3),
    ("point-count --d 2 --p 2 --k 3 --constraint one", 2),
], ids=["torus-volume", "orbital-element", "orbital-class", "point-count"])
def test_p_is_tested_for_primality_once(capsys, monkeypatch, argv, p):
    import padic_orbits.exact as exact

    real, calls = exact.is_prime, []
    monkeypatch.setattr(exact, "is_prime", lambda n: calls.append(n) or real(n))
    code, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert calls == [p]


# Unparsable input is a usage error (exit 2) whose last stderr line names it.
@pytest.mark.parametrize("argv, message", [
    ("disc --group gln --eigs 1/0", "argument --eigs: not a rational number: '1/0'"),
    ("disc --group gln --eigs ,", "argument --eigs: not a rational number: ''"),
    # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to the bases 2..37
    ("torus-volume --d -1 --p 318665857834031151167461",
     "argument --p: 318665857834031151167461 is not prime"),
], ids=["eigs-zero-denominator", "eigs-empty", "p-psi-12"])
def test_bad_input_is_a_usage_error_that_names_it(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(message)


# argparse reads "-1/2" as an option; main joins it to the option before it.
@pytest.mark.parametrize("spaced, joined", [
    ("orbital --trace -1/2 --det 1 --p 3", "orbital --trace=-1/2 --det 1 --p 3"),
    ("orbital --trace -1/2 --det -3/4 --p 5", "orbital --trace=-1/2 --det=-3/4 --p 5"),
    ("disc --group gln --eigs -1,2", "disc --group gln --eigs=-1,2"),
], ids=["trace", "trace-and-det", "eigs"])
def test_negative_rational_may_follow_its_option(capsys, spaced, joined):
    code, out = run_cli(capsys, *spaced.split())
    assert code == 0
    assert run_cli(capsys, *joined.split()) == (code, out)


def test_trace_odd_weight_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--k", "13", "--n", "1"])
    assert exc.value.code == 2


def test_unknown_command_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_tau(capsys):
    code, out = run_cli(capsys, "tau", "--upto", "5")
    assert code == 0
    assert json.loads(out)["tau"] == ["1", "-24", "252", "-1472", "4830"]


def test_cnf(capsys):
    code, out = run_cli(capsys, "cnf", "--d", "-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True


def test_kirillov_checks(capsys):
    code, out = run_cli(capsys, "kirillov", "--check", "cone")
    assert code == 0
    assert json.loads(out)["worst_abs_error"] < 1e-6
    code, out = run_cli(capsys, "kirillov", "--check", "conversion")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["t"] for r in reports] == ["1/2", "1", "2", "5"]
    assert all(r["coefficient_times_disc"] == "1" for r in reports)


def test_kirillov_prints_the_samples_criterion_8_checks(capsys):
    from padic_orbits import acceptance, kirillov

    cone, sphere, _ = kirillov.orbit_form_samples()
    detail = acceptance.criterion_8_orbit_forms().details[0]
    for check, count, worst in (("cone", 20, cone), ("sphere", 100, sphere)):
        code, out = run_cli(capsys, "kirillov", "--check", check)
        payload = json.loads(out)
        assert code == 0 and payload["samples"] == count
        assert payload["worst_abs_error"] == worst.error
        assert f"{check} worst {payload['worst_abs_error']:.2e};" in detail
    # kirillov is the one module that samples: no other imports random, even locally
    importers = {path.stem for path in Path(kirillov.__file__).parent.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ImportFrom) and node.module == "random"
                 or isinstance(node, ast.Import) and "random" in (a.name for a in node.names)}
    assert importers == {"kirillov"}


@pytest.mark.parametrize("argv", [
    "cnf --d -23 --terms 5",
    "global-check --trace 1 --det 6 --terms 5",
    "reproduce-all --terms 5",
    "kirillov --check cone --samples 5",
], ids=["cnf-terms", "global-check-terms", "reproduce-all-terms", "kirillov-samples"])
def test_removed_option_is_usage_error(argv):
    # L(1, chi) is always summed to L_TERMS terms, and kirillov prints criterion 8's samples.
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2


def test_domain_error_payload(capsys):
    code, out = run_cli(capsys, "classnum", "--disc", "5")
    assert code == 1
    assert "error" in json.loads(out)


def test_failed_invariant_exits_3(capsys, monkeypatch):
    import padic_orbits.eichlerselberg as es

    real = es.hurwitz6_row
    # 6H + 1 at every t adds 78 to the elliptic sum of U_10(t, 2) 6H, not a multiple of 12
    monkeypatch.setattr(es, "hurwitz6_row", lambda n: [h + 1 for h in real(n)])
    code, out = run_cli(capsys, "trace", "--k", "12", "--n", "2")
    assert code == 3
    assert json.loads(out) == {
        "error": "trace formula integrality violated at k=12, n=2: -61/2"}


@pytest.mark.parametrize("trace", ["1", "3"])
def test_singular_element_is_a_domain_error(capsys, trace):
    # det = 0 is not in GL2, whatever the discriminant trace^2 says
    code, out = run_cli(capsys, "orbital", "--trace", trace, "--det", "0", "--p", "3")
    assert code == 1
    assert json.loads(out) == {"error": "det must be nonzero: an element of GL2 is invertible"}


def test_zero_division_stays_a_domain_error(capsys, monkeypatch):
    import padic_orbits.quadglobal as qg

    def divide(D):
        return 1 // (D + 23)

    monkeypatch.setattr(qg, "class_number", divide)
    code, out = run_cli(capsys, "classnum", "--disc", "-23")
    assert code == 1
    assert json.loads(out) == {"error": "integer division or modulo by zero"}


def test_output_is_byte_identical(capsys):
    _, first = run_cli(capsys, "orbital", "--trace", "1", "--det", "6", "--p", "5")
    _, second = run_cli(capsys, "orbital", "--trace", "1", "--det", "6", "--p", "5")
    assert first == second
    _, third = run_cli(capsys, "trace", "--k", "16", "--n", "7", "--oracle")
    _, fourth = run_cli(capsys, "trace", "--k", "16", "--n", "7", "--oracle")
    assert third == fourth


def test_reproduce_all_stdout_is_deterministic(capsys):
    skips = [arg for key, _ in CRITERIA if key != "gl2-factorization"
             for arg in ("--skip", key)]
    code, first = run_cli(capsys, "reproduce-all", *skips)
    assert code == 0
    _, second = run_cli(capsys, "reproduce-all", *skips)
    assert first == second
    assert "seconds" not in first
    results = json.loads(first)["results"]
    assert [r["key"] for r in results if r["details"] != ["skipped"]] == ["gl2-factorization"]


def test_global_check(capsys):
    code, out = run_cli(capsys, "global-check", "--trace", "0", "--det", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["field"]["disc"] == -4


# Payloads that tests/cli_golden.json does not store: they hold floats, or
# the shapes (p = 2 detail, unit constraint, hyperbolic class) no README
# example prints.  Each pin holds the payload with every float replaced by
# "<float>", so it fixes the nested keys and every exact leaf, and only the
# type of a float, whose digits depend on libm.  The float-free
# `kirillov --check conversion` pin is in both files.
PAYLOAD_PINS = json.loads((Path(__file__).with_name("cli_payload_pins.json")).read_text())


def _mask_floats(x):
    if isinstance(x, float):
        return "<float>"
    if isinstance(x, dict):
        return {k: _mask_floats(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_mask_floats(v) for v in x]
    return x


@pytest.mark.parametrize("command", sorted(PAYLOAD_PINS))
def test_payload_keys_and_exact_leaves_are_pinned(capsys, command):
    code, out = run_cli(capsys, *command.split())
    assert code == 0
    # compared as JSON text, so that true and 1, or "1" and 1, differ
    assert (json.dumps(_mask_floats(json.loads(out)), sort_keys=True)
            == json.dumps(PAYLOAD_PINS[command], sort_keys=True))

import json

import pytest

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


def test_classnum(capsys):
    code, out = run_cli(capsys, "classnum", "--disc", "-23")
    assert code == 0
    payload = json.loads(out)
    assert payload["class_number"] == "3"


def test_trace_with_oracle(capsys):
    code, out = run_cli(capsys, "trace", "--k", "12", "--n", "2", "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["trace"] == "-24"
    assert payload["oracle"] == "-24"
    assert payload["match"] is True


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
    code, out = run_cli(capsys, "cnf", "--d", "-1", "--terms", "100000")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True


def test_kirillov_checks(capsys):
    code, out = run_cli(capsys, "kirillov", "--check", "cone", "--samples", "5")
    assert code == 0
    assert json.loads(out)["worst_abs_error"] < 1e-6
    code, out = run_cli(capsys, "kirillov", "--check", "conversion")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert all(abs(r["coefficient_times_disc"] - 1.0) < 1e-12 for r in reports)


def test_domain_error_payload(capsys):
    code, out = run_cli(capsys, "classnum", "--disc", "5")
    assert code == 1
    assert "error" in json.loads(out)


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
    code, out = run_cli(capsys, "global-check", "--trace", "0", "--det", "1",
                        "--terms", "100000")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["field"]["disc"] == -4

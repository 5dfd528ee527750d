"""Byte-for-byte stdout of the README CLI examples against stored goldens.

``cli_golden.json`` maps each command line to its stdout.  Only examples
whose output holds no libm-dependent floats are stored, so the goldens hold
on every platform.  A change that alters any of these bytes is a change of
output, not a refactor: regenerate the file only on purpose.  Outputs too
large to store are pinned by the sha256 of their stdout.
"""

import hashlib
import json
from pathlib import Path

import pytest

from padic_orbits.cli import main

GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_readme_example_stdout_is_unchanged(capsys, command):
    assert main(command.split()) == 0
    assert capsys.readouterr().out == GOLDEN[command]


def test_every_golden_is_a_readme_example():
    # CI runs every README example through the installed console script
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    examples = {line.split("#")[0].split(maxsplit=1)[1].strip()
                for line in readme.splitlines() if line.startswith("padic-orbits ")}
    assert set(GOLDEN) <= examples


# sha256 of the stdout of ``padic-orbits tau --upto 10000`` (280,608 bytes)
TAU_10000_SHA256 = "c1da943964ceff9a056ac67ae45a1e75f601dd5240e6f3469e7c78508b974447"


def test_tau_upto_10000_stdout_is_unchanged(capsys):
    assert main(["tau", "--upto", "10000"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TAU_10000_SHA256

"""Byte-for-byte stdout of the README CLI examples against stored goldens.

``cli_golden.json`` maps each command line to its stdout.  Only examples
whose output holds no libm-dependent floats are stored, so the goldens hold
on every platform.  A change that alters any of these bytes is a change of
output, not a refactor: regenerate the file only on purpose.
"""

import json
from pathlib import Path

import pytest

from padic_orbits.cli import main

GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_readme_example_stdout_is_unchanged(capsys, command):
    assert main(command.split()) == 0
    assert capsys.readouterr().out == GOLDEN[command]

"""Every public top-level name of the package is used by the package or the
benchmark, and every function the package defines is entered by the program.

A function or class that only tests call is library code with no purpose in
the program.  The first check reads the syntax tree, so a name mentioned in
a docstring or a comment does not count as a use.  The second runs what a
user runs, every README command, an over-budget command and one pass of the
benchmark workloads, under a profiler, and names each function or method
that was never entered.
"""

import ast
import importlib.util
import inspect
import shlex
import sys
import types
from pathlib import Path

import padic_orbits
from padic_orbits import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "padic_orbits"


def _references(node):
    """Names loaded and attributes read anywhere under node."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
    return refs


def test_no_public_name_is_test_only():
    defined, used = set(), set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            refs = _references(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if path.parent == PACKAGE and not stmt.name.startswith("_"):
                    defined.add((path.stem, stmt.name))
                refs.discard(stmt.name)  # a recursive call is not a caller
            used |= refs
    unused = sorted(f"{module}.{name}" for module, name in defined if name not in used)
    assert not unused, f"public names with no caller in src/ or perfbench/: {unused}"


# Members that no program path enters, each kept for a reason.
_NEVER_ENTERED = {
    # QHalfPower defines __eq__, so without its own __hash__ the frozen
    # dataclass would generate a field hash that disagrees with ==.
    "exact.QHalfPower.__hash__",
    # Formats a digit row, which only the FAIL lines of criterion 2 print.
    "pointcount.DigitConstraint.__repr__",
}
_COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def _functions(path):
    """{(first line, name): qualified name} of every function and method in path.

    Class bodies run once at import, and a comprehension runs inside its
    function, so neither counts.
    """
    out = {}
    todo = [(compile(path.read_text(), str(path), "exec"), path.stem + ".")]
    while todo:
        code, prefix = todo.pop()
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                name = prefix + const.co_name
                if const.co_flags & inspect.CO_NEWLOCALS and const.co_name not in _COMPREHENSIONS:
                    out[const.co_firstlineno, const.co_name] = name
                todo.append((const, name + "."))
    return out


def _readme_commands():
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("padic-orbits "):
            yield shlex.split(line.split("#")[0])[1:]


def test_every_function_is_entered_by_the_program(capsys):
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        # The acceptance workload runs the run_all of reproduce-all, a README command.
        for argv in [*_readme_commands(), ["trace", "--k", "1000000", "--n", "2"]]:
            cli.main(argv)
        for workload in ("hecke", "oracles"):
            state = {}
            for item in workloads.make_pass(workload, 1, 0):
                workloads.run_item(state, item)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    entered = {(Path(c.co_filename).resolve(), c.co_firstlineno, c.co_name) for c in entered}
    package = Path(padic_orbits.__file__).resolve().parent
    never = {name for path in package.glob("*.py")
             for (line, fn), name in _functions(path).items() if (path, line, fn) not in entered}
    assert never == _NEVER_ENTERED, (
        f"never entered by a README command or a benchmark pass: "
        f"{sorted(never - _NEVER_ENTERED)}; allowed but entered: "
        f"{sorted(_NEVER_ENTERED - never)}")

"""Every public top-level name of the package is used by the package or the
benchmark, every function the package defines is entered by the program, and
every parameter the program passes more than once takes more than one value.

A function or class that only tests call is library code with no purpose in
the program, and so is a parameter the program never varies.  The first
check reads the syntax tree, so a name mentioned in a docstring or a comment
does not count as a use.  The other two run what a user runs, every README
command, an over-budget command and one pass of the benchmark workloads,
under a profiler: one names each function or method that was never entered,
the other each parameter that always got one value.
"""

import ast
import contextlib
import dis
import importlib.util
import inspect
import io
import shlex
import sys
import types
from pathlib import Path

import pytest

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


# The imported package's files, named as its code objects name them.
_PACKAGE_FILES = sorted(Path(padic_orbits.__file__).parent.glob("*.py"))


def _parameters(code):
    """The names of code's parameters, *args and **kwargs included.

    A method's self is the object it runs on, not a setting, so it is left out.
    """
    count = (code.co_argcount + code.co_kwonlyargcount
             + bool(code.co_flags & inspect.CO_VARARGS)
             + bool(code.co_flags & inspect.CO_VARKEYWORDS))
    return [name for name in code.co_varnames[:count] if name != "self"]


@pytest.fixture(scope="module")
def program_run():
    """Profile what a user runs: every README command, an over-budget command
    and one pass of the hecke and oracles workloads.

    Returns the code objects entered, and for each package function
    {code: [calls, {parameter: the value of its first call}, varied]}, where
    varied holds the parameters that some later call passed a value != to.
    """
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    names = _qualified_names()
    entered, calls, starts = set(), {}, {}

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        entered.add(code)
        if code not in starts:   # where a call starts, or None outside the package
            # From 3.11 a call starts at the first RESUME; before it, a fresh
            # frame has f_lasti -1 and a resumed generator a lasti >= 0.
            starts[code] = next((i.offset for i in dis.get_instructions(code)
                                 if i.opname == "RESUME"), -1) if _key(code) in names else None
        if frame.f_lasti != starts[code]:
            return   # not the package's, or a generator resumed with rebound parameters
        args = frame.f_locals
        if code not in calls:
            calls[code] = [0, {name: args[name] for name in _parameters(code)}, set()]
        record = calls[code]
        record[0] += 1
        for name, first in record[1].items():
            if name not in record[2] and not args[name] == first:
                record[2].add(name)

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            # The acceptance workload runs the run_all of reproduce-all, a README command.
            for argv in [*_readme_commands(), ["trace", "--k", "1000000", "--n", "2"]]:
                cli.main(argv)
            for workload in ("hecke", "oracles"):
                state = {}
                for item in workloads.make_pass(workload, 1, 0):
                    workloads.run_item(state, item)
    finally:
        sys.setprofile(None)
    return entered, calls


def _qualified_names():
    """{code key: qualified name} of every function in the package, where the
    key of a code object is its (file, first line, name)."""
    return {(str(path), line, fn): name for path in _PACKAGE_FILES
            for (line, fn), name in _functions(path).items()}


def _key(code):
    return code.co_filename, code.co_firstlineno, code.co_name


def test_every_function_is_entered_by_the_program(program_run):
    entered = set(map(_key, program_run[0]))
    never = {name for key, name in _qualified_names().items() if key not in entered}
    assert never == _NEVER_ENTERED, (
        f"never entered by a README command or a benchmark pass: "
        f"{sorted(never - _NEVER_ENTERED)}; allowed but entered: "
        f"{sorted(_NEVER_ENTERED - never)}")


# Parameters that the program calls with one value only, each kept for a reason.
_ONE_VALUE = {
    # Every criterion passes, so no call collects a failure.
    "acceptance._result.failures",
    # Raw counts are needed only at p = 2, the one prime where they differ
    # from the image of the solution set.
    "pointcount.raw_count_mod.p",
    # The benchmark's tracer reads this argument to count L-series terms.
    "quadglobal.dirichlet_L1.terms",
    # The operator computes o / t, and the maps only ever take 1 / t.
    "weylsteinberg._Dual.__rtruediv__.o",
}


def test_every_parameter_takes_more_than_one_value(program_run):
    names = _qualified_names()
    one_value = set()
    for code, (count, first, varied) in program_run[1].items():
        if count >= 2:
            name = names[_key(code)]
            one_value |= {f"{name}.{param}" for param in first if param not in varied}
    assert one_value == _ONE_VALUE, (
        f"parameters that a README command or a benchmark pass always sets to one "
        f"value: {sorted(one_value - _ONE_VALUE)}; allowed but varied or never "
        f"called twice: {sorted(_ONE_VALUE - one_value)}")

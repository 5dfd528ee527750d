"""Every public top-level name of the package is used by the package or the benchmark.

A function or class that only tests call is library code with no purpose in
the program.  The check reads the syntax tree, so a name mentioned in a
docstring or a comment does not count as a use.
"""

import ast
from pathlib import Path

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

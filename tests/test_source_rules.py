"""Rules on the package source, checked by parsing it."""

import ast
import sys
from pathlib import Path

import fullgroup_lab

SRC = Path(fullgroup_lab.__file__).parent


def test_src_has_no_assert_statements():
    # python -O strips asserts, so no check may live in one
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


# Only `recurrence --simulate` may sample: everything else is decided exactly.
SAMPLERS = {"Random", "random_points"}
MAY_SAMPLE = {("cli.py", "cmd_recurrence"), ("recurrence.py", "simulate_escape")}


def _sampling_calls(path: Path) -> list:
    """(file, enclosing top-level function or None, line) of every call of
    random.Random or random_points in a source file."""
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name in SAMPLERS:
                found.append((path.name, owner, node.lineno))
    return found


def test_only_the_recurrence_simulation_samples():
    calls = [call for path in sorted(SRC.glob("*.py"))
             for call in _sampling_calls(path)]
    assert {(name, owner) for name, owner, _line in calls} == MAY_SAMPLE


def test_src_imports_only_the_standard_library():
    # the package is pure stdlib: an import is relative or names a module
    # of the standard library
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert found == []

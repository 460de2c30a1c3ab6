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


def test_src_neither_samples_nor_reads_the_environment():
    # everything is decided exactly, and a report depends on its arguments
    # alone: no module imports random, and none reads os.environ or
    # os.getenv
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "random"
                      or name in ("environ", "getenv", "environb", "getenvb")]
    assert found == []


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

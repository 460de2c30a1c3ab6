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


def _imports(tree) -> list:
    """(line, module, names) of every import; a relative module keeps its
    dots (`from .cli import x` is ".cli", ("x",))."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name, ()) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found.append((node.lineno, module,
                          tuple(alias.name for alias in node.names)))
    return found


def test_only_the_command_line_parses_arguments():
    # the library raises its own errors and knows nothing of the shell:
    # only cli and __main__ import argparse or the cli module
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("cli.py", "__main__.py"):
            continue
        for line, module, names in _imports(ast.parse(path.read_text(), str(path))):
            if module.split(".")[0] == "argparse" or \
                    module in (".cli", "fullgroup_lab.cli") or \
                    (module in (".", "fullgroup_lab") and "cli" in names):
                found.append(f"{path.name}:{line} {module} {names}")
    assert found == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_test_or_demo_reads_a_private_name_of_cli():
    # the certifier's names are the verify module's, public; cli's private
    # names are its own
    root = SRC.parents[1]
    paths = sorted((root / "tests").glob("*.py")) + sorted((root / "demos").glob("*.py"))
    assert len(paths) >= 10
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "fullgroup_lab":
                aliases |= {a.asname or a.name for a in node.names if a.name == "cli"}
            elif isinstance(node, ast.ImportFrom) and node.module == "fullgroup_lab.cli":
                found += [f"{path.name}:{node.lineno} {a.name}"
                          for a in node.names if _private(a.name)]
            elif isinstance(node, ast.Import):
                aliases |= {a.asname for a in node.names
                            if a.name == "fullgroup_lab.cli" and a.asname}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _private(node.attr) and (
                    isinstance(node.value, ast.Name) and node.value.id in aliases
                    or ast.unparse(node.value) == "fullgroup_lab.cli"):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            elif isinstance(node, ast.Call) and len(node.args) >= 2 and \
                    isinstance(node.args[0], ast.Name) and \
                    node.args[0].id in aliases and \
                    isinstance(node.args[1], ast.Constant) and \
                    isinstance(node.args[1].value, str) and \
                    _private(node.args[1].value):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert found == []


def _names(node) -> set:
    """Every name read or imported under node: identifiers, attributes and
    import aliases."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def _every_vertex(node) -> list:
    """The loops under node over every vertex of a graph: range calls whose
    arguments read an attribute n (range(graph.n))."""
    return [ast.unparse(sub) for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
            and sub.func.id == "range"
            and any(isinstance(a, ast.Attribute) and a.attr == "n"
                    for arg in sub.args for a in ast.walk(arg))]


def test_the_cocycle_and_the_side_test_map_no_whole_ball():
    # an element is read only at the vertices a certificate looks at: no
    # function of the package that builds a walker (full_group.walker), and
    # not pattern_transport._changes_side, which reads the walkers it is
    # given, loops over every vertex of its graph
    readers = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and (
                    node.name == "_changes_side" or any(
                        isinstance(sub, ast.Call) and
                        isinstance(sub.func, ast.Name) and
                        sub.func.id == "walker" for sub in ast.walk(node))):
                readers[f"{path.name}:{node.name}"] = _every_vertex(node)
    assert {"cocycle.py:cocycle_value", "cocycle.py:push_set",
            "pattern_transport.py:_changes_side",
            "pattern_transport.py:_is_invariant",
            "stabilizer_lab.py:_permutation_on",
            "stabilizer_lab.py:_f_closed_core",
            "verify.py:d_phi", "verify.py:kernel_stab"} <= set(readers)
    assert {name: loops for name, loops in readers.items() if loops} == {}


def test_no_module_maps_a_whole_ball():
    # the walker is the one reader of an element on a ball: no module of
    # the package defines, imports or calls vertex_map
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        if "vertex_map" in _names(tree) | defined:
            found.append(path.name)
    assert found == []


def test_the_graph_keeps_no_element_state():
    # what has been read of an element, and its inverse, live on the
    # element itself (full_group), so no weak-keyed cache of elements is
    # left: neither schreier nor full_group imports weakref
    for name in ("schreier.py", "full_group.py"):
        assert "weakref" not in _names(ast.parse((SRC / name).read_text()))

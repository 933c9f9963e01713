"""numpy is the only runtime dependency: every module of the package imports
the standard library, numpy or its own modules, and nothing else."""

import ast
import pathlib
import sys

import kvdiff

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_every_absolute_import_is_the_standard_library_or_numpy():
    modules = sorted(pathlib.Path(kvdiff.__file__).parent.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name.split(".")[0] not in ALLOWED]
    assert found == []

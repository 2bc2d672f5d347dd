"""The library depends only on the standard library, and never on the test
oracles."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rvq"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_library_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            absolute = named = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            absolute = [node.module] if node.level == 0 else []
            named = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        for module in absolute:
            assert module.split(".")[0] in sys.stdlib_module_names, \
                (path.name, module)
        for name in named:
            assert not {"oracles", "tests"} & set(name.split(".")), \
                (path.name, name)

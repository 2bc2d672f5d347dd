"""The library depends only on the standard library, and never on the test
oracles; importing the CLI loads neither `dataclasses`, `inspect` nor
`hashlib`."""

import ast
import os
import pathlib
import subprocess
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


def test_cli_imports_neither_dataclasses_nor_inspect():
    # both cost start-up time in every command's fresh process
    code = ("import sys, rvq.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert out.stdout == "[]\n"


def test_cli_imports_no_hashlib():
    # hashlib loads OpenSSL, which costs start-up time and memory in every
    # command's fresh process; class files are named by crc32
    code = ("import sys, rvq.cli; "
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert out.stdout == "[]\n"

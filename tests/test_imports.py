"""The library depends only on the standard library, and never on the test
oracles; importing the CLI loads neither `dataclasses`, `inspect` nor
`hashlib`; every function the benchmark traces or calls exists."""

import ast
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rvq"


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


def test_every_function_the_benchmark_reads_exists():
    # a per-layer metric of a traced function that is gone reads None, and
    # the benchmark's result line then leaves that metric out without
    # failing; the spans read are the metric names less their last field
    # that are tracer spans, and load_or_enumerate, behind induction.cache.*
    code = textwrap.dedent("""
        import json, sys
        import tracer
        from rvq import components, gp
        t = tracer.Tracer()
        t.install()
        with open(sys.argv[1]) as fh:
            spec = json.load(fh)
        spans = {target[2] for target in tracer.TARGETS}
        read = {m["name"].rpartition(".")[0] for m in spec["per_layer"]}
        read = read & spans | {"induction.load_or_enumerate"}
        print(json.dumps({"read": sorted(read),
                          "absent": sorted(read & set(t.absent)),
                          "worker": [hasattr(components, "canonical_rep"),
                                     hasattr(gp.GeneralizedPermutation,
                                             "relabel")]}))
        """)
    env = dict(os.environ, PYTHONPATH="%s:%s" % (ROOT / "src",
                                                 ROOT / "perfbench"))
    out = subprocess.run([sys.executable, "-c", code,
                          str(ROOT / "BENCHMARK.json")], capture_output=True,
                         text=True, check=True, env=env)
    found = json.loads(out.stdout)
    assert len(found["read"]) == 18 and found["absent"] == []
    # perfbench/worker.py builds every workload's inputs with these two
    assert found["worker"] == [True, True]

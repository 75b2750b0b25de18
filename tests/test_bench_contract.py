"""The benchmark under perfbench/ imports names from mwwdr and calls them
with keyword arguments. This module checks that every name it imports from
mwwdr still exists and that every keyword it passes to one of them is still
accepted, and runs the traced mode, whose replay calls the library directly,
at smoke sizes. The benchmark's files are only read and run here; a run
writes to the ignored perfbench/out/.
"""

import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
BENCH_FILES = sorted(BENCH_DIR.glob("*.py"))


def _program_names(tree):
    """{local name: (module, attribute or None)} for every import of mwwdr
    in a parsed file; attribute None binds the module itself."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mwwdr":
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "mwwdr":
                    # "import mwwdr.cli" binds mwwdr; "... as c" binds mwwdr.cli
                    if alias.asname:
                        names[alias.asname] = (alias.name, None)
                    else:
                        names["mwwdr"] = ("mwwdr", None)
    return names


def _resolve(module, attribute):
    mod = importlib.import_module(module)
    if attribute is None:
        return mod
    if hasattr(mod, attribute):
        return getattr(mod, attribute)
    return importlib.import_module(f"{module}.{attribute}")


def _program_calls(tree, names):
    """(line, callee text, resolved callee, call node) for every call of an
    imported mwwdr name or of a function of an imported mwwdr module."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            yield node.lineno, func.id, _resolve(*names[func.id]), node
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in names
              and inspect.ismodule(mod := _resolve(*names[func.value.id]))):
            assert hasattr(mod, func.attr), \
                f"line {node.lineno}: {mod.__name__} has no {func.attr}"
            yield node.lineno, f"{func.value.id}.{func.attr}", getattr(mod, func.attr), node


@pytest.fixture(params=BENCH_FILES, ids=lambda path: path.name)
def bench_tree(request):
    return ast.parse(request.param.read_text(), filename=str(request.param))


def test_benchmark_files_found():
    assert {"run.py", "tracing.py", "workloads.py"} <= {p.name for p in BENCH_FILES}


def test_imported_names_exist(bench_tree):
    for local, (module, attribute) in _program_names(bench_tree).items():
        try:
            _resolve(module, attribute)
        except (ImportError, AttributeError) as exc:
            pytest.fail(f"{local}: from {module} import {attribute}: {exc}")


def test_call_keywords_accepted(bench_tree):
    names = _program_names(bench_tree)
    for line, text, callee, call in _program_calls(bench_tree, names):
        if any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg is None for k in call.keywords):
            continue
        try:
            inspect.signature(callee).bind_partial(
                *range(len(call.args)), **{k.arg: None for k in call.keywords})
        except TypeError as exc:
            pytest.fail(f"line {line}: {text}(...): {exc}")


@pytest.mark.parametrize("workload", ["estimate_n2000", "sim_misspec_n400"])
def test_traced_run_passes_the_gate(workload):
    pytest.importorskip("scipy")  # the run records scipy's version
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--size", "smoke", "--trace", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=300, cwd=BENCH_DIR.parent)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True

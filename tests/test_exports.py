"""Every name a module exports exists: a stale `__all__` entry fails here."""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import netflow

MODULES = sorted(m.name for m in pkgutil.iter_modules(netflow.__path__, "netflow."))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_exist(name):
    module = importlib.import_module(name)
    missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert not missing


def test_package_exports_resolve():
    assert len(set(netflow.__all__)) == len(netflow.__all__)
    assert [x for x in netflow.__all__ if not hasattr(netflow, x)] == []


def test_benchmark_tracer_names_resolve():
    # the benchmark's tracer wraps library functions and methods by module
    # path, looking each module up in sys.modules once the run has imported
    # netflow and netflow.cli; a listed module the library stops importing
    # breaks `run.py --trace 1` as surely as a listed name that is gone, so
    # the check runs in a fresh interpreter that imports only those two
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    script = f"""
import importlib.util, json, sys
import netflow, netflow.cli
spec = importlib.util.spec_from_file_location("perfbench_tracer", {str(path)!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
targets = [t for group in (tracer.FUNCTIONS, tracer.METHODS) for ts in group.values() for t in ts]
unloaded = sorted({{t[0] for t in targets}} - set(sys.modules))
missing = [t for t in targets if t[0] in sys.modules and not (
    hasattr(sys.modules[t[0]], t[1]) if len(t) == 2
    else t[2] in vars(getattr(sys.modules[t[0]], t[1])))]
print(json.dumps([unloaded, missing]))
"""
    src = str(Path(netflow.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == [[], []]


def test_subdivision_is_not_exported():
    # the paper's subdivision is the tests' oracle, not part of the API
    hidden = {"common_multiplier", "SubdivisionPlan", "subdivide", "lift_state", "project_state"}
    assert hidden.isdisjoint(dir(netflow))
    assert hidden.isdisjoint(netflow.semigroup.__all__)


def test_no_module_leans_on_the_interpreter_stack():
    # a reach set by the caller's stack depth is a hidden setting: no module
    # catches RecursionError or moves the recursion limit
    leans = []
    for path in sorted(Path(netflow.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                if "RecursionError" in {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}:
                    leans.append(f"{path.name}:{node.lineno} catches RecursionError")
            name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
            if name == "setrecursionlimit":
                leans.append(f"{path.name}:{node.lineno} names sys.setrecursionlimit")
    assert not leans, "; ".join(leans)


def test_the_stack_guard_sees_both_leans(tmp_path, monkeypatch):
    # the guard above on a module that does both, and imports the setter by name
    (tmp_path / "leaning.py").write_text(
        "from sys import setrecursionlimit\n"
        "try:\n    setrecursionlimit(10**6)\nexcept (ValueError, RecursionError):\n    pass\n")
    monkeypatch.setattr(netflow, "__file__", str(tmp_path / "__init__.py"))
    with pytest.raises(AssertionError) as refused:
        test_no_module_leans_on_the_interpreter_stack()
    for lean in ("leaning.py:1 names sys.setrecursionlimit",
                 "leaning.py:3 names sys.setrecursionlimit", "leaning.py:4 catches RecursionError"):
        assert lean in str(refused.value)


# \d, \w or \s (or their negations) after an even run of backslashes
UNICODE_CLASS = re.compile(r"(?<!\\)(?:\\\\)*\\[dwsDWS]")
RE_CALLS = {"compile", "match", "fullmatch", "search", "sub", "subn", "split", "findall",
            "finditer"}


def test_no_pattern_reads_other_scripts():
    # without re.ASCII, \d, \w and \s match any script's digits, letters and
    # spaces, and int(), float() and Fraction() read such digits as numbers:
    # every literal pattern passed to the re module that uses one of them
    # must say re.ASCII (or re.A, or (?a) inline)
    loose = []
    for path in sorted(Path(netflow.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {a.asname or a.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "re"
                    for a in node.names if a.name in RE_CALLS}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr in RE_CALLS
                    and isinstance(func.value, ast.Name) and func.value.id == "re"
                    or isinstance(func, ast.Name) and func.id in imported):
                continue
            pattern = node.args[0]
            if not (isinstance(pattern, ast.Constant) and isinstance(pattern.value, str)):
                continue
            rest = [*node.args[1:], *(k.value for k in node.keywords)]
            ascii_flag = any(isinstance(n, ast.Attribute) and n.attr in ("ASCII", "A")
                             for arg in rest for n in ast.walk(arg))
            if UNICODE_CLASS.search(pattern.value) and not ascii_flag \
                    and "(?a" not in pattern.value:
                loose.append(f"{path.name}:{node.lineno} matches Unicode classes")
    assert not loose, "; ".join(loose)


def test_the_pattern_guard_sees_each_form(tmp_path, monkeypatch):
    # the guard above on a module with three loose patterns, one called by
    # an imported name, and four that are fine
    (tmp_path / "loose.py").write_text(
        "import re\n"
        "from re import compile as rx\n"
        'DIGITS = re.compile(r"[+-]?\\d+")\n'
        'WORD = rx(r"[a-z]\\w*")\n'
        'PARTS = re.split(r"\\s+", "a b")\n'
        'ASCII = re.compile(r"\\d+", re.ASCII)\n'
        'SHORT = re.match(r"\\d", "1", flags=re.I | re.A)\n'
        'INLINE = re.compile(r"(?a)\\w+")\n'
        'ESCAPED = re.compile(r"\\\\d")\n')
    monkeypatch.setattr(netflow, "__file__", str(tmp_path / "__init__.py"))
    with pytest.raises(AssertionError) as refused:
        test_no_pattern_reads_other_scripts()
    found = str(refused.value).split("\n")[0].split("; ")
    assert found == [f"loose.py:{n} matches Unicode classes" for n in (3, 4, 5)]

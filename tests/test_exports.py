"""Every name a module exports exists: a stale `__all__` entry fails here."""

import importlib
import json
import os
import pkgutil
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

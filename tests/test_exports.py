"""Every name a module exports exists: a stale `__all__` entry fails here."""

import importlib
import importlib.util
import pkgutil
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
    # path, so a name it lists that is gone breaks `run.py --trace 1`
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    functions = [(m, a) for targets in tracer.FUNCTIONS.values() for m, a in targets]
    assert [(m, a) for m, a in functions
            if not hasattr(importlib.import_module(m), a)] == []
    methods = [t for targets in tracer.METHODS.values() for t in targets]
    assert [(m, c, x) for m, c, x in methods
            if x not in vars(getattr(importlib.import_module(m), c))] == []


def test_subdivision_is_not_exported():
    # the paper's subdivision is the tests' oracle, not part of the API
    hidden = {"common_multiplier", "SubdivisionPlan", "subdivide", "lift_state", "project_state"}
    assert hidden.isdisjoint(dir(netflow))
    assert hidden.isdisjoint(netflow.semigroup.__all__)

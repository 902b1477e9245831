"""Every name a module exports exists: a stale `__all__` entry fails here."""

import importlib
import pkgutil

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

"""The package's declared public names all exist.

A name deleted from a module but left in an ``__all__`` breaks
``from paircomp import *`` only when someone runs it; these tests run it.
"""

import importlib
import pkgutil

import pytest

import paircomp

# __main__ runs the command line on import
MODULES = ["paircomp"] + sorted(
    f"paircomp.{info.name}" for info in pkgutil.iter_modules(paircomp.__path__)
    if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import():
    namespace = {}
    exec("from paircomp import *", namespace)
    assert set(paircomp.__all__) <= set(namespace)

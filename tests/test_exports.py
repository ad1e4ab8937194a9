"""Every name a module exports in __all__ must exist."""
import importlib
import pkgutil

import pytest

import bbma

MODULES = ["bbma"] + [f"bbma.{m.name}" for m in pkgutil.iter_modules(bbma.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []

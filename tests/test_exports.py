"""Every name a module exports in __all__ must exist."""
import importlib
import pkgutil

import pytest

import bbma

# bbma.__main__ is the `python -m bbma` entry point, not a library module.
MODULES = ["bbma"] + [f"bbma.{m.name}" for m in pkgutil.iter_modules(bbma.__path__)
                      if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []

"""Every name a localp2 module exports in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import localp2

# __main__ runs the command line when imported
_MODULES = ["localp2"] + [f"localp2.{m.name}" for m in pkgutil.iter_modules(localp2.__path__)
                          if m.name != "__main__"]
_EXPORTING = [name for name in _MODULES
              if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", _EXPORTING)
def test_all_entries_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, missing
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(mod.__all__) <= set(namespace)

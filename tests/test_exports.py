"""Every name a module of the package exports resolves."""

import importlib
import pkgutil

import pytest

import iwakit

# __main__ runs the CLI when imported and exports nothing
MODULES = ["iwakit"] + [f"iwakit.{m.name}" for m in pkgutil.iter_modules(iwakit.__path__)
                        if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == [], missing

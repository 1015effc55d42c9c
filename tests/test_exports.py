"""Every name a module of the package exports resolves."""

import importlib
import inspect
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


def test_star_import_binds_each_name_to_its_definition():
    # the package resolves its names on first use; `import *` and dir() still
    # see all of __all__, each bound to the object its submodule defines
    namespace: dict = {}
    exec("from iwakit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(iwakit.__all__)
    assert set(iwakit.__all__) <= set(dir(iwakit))
    assert namespace["__version__"] == iwakit.__version__
    for name in set(iwakit.__all__) - {"__version__"}:
        obj = namespace[name]
        assert obj.__module__.startswith("iwakit."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    # an unknown name is an AttributeError, so `from iwakit import fields`
    # still falls back to importing the submodule
    assert not hasattr(iwakit, "no_such_name")


def _functions(module):
    """Each function and method the module defines, by qualified name."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj.__qualname__, obj
        elif inspect.isclass(obj):
            for member in vars(obj).values():
                member = getattr(member, "__func__", member)  # static and class methods
                if inspect.isfunction(member):
                    yield member.__qualname__, member


def test_only_the_trace_cache_takes_a_worker_count():
    # the cache holds the worker count, so no function passes one on
    takes = [f"{name}.{qualname}" for name in MODULES[1:]
             for qualname, fn in _functions(importlib.import_module(name))
             if "jobs" in inspect.signature(fn).parameters]
    assert takes == ["iwakit.counting.TraceCache.__init__"]

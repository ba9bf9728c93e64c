"""Every exported name resolves: each heisgrad module's __all__ names only
attributes the module has, and each name the package re-exports from a
module is in that module's __all__, so a name that is moved or deleted
cannot leave a dangling export behind."""

import ast
import importlib
import inspect
import pkgutil

import heisgrad


def _modules():
    return [importlib.import_module(f"heisgrad.{info.name}")
            for info in pkgutil.iter_modules(heisgrad.__path__)
            if not info.name.startswith("__")]


def test_every_name_in_all_resolves():
    for mod in _modules():
        names = getattr(mod, "__all__", ())
        assert len(set(names)) == len(names), mod.__name__
        missing = [name for name in names if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)


def test_package_reexports_are_exported_by_their_modules():
    imports = [node for node in ast.parse(inspect.getsource(heisgrad)).body
               if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"heisgrad.{node.module}")
        for alias in node.names:
            assert hasattr(heisgrad, alias.asname or alias.name), alias.name
            assert alias.name in mod.__all__, (node.module, alias.name)

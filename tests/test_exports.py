"""Every exported name resolves: each heisgrad module's __all__ names only
attributes the module has, and each name the package re-exports from a
module is in that module's __all__, so a name that is moved or deleted
cannot leave a dangling export behind.  Every exported name also has a
caller in src/heisgrad or a README line that says why it is API."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

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


def _exports_without_a_src_caller() -> set[str]:
    """"module.name" for each name in a module's __all__ that no module of
    the package but __init__ reads, as a name or an attribute; neither its
    definition nor its __all__ entry is a read."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in pathlib.Path(heisgrad.__file__).parent.glob("*.py")
             if path.stem != "__init__"}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    return {f"{mod}.{name}" for mod in trees
            for name in getattr(importlib.import_module(f"heisgrad.{mod}"), "__all__", ())
            if name not in read}


def _readme_api_reasons() -> dict[str, str]:
    """The "- `module.name`: reason" lines of the README section on the API
    kept for callers outside src/."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    _, found, rest = readme.read_text(encoding="utf-8").partition(
        "### API kept for callers outside `src/`\n")
    section = rest.split("\n#", 1)[0] if found else ""
    return dict(re.findall(r"^- `(\w+\.\w+)`: (\S.*)$", section, re.M))


def test_every_export_has_a_src_caller_or_a_readme_reason():
    # a name that loses its last caller in src/ is deleted or gets a README
    # reason; a README reason whose name has a caller again is dropped
    assert _exports_without_a_src_caller() == set(_readme_api_reasons())

import ast
import importlib
import pathlib
import pkgutil

import pytest

import fcic

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(fcic.__path__) if not info.name.startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_exists(name):
    """A deleted public name must leave no stale entry in its module's __all__."""
    module = importlib.import_module(f"fcic.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    """Every name fcic/__init__.py imports exists on its module and is the
    object the package exposes."""
    tree = ast.parse(pathlib.Path(fcic.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"fcic.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"fcic.{node.module}.{alias.name}"
            assert getattr(fcic, alias.asname or alias.name) is getattr(module, alias.name)


@pytest.mark.parametrize("name", MODULES)
def test_public_names_are_defined_where_listed(name):
    """A class or function in a module's __all__ is that module's own, so a
    moved name cannot linger as a re-export from its old module."""
    module = importlib.import_module(f"fcic.{name}")
    public = [getattr(module, n) for n in module.__all__]
    assert [obj.__qualname__ for obj in public
            if callable(obj) and obj.__module__ != module.__name__] == []

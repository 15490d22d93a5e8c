"""Every name a module of the package exports resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import asg1kit

MODULES = sorted(m.name for m in pkgutil.iter_modules(asg1kit.__path__)
                 if not m.name.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"asg1kit.{name}")
    assert module.__all__, name
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, (name, missing)


def test_every_package_import_resolves():
    # each `from .module import name` of asg1kit/__init__.py names a
    # definition of that module, bound on the package under the same name
    tree = ast.parse(Path(asg1kit.__file__).read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert {module for module, _ in imports} <= set(MODULES)
    for module, attr in imports:
        source = importlib.import_module(f"asg1kit.{module}")
        assert getattr(asg1kit, attr) is getattr(source, attr), (module, attr)

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


SOURCES = sorted(p.name for p in Path(asg1kit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # its imports are the re-exports above


@pytest.mark.parametrize("filename", SOURCES)
def test_every_module_import_is_used(filename):
    # a module-level import that the module never references and does not
    # export in __all__ is dead code left by an edit
    tree = ast.parse((Path(asg1kit.__file__).parent / filename).read_text(encoding="utf-8"))
    bound = {(alias.asname or alias.name).split(".")[0] for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for elt in node.value.elts}
    assert not bound - used - exported, (filename, sorted(bound - used - exported))

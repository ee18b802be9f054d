"""Every name a module of the package imports is used in it, and every
name it exports is bound in it.

No linter is assumed; this walks each module's syntax tree with `ast`. A
name counts as used when the module reads it anywhere (annotations
included) or lists it in `__all__`, as a re-export. So a name removed from
a module must leave its `__all__` too, which the imported module shows.
"""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import activemon

MODULES = sorted(Path(activemon.__file__).parent.glob("*.py"))
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(activemon.__path__))


def unused_imports(source: str) -> list:
    """The names that `source` imports and never uses, sorted."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_a_module_uses_every_name_it_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_unused_imports_finds_what_is_never_read():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport math as m\n"
              "from .engine import ABSENT, eval_event, run_monitor_full\n"
              "__all__ = ['run_monitor_full']\n"
              "def f(x: m.Real):\n    return x is ABSENT\n")
    assert unused_imports(source) == ["eval_event", "os"]


def unbound_exports(module) -> list:
    """The names in a module's `__all__` that the module does not bind."""
    return [name for name in getattr(module, "__all__", ())
            if not hasattr(module, name)]


@pytest.mark.parametrize("name", SUBMODULES)
def test_a_module_binds_every_name_it_exports(name):
    module = importlib.import_module(f"activemon.{name}")
    assert unbound_exports(module) == []


def test_unbound_exports_finds_a_removed_name():
    module = types.ModuleType("removed")
    exec("def kept():\n    pass\n__all__ = ['kept', 'gone']\n",
         module.__dict__)
    assert unbound_exports(module) == ["gone"]

import ast
import importlib
import pkgutil

import pytest

import ttsem

MODULES = ["ttsem"] + [f"ttsem.{m.name}" for m in pkgutil.iter_modules(ttsem.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    stale = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert stale == []


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    # a name an import binds must be read somewhere in its module or be
    # exported: deletions otherwise leave imports behind unnoticed
    module = importlib.import_module(name)
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(getattr(module, "__all__", ()))) == []

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

import importlib
import pkgutil

import pytest

import criticalbranch

MODULES = ["criticalbranch"] + [f"criticalbranch.{m.name}" for m in pkgutil.iter_modules(criticalbranch.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []

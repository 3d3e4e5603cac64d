"""Every exported name resolves: a deleted function must leave __all__ too."""

import importlib
import pkgutil

import pytest

import lathom

MODULES = ["lathom"] + [f"lathom.{info.name}" for info in pkgutil.iter_modules(lathom.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"

"""Every name a hardedge module lists in __all__ must exist in it.

A deleted function whose export line stays behind would otherwise only
fail at `from hardedge.<module> import *`.
"""

import importlib
import pkgutil

import pytest

import hardedge

MODULES = ["hardedge"] + [
    f"hardedge.{info.name}" for info in pkgutil.iter_modules(hardedge.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []

"""Every name a spectriple module exports resolves, so ``import *`` cannot break."""

import importlib
import pkgutil

import pytest

import spectriple

MODULES = ["spectriple"] + [
    f"spectriple.{info.name}" for info in pkgutil.iter_modules(spectriple.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []

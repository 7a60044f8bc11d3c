"""
Every name a spectriple module exports resolves, so ``import *`` cannot break, and has a
caller, so library code that nothing calls does not linger.
"""

import ast
import importlib
import pathlib
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


def _loaded_names(path):
    """Every name the file loads bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }


def _span_targets(path):
    """The dotted names in the strings of the benchmark's ``TARGETS`` table."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    table = next(node.value for node in body if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", "") == "TARGETS")
    return {part for node in ast.walk(table) if isinstance(node, ast.Constant)
            and isinstance(node.value, str) for part in node.value.split(".")}


def test_every_exported_name_has_a_caller():
    # a caller loads the name in the package, the benchmark or the acceptance claims;
    # a traced benchmark target and the package's own public names count as used
    root = pathlib.Path(__file__).resolve().parents[1]
    files = [*(root / "src").rglob("*.py"), *(root / "perfbench").glob("*.py"),
             root / "tests" / "test_acceptance.py"]
    used = set(spectriple.__all__).union(_span_targets(root / "perfbench" / "spans.py"),
                                         *map(_loaded_names, files))
    unused = [f"{name}.{export}" for name in MODULES
              for export in importlib.import_module(name).__all__ if export not in used]
    assert unused == []

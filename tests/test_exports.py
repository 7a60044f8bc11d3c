"""
Every name a spectriple module exports resolves, so ``import *`` cannot break, and has a
caller, so library code that nothing calls does not linger.  The same holds one level
down: a public method or property of an exported class has a caller, and an optional
parameter of an exported function or method has a caller that passes it.  A classmethod
counts as called only where a caller loads it off its class, ``ClassName.method``.  A
private function or method is loaded somewhere in the package itself: a helper that only
tests call is library code that nothing calls.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
from functools import cached_property

import pytest

import spectriple

MODULES = ["spectriple"] + [
    f"spectriple.{info.name}" for info in pkgutil.iter_modules(spectriple.__path__)
]
ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC_FILES = sorted((ROOT / "src").rglob("*.py"))
# a caller is code in the package, the benchmark or the acceptance claims
CALLER_FILES = [*SRC_FILES, *(ROOT / "perfbench").glob("*.py"),
                ROOT / "tests" / "test_acceptance.py"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _loaded_names(path):
    """Every name the file loads bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }


def _loaded_off_owners(path):
    """Every ``Owner.attr`` the file loads, where Owner is a bare name or an attribute."""
    return {
        f"{getattr(node.value, 'id', None) or getattr(node.value, 'attr', '')}.{node.attr}"
        for node in ast.walk(_tree(path)) if isinstance(node, ast.Attribute)
    }


def _span_targets(path):
    """The dotted names in the strings of the benchmark's ``TARGETS`` table."""
    body = _tree(path).body
    table = next(node.value for node in body if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", "") == "TARGETS")
    return {part for node in ast.walk(table) if isinstance(node, ast.Constant)
            and isinstance(node.value, str) for part in node.value.split(".")}


def _used():
    """
    Names with a caller; a traced benchmark target counts.  The package's ``__all__`` does
    not: a name it re-exports needs a caller of its own, like any other export.
    """
    return _span_targets(ROOT / "perfbench" / "spans.py").union(*map(_loaded_names, CALLER_FILES))


def _exports():
    """(label, object) of each exported name of each module, once per object."""
    seen, out = set(), []
    for name in MODULES:
        module = importlib.import_module(name)
        for export in module.__all__:
            obj = getattr(module, export)
            if id(obj) not in seen:
                seen.add(id(obj))
                out.append((f"{name}.{export}", obj))
    return out


def _members(cls):
    """(name, attribute) of the public methods and properties a class defines itself."""
    kinds = (property, cached_property, classmethod, staticmethod)
    return [(name, attr) for name, attr in vars(cls).items()
            if not name.startswith("_") and (callable(attr) or isinstance(attr, kinds))]


def test_every_exported_name_has_a_caller():
    used = _used()
    unused = [f"{name}.{export}" for name in MODULES
              for export in importlib.import_module(name).__all__ if export not in used]
    assert unused == []


def test_every_public_method_of_an_exported_class_has_a_caller():
    used = _used()
    off_class = set().union(*map(_loaded_off_owners, CALLER_FILES))
    unused = [
        f"{label}.{name}" for label, obj in _exports() if inspect.isclass(obj)
        for name, attr in _members(obj)
        if (f"{obj.__name__}.{name}" not in off_class if isinstance(attr, classmethod)
            else name not in used)
    ]
    assert unused == []


def _calls(path):
    """(callee name, positional count, keyword names, unpacks) of each call in the file."""
    out = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            out.append((name, len(node.args), keywords, starred or None in keywords))
    return out


def _options():
    """(label, callee name, parameter name, positional index or None) of each optional one."""
    routines = []
    for label, obj in _exports():
        if inspect.isfunction(obj):
            routines.append((label, obj.__name__, obj))
        elif inspect.isclass(obj):
            routines += [(f"{label}.{name}", name, getattr(obj, name))
                         for name, attr in _members(obj)
                         if not isinstance(attr, (property, cached_property))]
    out = []
    for label, name, fn in routines:
        params = list(inspect.signature(fn).parameters.values())
        if params and params[0].name == "self":  # read off the class, a classmethod has no cls
            params = params[1:]
        for index, p in enumerate(params):
            if p.default is not inspect.Parameter.empty:
                positional = index if p.kind is p.POSITIONAL_OR_KEYWORD else None
                out.append((f"{label}({p.name}=)", name, p.name, positional))
    return out


def test_every_optional_parameter_has_a_caller_that_passes_it():
    calls = [call for path in CALLER_FILES for call in _calls(path)]
    unset = [
        label for label, name, param, index in _options()
        if not any(callee == name and (param in keywords or unpacks
                                        or index is not None and n_args > index)
                    for callee, n_args, keywords, unpacks in calls)
    ]
    assert unset == []


def _private_defs(path):
    """(label, name) of each private function at module level and private method of a class."""
    body = _tree(path).body
    scopes = [(None, body)] + [(node.name, node.body) for node in body
                               if isinstance(node, ast.ClassDef)]
    return [(f"{path.stem}.{owner + '.' if owner else ''}{node.name}", node.name)
            for owner, nodes in scopes for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.endswith("__")]


def test_every_private_function_and_method_is_loaded_in_the_package():
    loaded = set().union(*map(_loaded_names, SRC_FILES))
    unloaded = [label for path in SRC_FILES for label, name in _private_defs(path)
                if name not in loaded]
    assert unloaded == []

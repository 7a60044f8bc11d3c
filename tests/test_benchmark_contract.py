"""
The benchmark's tracer (``perfbench/spans.py``) wraps spectriple functions by
module and name.  Every name it lists must still resolve in ``src/``, and
uninstalling it must put every original binding back.  The sizes it and the
workloads (``perfbench/workloads.py``) read from results must stay numbers:
a result without a pair list turns a per-layer metric into null.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import spectriple.cli  # noqa: F401  (imports every spectriple module)
from spectriple.morita import random_conn_form, random_idempotent
from spectriple.perturbation import mu, pert_mul, random_pert

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings(targets) -> dict:
    """Each name bound in a loaded spectriple module, and each traced method."""
    out = {
        (name, key): value
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "spectriple" or name.startswith("spectriple."))
        for key, value in vars(mod).items()
    }
    for mod_name, attr, _span, _size in targets:
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(sys.modules[f"spectriple.{mod_name}"], cls_name)
            out[(cls_name, meth)] = owner.__dict__[meth]
    return out


def _traced(mod_name: str, attr: str):
    owner = sys.modules[f"spectriple.{mod_name}"]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_wraps_every_target_and_uninstall_restores_the_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    before = _bindings(spans.TARGETS)
    tracer = spans.Tracer()
    try:
        tracer.install()
        for mod_name, attr, _span, _size in spans.TARGETS:
            assert hasattr(_traced(mod_name, attr), "__wrapped__"), f"{mod_name}.{attr}"
    finally:
        tracer.uninstall()
    after = _bindings(spans.TARGETS)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def _perfbench_module(monkeypatch, name: str):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


def test_pair_counts_of_mu_and_pert_mul_are_the_term_counts(toy, monkeypatch):
    spans = _perfbench_module(monkeypatch, "spans")
    rng = np.random.default_rng(0)
    p, q = random_pert(toy.algebra, rng), random_pert(toy.algebra, rng)
    assert spans._pair_count(mu(toy, p)) == len(p.pairs) ** 2
    # a product is stored as its coefficients; its pair view has dim A pairs
    product = pert_mul(p, q)
    assert spans._pair_count(product) == len(product.pairs) == p.spec.dim()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_workload_pair_counts_are_integers(toy, monkeypatch, n):
    workloads = _perfbench_module(monkeypatch, "workloads")
    rng = np.random.default_rng(n)
    assert workloads._pairs(random_pert(toy.algebra, rng)) is not None
    conn = random_conn_form(toy, n, rng, random_idempotent(toy, n, rng))
    assert all(isinstance(workloads._pairs(w), int) for row in conn for w in row)

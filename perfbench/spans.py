"""
Spans recorded around calls into spectriple's public functions.

A :class:`Tracer` replaces each traced function at every module binding
inside the ``spectriple`` package that holds it (and methods on their
class), so calls made inside the package are caught as well as calls made
by the benchmark.  Each call becomes one span: name, start, end, parent span
and step id, plus an optional size read from the result.  Spans stay in
flat arrays until the run ends; self times are computed from them there.

``matrix_core`` gets no spans: its calls take about a microsecond, as long
as a span, and their time shows in the self time of their callers.
"""

from __future__ import annotations

import math
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _pair_count(result):
    """Length of the result's pair list, or NaN when it has none."""
    pairs = getattr(result, "pairs", None)
    return float(len(pairs)) if pairs is not None else math.nan


# (module, attribute, span name, size of the result or None).  A dotted
# attribute names a method on a class of that module.
TARGETS = (
    ("spectral_triple", "represent", "spectral_triple.represent", None),
    ("spectral_triple", "AlgebraSpec.contains", "spectral_triple.contains", None),
    ("spectral_triple", "random_element", "spectral_triple.random_element", None),
    ("perturbation", "pert_mul", "perturbation.pert_mul", _pair_count),
    ("perturbation", "mu", "perturbation.mu", _pair_count),
    ("perturbation", "fluctuate_combined", "perturbation.fluctuate_combined", None),
    ("perturbation", "fluctuate", "perturbation.fluctuate", None),
    ("perturbation", "canonical_form", "perturbation.canonical_form", None),
    ("perturbation", "RepresentedPert.canonical_form", "perturbation.canonical_form", None),
    ("perturbation", "random_pert", "perturbation.random_pert", None),
    ("perturbation", "one_form_cf", "perturbation.one_form_cf", None),
    ("perturbation", "one_form_lmul", "perturbation.one_form_module", None),
    ("perturbation", "one_form_rmul", "perturbation.one_form_module", None),
    ("perturbation", "one_form_star", "perturbation.one_form_module", None),
    ("toy_model", "closed_dirac", "toy_model.closed_dirac", None),
    ("toy_model", "extract_fields", "toy_model.extract_fields", None),
    ("morita", "random_idempotent", "morita.random_idempotent", None),
    ("morita", "random_conn_form", "morita.random_conn_form", None),
    ("morita", "compress_connection", "morita.compress_connection", None),
    ("morita", "check_idempotent_identity", "morita.check_idempotent_identity", None),
    ("morita", "MoritaData.__init__", "morita.MoritaData", None),
    ("morita", "twisted_dirac_left", "morita.twisted_dirac", None),
    ("morita", "twisted_dirac_right", "morita.twisted_dirac", None),
    ("morita", "corner", "morita.twisted_dirac", None),
    ("action", "v_trace", "action.v_trace", None),
    ("action", "minimize", "action.minimize", None),
    ("action", "grad_hess", "action.grad_hess", None),
    ("action", "multi_start_minimize", "action.multi_start_minimize", None),
    ("action", "grid_scan", "action.grid_scan", None),
    ("action", "stabilizer_dim", "action.stabilizer_dim", None),
)


class Tracer:
    """In-memory span store; a step id groups the spans of one step."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.step = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self._stack: list[int] = []
        self.step_id = -1
        self._patched: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.step.append(self.step_id)
        self.size.append(math.nan)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, size: float = math.nan):
        idx = self._open(self._name_id(name))
        self.size[idx] = size
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, size_of):
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if size_of is not None:
                tracer.size[idx] = size_of(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target at each binding in the loaded spectriple modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "spectriple" or n.startswith("spectriple."))]
        for mod_name, attr, name, size_of in TARGETS:
            home = sys.modules[f"spectriple.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(original, name, size_of))
                continue
            original = getattr(home, attr)
            traced = self._wrap(original, name, size_of)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, traced)

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def arrays(self) -> dict:
        """The spans as numpy arrays, with each span's self time."""
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "names": np.array(self.names),
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": parent,
            "step": np.array(self.step, dtype=np.int32),
            "start": start,
            "end": end,
            "size": np.array(self.size, dtype=np.float64),
            "self": dur - child,
        }


class NullTracer:
    """Stand-in for an untraced run: spans cost one no-op context."""

    step_id = -1

    @contextmanager
    def span(self, name: str, size: float = math.nan):
        yield

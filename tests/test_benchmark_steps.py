"""
One step of the ``semigroup`` and ``morita`` benchmark workloads
(``perfbench/workloads.py``), run in process and untraced: every residual
must pass at its claim's tolerance, and every size the benchmark reports
must be an integer.  A result that loses a pair count the benchmark reads
fails here.
"""

import importlib
from pathlib import Path

import pytest

import spectriple
import spectriple.cli  # noqa: F401  (imports every spectriple module)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["Semigroup", "Morita"])
def test_one_benchmark_step_passes_with_integer_sizes(toy, monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    step = getattr(workloads, name)(spectriple, toy, 1, spans.NullTracer()).step(0)
    assert step.passed, [r for r in step.residuals if not r[1] <= r[2]]
    assert step.sizes and all(type(v) is int for v in step.sizes.values()), step.sizes

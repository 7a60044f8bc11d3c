"""
Print every residual of the benchmark's steps, bit for bit, to compare two checkouts.

    python tests/golden/step_residuals.py > residuals.txt

Sets up as ``perfbench/run.py`` does (the package from ``src/`` beside this checkout, the toy
model loaded through ``model_io``), then runs seed 1: steps 0-9 of ``semigroup`` and
``morita`` and step 0 of ``potential``.  One line per residual, ``workload step name value``,
the value as ``float.hex()``.  A ``diff`` of the output of two checkouts shows whether a
change moved any result.  Nothing is written; BLAS runs on one thread, as in the benchmark.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pathlib  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "perfbench"))

from spans import NullTracer  # noqa: E402
from stage import set_up  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
STEPS = {"semigroup": 10, "morita": 10, "potential": 1}


def main() -> None:
    triple, _ = set_up()
    import spectriple

    for name, n_steps in STEPS.items():
        workload = WORKLOADS[name](spectriple, triple, SEED, NullTracer())
        for i in range(n_steps):
            for label, value, _ in workload.step(i).residuals:
                print(name, i, label, float(value).hex())


if __name__ == "__main__":
    main()

"""
Rewrite the golden command-line transcripts that ``tests/test_golden.py`` compares.

    PYTHONPATH=src python tests/golden/regenerate.py

Each case runs in a fresh temporary directory with the ``SPECTRIPLE_*`` variables unset
and BLAS on one thread, as in the test suite.  ``<case>.json`` gets the arguments, the
input files, the exit code, stdout, stderr and the fingerprints of the random draws and of
the perturbations ``check_transitivity`` receives; ``<case>.out`` the ``--out`` bytes, if any.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from spectriple import PertElement, build_toy, random_pert  # noqa: E402
from spectriple.model_io import matrix_to_json, pert_to_dict, triple_to_dict  # noqa: E402
from spectriple.toy_model import a_ev  # noqa: E402
from test_golden import run_case  # noqa: E402


def _cases():
    """(name, argv, input files) of every case."""
    scan = {"scan.json": {"grid_n": 21}}
    for seed in (0, 3):
        s = ["--seed", str(seed)]
        out_json = ["--out", "out.json"]
        pert = {"pert.json": pert_to_dict(random_pert(a_ev(), np.random.default_rng(seed)))}
        yield f"check-s{seed}", ["check", *s, *out_json], {}
        yield f"fluctuate-s{seed}", ["fluctuate", "--pert", "pert.json", *s, *out_json], pert
        for fig in ("1", "2"):
            argv = ["potential-scan", "--figure", fig, "--config", "scan.json", *s]
            yield f"potential-scan-fig{fig}-s{seed}", [*argv, "--out", "out.csv"], scan
        for command in ("minimize", "hessian", "stabilizer", "morita-check", "semigroup-verify",
                        "export-toy"):
            yield f"{command}-s{seed}", [command, *s, *out_json], {}
    p = random_pert(a_ev(), np.random.default_rng(0))
    yield "failed-semigroup-tol", ["semigroup-verify", "--tol", "1e-30", "--out", "out.json"], {}
    yield "error-bad-tol", ["check", "--tol", "nan", "--out", "out.json"], {}
    yield "error-bad-coupling", ["minimize", "--config", "bad.json", "--out", "out.json"], \
        {"bad.json": {"f2": float("nan")}}
    yield "error-negative-seed", ["semigroup-verify", "--seed", "-1", "--out", "out.json"], {}
    yield "error-bool-coupling", ["hessian", "--config", "bad.json", "--out", "out.json"], \
        {"bad.json": {"f2": True}}
    yield "error-unknown-config-key", ["check", "--config", "bad.json"], {"bad.json": {"bogus": 1}}
    yield "error-missing-config", ["hessian", "--config", "no-such-config.json"], {}
    yield "error-missing-model", ["check", "--model", "no-such-model.json"], {}
    yield "error-unnormalized-pert", ["fluctuate", "--pert", "bad.json", "--out", "out.json"], \
        {"bad.json": pert_to_dict(PertElement(p.spec, 2.0 * p.coeffs))}
    toy = triple_to_dict(build_toy())
    yield "error-float-dim-h", ["check", "--model", "bad.json"], {"bad.json": {**toy, "dim_h": 8.9}}
    yield "error-order-zero", ["check", "--model", "bad.json"], \
        {"bad.json": {**toy, "j_m": matrix_to_json(np.eye(8))}}  # J is complex conjugation alone
    tiles = [{key: value for key, value in rb.items() if key != "left"} for rb in toy["rep_blocks"]]
    yield "error-missing-key", ["check", "--model", "bad.json"], \
        {"bad.json": {**toy, "rep_blocks": tiles}}  # no tile says how many times it repeats


def main() -> int:
    for name in ("MODEL", "CONFIG", "SEED", "TOL", "OUT"):
        os.environ.pop(f"SPECTRIPLE_{name}", None)
    for old in [*HERE.glob("*.json"), *HERE.glob("*.out")]:
        old.unlink()
    home = os.getcwd()
    for name, argv, inputs in _cases():
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                code, stdout, stderr, written, draws = run_case(argv, inputs)
            finally:
                os.chdir(home)
        record = {"argv": argv, "inputs": inputs, "exit": code, "stdout": stdout, "stderr": stderr,
                  "draws": draws}
        (HERE / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        if written is not None:
            (HERE / f"{name}.out").write_bytes(written)
        print(f"{name}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

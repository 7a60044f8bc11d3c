"""
Set-up shared by every workload: import ``spectriple`` from the checkout's
``src/``, load the toy model through ``model_io`` and check its axioms.

``probe.py`` runs this in a fresh process so that ``setup_s`` covers the
interpreter start and the imports; ``run.py`` runs it once more in-process
to get the triple its steps use.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


class SetupError(RuntimeError):
    """The checkout holds no usable spectriple, or its toy model is wrong."""


def import_spectriple():
    """Import the package from ``ROOT/src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "spectriple" / "__init__.py").is_file():
        raise SetupError(f"no spectriple package under {src}")
    sys.path.insert(0, str(src))
    import spectriple

    if Path(spectriple.__file__).resolve().parent != (src / "spectriple").resolve():
        raise SetupError(f"imported spectriple from {spectriple.__file__}, not {src}")
    return spectriple


def set_up():
    """Return the loaded toy triple and the time of each part, in seconds."""
    t0 = perf_counter()
    import_spectriple()
    from spectriple import cli, model_io, spectral_triple, toy_model  # noqa: F401

    t1 = perf_counter()
    payload = json.loads(json.dumps(model_io.triple_to_dict(toy_model.build_toy())))
    t2 = perf_counter()
    triple = model_io.triple_from_dict(payload)
    t3 = perf_counter()
    zeroth = spectral_triple.check_zeroth_order(triple).max_defect
    first = spectral_triple.check_first_order(triple).max_defect
    ko = spectral_triple.check_ko_signs(triple)
    ko_worst = max(ko.res_j_squared, ko.res_jd, ko.res_jgamma)
    t4 = perf_counter()
    # Claim 01: zeroth order and KO signs hold; the first-order condition
    # fails on the even subalgebra, which is what the model is about.
    if not (zeroth < 1e-12 and ko_worst < 1e-12 and first > 0.1):
        raise SetupError(
            f"toy model axioms: zeroth={zeroth:.2e} ko={ko_worst:.2e} first={first:.3f}"
        )
    parts = {
        "import_s": t1 - t0,
        "toy_to_json_s": t2 - t1,
        "triple_from_dict_s": t3 - t2,
        "axiom_checks_s": t4 - t3,
    }
    return triple, parts

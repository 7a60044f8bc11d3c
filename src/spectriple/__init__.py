"""
Finite real spectral triples with inner fluctuations beyond the first-order
condition: the perturbation semigroup, module-induced twists, and the
spectral action of an 8-dimensional two-field model.
"""

from .matrix_core import AntilinearOp, approx_eq, frob_norm
from .spectral_triple import (
    AlgebraElement,
    AlgebraSpec,
    FiniteSpectralTriple,
    KOSigns,
    RepBlock,
    check_first_order,
    check_ko_signs,
    check_zeroth_order,
    represent,
)
from .perturbation import (
    PertElement,
    UniversalOneForm,
    canonical_form,
    fluctuate,
    fluctuate_combined,
    from_unitary,
    gauge_transform,
    pert_mul,
    random_pert,
)
from .toy_model import FieldPoint, ToyParams, build_toy, closed_dirac, extract_fields
from .morita import MoritaData, twisted_dirac_left, twisted_dirac_right
from .action import (
    ActionParams,
    grad_hess,
    grid_scan,
    minimize,
    multi_start_minimize,
    stabilizer_dim,
    v_closed,
    v_trace,
)

__version__ = "0.1.0"

__all__ = [
    "ActionParams",
    "AlgebraElement",
    "AlgebraSpec",
    "AntilinearOp",
    "FieldPoint",
    "FiniteSpectralTriple",
    "KOSigns",
    "MoritaData",
    "PertElement",
    "RepBlock",
    "ToyParams",
    "UniversalOneForm",
    "approx_eq",
    "build_toy",
    "canonical_form",
    "check_first_order",
    "check_ko_signs",
    "check_zeroth_order",
    "closed_dirac",
    "extract_fields",
    "fluctuate",
    "fluctuate_combined",
    "frob_norm",
    "from_unitary",
    "gauge_transform",
    "grad_hess",
    "grid_scan",
    "minimize",
    "multi_start_minimize",
    "pert_mul",
    "random_pert",
    "represent",
    "stabilizer_dim",
    "twisted_dirac_left",
    "twisted_dirac_right",
    "v_closed",
    "v_trace",
    "__version__",
]

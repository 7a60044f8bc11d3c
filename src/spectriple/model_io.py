"""
JSON codecs for triples and perturbations.

Complex numbers are stored as [re, im] pairs and matrices as nested lists of
those, so a dump/load cycle is bit-exact (json round-trips Python floats
through repr).  Model files carry the full triple: algebra summands, an
optional constraint basis, representation tiling, D, the J matrix, gamma and
the declared KO signs.  Every tile is plain, so its ``"mode"`` key must be
``"plain"``.  A number is a JSON integer or float, and the sizes, tile fields
and KO signs are JSON integers: a bool or a string is neither.
"""

from __future__ import annotations

import json

import numpy as np

from .matrix_core import AntilinearOp, as_matrix
from .perturbation import PertElement, _checked_pert
from .spectral_triple import (
    AlgebraElement,
    AlgebraSpec,
    FiniteSpectralTriple,
    KOSigns,
    RepBlock,
)

__all__ = [
    "complex_from_json",
    "element_from_json",
    "element_to_json",
    "load_json",
    "matrix_from_json",
    "matrix_to_json",
    "pert_from_dict",
    "pert_to_dict",
    "save_json",
    "triple_from_dict",
    "triple_to_dict",
]


def complex_from_json(obj) -> complex:
    """A number, or an [re, im] pair of numbers: a number is an int or a float, not a bool."""
    parts = obj if isinstance(obj, (list, tuple)) and len(obj) == 2 else (obj, 0.0)
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"cannot read complex number from {obj!r}")


def matrix_to_json(m) -> list:
    m = as_matrix(m)
    return np.stack([m.real, m.imag], -1).tolist()


def matrix_from_json(obj) -> np.ndarray:
    """[re, im] pairs in one array conversion; other payloads, and bools, entry by entry."""
    if not isinstance(obj, list) or not obj or not isinstance(obj[0], list):
        raise ValueError("matrix payload must be a nested list")
    try:
        arr = np.asarray(obj)
    except ValueError:  # ragged rows: the entry-by-entry reader raises numpy's error
        arr = np.asarray(None)
    if arr.ndim == 3 and arr.shape[2] == 2 and arr.dtype.kind in "iuf" and bool not in {
            type(part) for row in obj for pair in row for part in pair}:
        return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]
    return np.array([[complex_from_json(entry) for entry in row] for row in obj], dtype=complex)


def element_to_json(e: AlgebraElement) -> list:
    return [matrix_to_json(b) for b in e.blocks]


def element_from_json(obj) -> AlgebraElement:
    if not (isinstance(obj, list) and all(isinstance(b, list) for b in obj)):
        raise ValueError(f"an algebra element must be a list of matrices, got {obj!r}")
    return AlgebraElement(tuple(matrix_from_json(b) for b in obj))


def triple_to_dict(t: FiniteSpectralTriple) -> dict:
    basis = None
    if t.algebra.basis is not None:
        basis = [element_to_json(e) for e in t.algebra.basis]
    return {
        "summands": list(t.algebra.summands),
        "basis": basis,
        "dim_h": t.dim_h,
        "rep_blocks": [
            {"summand": rb.summand, "left": rb.left_mult_dim, "right": rb.right_mult_dim,
             "mode": "plain", "offset": rb.offset}
            for rb in t.rep_blocks
        ],
        "d": matrix_to_json(t.d),
        "j_m": matrix_to_json(t.j.m),
        "gamma": matrix_to_json(t.gamma),
        "signs": {"eps_j": t.signs.eps_j, "eps_d": t.signs.eps_d, "eps_gamma": t.signs.eps_gamma},
    }


def _field(obj, key: str, kind: type = object):
    """obj[key] of a JSON object; a missing key, or a value that is not a ``kind``, is named."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"missing key {key!r}")
    if not isinstance(obj[key], kind):
        raise ValueError(f"{key} must be a {kind.__name__}, got {obj[key]!r}")
    return obj[key]


def triple_from_dict(payload: dict) -> FiniteSpectralTriple:
    """The triple of a model file; its constructors check every value, integers included."""
    basis = payload.get("basis") if isinstance(payload, dict) else None
    if basis is not None:
        basis = tuple(element_from_json(e) for e in _field(payload, "basis", list))
    spec = AlgebraSpec(_field(payload, "summands", list), basis=basis)
    blocks = []
    for rb in _field(payload, "rep_blocks", list):
        fields = [_field(rb, key) for key in ("summand", "left", "right")]
        if rb.get("mode", "plain") != "plain":
            raise ValueError(f"unsupported representation mode {rb['mode']!r}: tiles are 'plain'")
        blocks.append(RepBlock(*fields, rb.get("offset", 0)))
    signs = _field(payload, "signs")
    return FiniteSpectralTriple(
        algebra=spec,
        dim_h=_field(payload, "dim_h"),
        rep_blocks=blocks,
        d=matrix_from_json(_field(payload, "d")),
        j=AntilinearOp(matrix_from_json(_field(payload, "j_m"))),
        gamma=matrix_from_json(_field(payload, "gamma")),
        signs=KOSigns(*(_field(signs, key) for key in ("eps_j", "eps_d", "eps_gamma"))),
    )


def pert_to_dict(p: PertElement) -> dict:
    """Format 2: the coefficient matrix P of the perturbation."""
    return {"format": 2, "coeffs": matrix_to_json(p.coeffs)}


def pert_from_dict(spec: AlgebraSpec, payload: dict) -> PertElement:
    """Format 2 (P as ``coeffs``) or 1, the default (a_j, b_j as ``pairs``), and no other key."""
    if not isinstance(payload, dict):
        raise ValueError("perturbation file must hold a JSON object")
    fmt = payload.get("format", 1)  # the JSON integer 1 or 2: a bool or a float is none
    layout = {1: "pairs", 2: "coeffs"}.get(fmt) if type(fmt) is int else None
    if layout not in payload:
        raise ValueError(f"perturbation files hold 'pairs' (format 1) or 'coeffs' (format 2), "
                         f"not format {fmt!r} with keys {sorted(payload)}")
    for key in payload:
        if key not in ("format", layout):
            raise ValueError(f"unknown perturbation key: {key}")
    if fmt == 1:
        pairs = _field(payload, "pairs", list)
        for k, ab in enumerate(pairs):
            if not isinstance(ab, list) or len(ab) != 2:
                raise ValueError(f"pairs[{k}] must be a list [a, b] of two elements, got {ab!r}")
        pairs = tuple((element_from_json(a), element_from_json(b)) for a, b in pairs)
        return PertElement.from_pairs(spec, pairs)
    p = PertElement(spec, matrix_from_json(payload["coeffs"]))
    if not np.isfinite(p.coeffs).all():
        raise ValueError("perturbation coefficients have non-finite entries")
    if spec.outside(p.coeffs).any() or spec.outside(p.coeffs.T).any():  # rows and columns in A
        raise ValueError("perturbation coefficients are not in the algebra's A (x) A^op")
    return _checked_pert(p)


def save_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)

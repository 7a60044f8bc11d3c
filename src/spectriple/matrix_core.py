"""
Dense complex linear algebra, the residual rule and antilinear-operator support.

Operators live in plain numpy arrays of dtype complex128.  The helpers here
add the shape discipline the rest of the package relies on (mismatched shapes
are rejected, never broadcast) and the conjugation rule for antilinear
operators J = m ∘ (complex conjugation), m unitary, which carries the real structure of
a spectral triple and the "hat" operation T -> J T J^{-1}.  Every residual check in the
package compares through the one rule, ``_within`` (``_within_each`` entry by entry), against
one of the named tolerances below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AntilinearOp",
    "adjoint",
    "approx_eq",
    "as_matrix",
    "frob_norm",
    "identity",
]


def as_matrix(data) -> np.ndarray:
    """Coerce to a 2-d complex128 array (no copies when already one)."""
    m = np.asarray(data, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    return m


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


@np.errstate(over="ignore", invalid="ignore")  # overflow, and an inf entry's inf * 0
def frob_norm(a: np.ndarray, axis=None):
    """
    Frobenius norm (over ``axis``, an array): root of the sum of squared entry moduli, or where
    that overflows on finite entries m ||a / m||, m = max|a| (Blue's scaling, as LAPACK dznrm2
    does), so it is inf only when the norm is; NaN entries give NaN, and nothing warns.
    """
    a = np.asarray(a, dtype=complex)
    norm = np.linalg.norm(a, axis=axis)
    if np.count_nonzero(norm == np.inf):  # rescaled where not NaN (an inf entry): m ||a / m||
        m = np.abs(a).max(axis=axis, keepdims=True)
        scaled = (m * np.linalg.norm(a / m, axis=axis, keepdims=True)).reshape(np.shape(norm))
        norm = np.where(np.isinf(norm) & ~np.isnan(scaled), scaled, norm)
    return float(norm) if axis is None else norm


_AXIOM_TOL = 1e-12  # the axioms of a real triple, J antiunitary and Tr(D'^2) real
_SEMIGROUP_TOL = 1e-9  # the semigroup (normalized, flip-fixed, unitary, A_1 = A_1*), membership
_MORITA_TOL = 1e-8  # Morita data: e^2 = e and e B e = B


def _within(defect, tol: float, scale=1.0, name: str = "the scale") -> bool:
    """defect <= tol * max(1, scale), so NaN and inf fail; a non-finite scale is refused by name."""
    if not math.isfinite(scale):
        raise ValueError(f"{name} {'overflows' if scale > 0 else 'is not finite'}")
    return bool(defect <= tol * max(1.0, scale))


def _within_each(defects, tol: float, scales) -> np.ndarray:
    """:func:`_within` entry by entry, as a mask; an entry whose scale is not finite fails."""
    return (defects <= tol * np.maximum(1.0, scales)) & np.isfinite(scales)


def _relative_defect(a, b) -> float:
    """||a - b||_F / max(1, ||b||_F): how far a is from the reference b."""
    return frob_norm(a - b) / max(1.0, frob_norm(b))


def approx_eq(a: np.ndarray, b: np.ndarray, tol: float = _SEMIGROUP_TOL) -> bool:
    """
    ||a - b||_F <= tol * max(1, ||a||_F, ||b||_F) for equal shapes, by the residual rule
    (:func:`_within`): a NaN fails, and a norm that is not finite (inf, overflow) is refused.
    """
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch for comparison: {a.shape} vs {b.shape}")
    return _within(frob_norm(a - b), tol, np.fmax(frob_norm(a), frob_norm(b)), "the larger norm")


@dataclass(frozen=True, eq=False)
class AntilinearOp:
    """
    Antiunitary operator xi -> m @ conj(xi).  Only a read-only copy of m is stored, and
    construction refuses it unless it is finite and unitary (m m* = 1 to ``_AXIOM_TOL``), so
    conjugating a linear operator T gives J T J^{-1} = m @ conj(T) @ m*.
    """

    m: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.m).copy()
        if m.shape[0] != m.shape[1]:
            raise ValueError("antilinear operator needs a square matrix part")
        m.flags.writeable = False
        object.__setattr__(self, "m", m)
        if not np.isfinite(m).all():
            raise ValueError("antilinear operator matrix part has non-finite entries")
        if not _within(frob_norm(m @ adjoint(m) - identity(len(m))), _AXIOM_TOL):
            raise ValueError("J is not antiunitary: its matrix part m has m m* != 1")

    def conjugate(self, t: np.ndarray) -> np.ndarray:
        """J T J^{-1} for a linear operator t, or for each of a stack of them."""
        t = np.asarray(t, dtype=complex)
        if t.shape[-2:] != self.m.shape:
            raise ValueError(f"operator shape {t.shape} does not match J dimension {self.m.shape}")
        return self.m @ np.conj(t) @ adjoint(self.m)

    def square(self) -> np.ndarray:
        """J^2 = (m conj) ∘ (m conj) = m conj(m), a linear matrix (eps_J * 1 for real structures)."""
        return self.m @ np.conj(self.m)


"""
A finite model on an 8-dimensional Hilbert space with two coupling constants.

The algebra is M_2 + M_2.  The first summand acts on the first four basis
vectors as B (x) 1_2, the second on the last four as 1_2 (x) m; the real
structure exchanges the two halves, so the right action puts the factors the
other way around.  The grading forces the first summand to be diagonal, which
cuts the algebra down to the even subalgebra spanned by

    (diag(1,0), 0), (diag(0,1), 0), (0, E_11), (0, E_12), (0, E_21), (0, E_22).

The Dirac operator couples the two diagonal entries of the first summand with
strength k_x and the two halves of H with strength k_y; the k_y coupling is
what violates the first-order condition.  Inner fluctuations close on two
fields: a complex coefficient x multiplying the k_x entries and a complex
2-vector v entering the k_y block as the rank-one matrix v v^T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .matrix_core import AntilinearOp, as_matrix, identity
from .spectral_triple import (
    AlgebraElement,
    AlgebraSpec,
    FiniteSpectralTriple,
    KOSigns,
    RepBlock,
    _number,
    spanning_set,
)
from .perturbation import UniversalOneForm

__all__ = [
    "FieldPoint",
    "ToyParams",
    "a_ev",
    "a_f",
    "assemble_dirac",
    "build_toy",
    "closed_dirac",
    "extract_fields",
    "y_block",
]


@dataclass(frozen=True)
class ToyParams:
    """Couplings of the model; both may be complex, k_y = 0 is allowed."""

    k_x: complex = 1.0
    k_y: complex = 1.0

    def __post_init__(self):
        for name in ("k_x", "k_y"):
            object.__setattr__(self, name, complex(_number(name, getattr(self, name))))


@dataclass(frozen=True)
class FieldPoint:
    """
    Values of the two fields: scalar x and 2-vector v = (v1, v2), read from one (..., 3) array.
    Each field may also be an array: a batch of points, the fields broadcast to one shape.
    """

    x: complex
    v1: complex
    v2: complex
    v: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = [np.asarray(getattr(self, name), dtype=complex) for name in ("x", "v1", "v2")]
        if len({value.shape for value in values}) > 1:
            try:
                values = np.broadcast_arrays(*values)
            except ValueError:
                shapes = [value.shape for value in values]
                raise ValueError(f"fields of shapes {shapes} do not broadcast") from None
        self._hold(np.stack(values, axis=-1))  # one copy: later writes to the fields move none

    @classmethod
    def _from_array(cls, z: np.ndarray) -> FieldPoint:
        """The point (x, v1, v2) = z[..., 0], z[..., 1], z[..., 2] of z, complex, shape (..., 3)."""
        return cls.__new__(cls)._hold(z)

    def _hold(self, z: np.ndarray) -> FieldPoint:
        """Hold the fields and v as views of z, no copies."""
        views = (z[..., 0], z[..., 1], z[..., 2], z[..., 1:])
        for name, value in zip(("x", "v1", "v2", "v"), views):
            object.__setattr__(self, name, complex(value) if value.ndim == 0 else value)
        return self


def _ev_basis():
    z, units = np.zeros((2, 2), dtype=complex), identity(4).reshape(4, 2, 2)  # E11, E12, E21, E22
    return tuple(AlgebraElement((u, z)) for u in units[[0, 3]]) + tuple(
        AlgebraElement((z, u)) for u in units
    )


@lru_cache(maxsize=None)
def a_ev() -> AlgebraSpec:
    """The even subalgebra: diagonal first summand, full second summand."""
    return AlgebraSpec((2, 2), basis=_ev_basis())


@lru_cache(maxsize=None)
def a_f() -> AlgebraSpec:
    """
    The largest subalgebra satisfying the first-order condition: the upper
    diagonal entry of the first summand is tied to the upper diagonal entry
    of the second.
    """
    z = np.zeros((2, 2), dtype=complex)
    e11 = np.diag([1.0, 0.0]).astype(complex)
    e22 = np.diag([0.0, 1.0]).astype(complex)
    return AlgebraSpec(
        (2, 2),
        basis=(
            AlgebraElement((e11, e11)),
            AlgebraElement((e22, z)),
            AlgebraElement((z, e22)),
        ),
    )


# The 16 non-zero slots of the model's operators: (row, column, source), in the order of the
# source, which indexes (x, y00, y01, y10, y11) followed by the conjugates of the five.
_SLOTS = np.array(
    [(0, 2, 0), (1, 3, 0), (6, 4, 0), (7, 5, 0), (4, 0, 1), (4, 1, 2), (5, 0, 3), (5, 1, 4),
     (2, 0, 5), (3, 1, 5), (4, 6, 5), (5, 7, 5), (0, 4, 6), (1, 4, 7), (0, 5, 8), (1, 5, 9)]
).T
# The source of each entry of a row-major 8x8 operator; 10, a zero, fills the other 48.
_GATHER = np.full(64, 10)
_GATHER[8 * _SLOTS[0] + _SLOTS[1]] = _SLOTS[2]


def assemble_dirac(x_entry, y_mat) -> np.ndarray:
    """
    Hermitian 8x8 operator with the model's sparsity pattern: ``x_entry`` at the four k_x
    positions (conjugated where hermiticity demands it) and the 2x2 block ``y_mat`` coupling the
    primed to the unprimed half, in one gather from the ten sources of ``_SLOTS`` and a zero.
    Leading axes of ``x_entry`` (shape (...)) and ``y_mat`` (shape (..., 2, 2)) are batch axes;
    they broadcast, and the result has shape (..., 8, 8).
    """
    x = np.asarray(x_entry, dtype=complex)[..., None]
    y = np.asarray(y_mat, dtype=complex)
    if y.shape[-2:] != (2, 2):
        raise ValueError("y block must be 2x2")
    y = y.reshape(y.shape[:-2] + (4,))
    src = np.zeros(np.broadcast(x, y).shape[:-1] + (11,), dtype=complex)
    src[..., :1], src[..., 1:5] = x, y
    np.conj(src[..., :5], out=src[..., 5:10])
    return src[..., _GATHER].reshape(src.shape[:-1] + (8, 8))


def y_block(op) -> np.ndarray:
    """The primed-to-unprimed 2x2 coupling block of an 8x8 operator."""
    return as_matrix(op)[4:6, 0:2].copy()


def build_toy(params: ToyParams = ToyParams()) -> FiniteSpectralTriple:
    """The spectral triple of the model, carrying the even subalgebra."""
    d = assemble_dirac(params.k_x, params.k_y * np.outer([1.0, 0.0], [1.0, 0.0]))
    gamma = np.diag([1, 1, -1, -1, -1, -1, 1, 1]).astype(complex)
    swap = np.zeros((8, 8), dtype=complex)
    swap[0:4, 4:8] = identity(4)
    swap[4:8, 0:4] = identity(4)
    return FiniteSpectralTriple(
        algebra=a_ev(),
        dim_h=8,
        rep_blocks=(
            RepBlock(summand=0, left_mult_dim=1, right_mult_dim=2, offset=0),
            RepBlock(summand=1, left_mult_dim=2, right_mult_dim=1, offset=4),
        ),
        d=d,
        j=AntilinearOp(swap),
        gamma=gamma,
        signs=KOSigns(eps_j=+1, eps_d=+1, eps_gamma=-1),
    )


def closed_dirac(params: ToyParams, fp: FieldPoint) -> np.ndarray:
    """
    The fluctuated operator at a field point: x scales k_x, v v^T scales k_y.
    A batch of points gives the stack of operators, shape (..., 8, 8).
    """
    return assemble_dirac(params.k_x * fp.x, params.k_y * (fp.v[..., :, None] * fp.v[..., None, :]))


def extract_fields(w: UniversalOneForm) -> FieldPoint:
    """
    Field point of a one-form over the even subalgebra, read off its
    coefficients omega (``UniversalOneForm``; units 0-3 and 4-7 are the two
    summands, row-major): x = 1 + omega[0, 3] - omega[0, 0] and
    v = (1 + omega[4, 0], omega[6, 0]).  Pair by pair, for a = (diag(r', l'), m')
    and b = (diag(r, l), m), x - 1 sums r' (l - r), v1 - 1 sums
    m'[0,0] r - (m' m)[0,0] and v2 sums m'[1,0] r - (m' m)[1,0].  When the
    represented one-form is self-adjoint, the full fluctuation of the model's
    D equals ``closed_dirac`` at this point.
    """
    if a_ev().first_outside(spanning_set(w.spec)) is not None:
        raise ValueError("one-form is not over the even subalgebra")
    omega = w.omega
    return FieldPoint(1.0 + omega[0, 3] - omega[0, 0], 1.0 + omega[4, 0], omega[6, 0])

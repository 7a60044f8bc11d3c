"""
Fluctuations induced by a finitely generated projective module e A^n.

For A = M_{m_1} + ... + M_{m_k}, M_n(A) is the multimatrix algebra with blocks
of size n*m_s (:func:`_mn_summands`), so e is one ``AlgebraElement``: the (i, k)
sub-block of size m_s of its block s is the s-block of entry (i, k).  Inside,
entries move as their (n, n, d) ambient coordinates (:func:`_entry_coords`),
which are drawn, tested for membership and represented by the primitives of
``spectral_triple``; a bundle (:class:`MoritaData`) gathers those of e once
and derives its checks, cells and corner projector from them.

Everything is phrased on the ambient space C^n (x) C^n (x) H.  M_n(A) acts
there twice, reading the triple's tables pi(e_alpha) and hat(pi(e_alpha)):
through the cells (i, k) of the left leg and, conjugated by the real
structure, of the right leg (``MoritaData.cells``).  A connection is an n x n
matrix of universal one-forms B with e B e = B, each entry stored as its
coefficients omega in A (x) A, so a connection is the (n, n, d, d) stack of
:func:`conn_coefficients`; e B e is two matrix products on it, their maps read
from the multiplication table (:func:`compress_coefficients`).  The module
twist of D can be computed in two orders -- left leg first or right leg first
-- and the two agree identically, which is the analogue of the transitivity of
ordinary inner fluctuations.  Both are contractions over cells of operators on
H (:func:`_twist`), with no operator on the whole ambient space multiplied.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .matrix_core import _MORITA_TOL, _within, _within_each, frob_norm, identity
from .perturbation import (
    UniversalOneForm,
    _flip,
    _leg_weights,
    _mult_tensor,
    _random_pairs_form,
    _tables,
    one_form_cf,
)
from .spectral_triple import (
    AlgebraElement,
    AlgebraSpec,
    FiniteSpectralTriple,
    _integer,
    _random_coords,
)

_MIN_EIG = 1e-6  # random_idempotent redraws when an eigenvalue is this close to zero

__all__ = [
    "MoritaData",
    "check_idempotent_identity",
    "compress_coefficients",
    "compress_connection",
    "conn_coefficients",
    "corner",
    "corner_projector",
    "random_conn_form",
    "random_idempotent",
    "twisted_dirac_left",
    "twisted_dirac_right",
]


# ---------------------------------------------------------------------------
# Matrices over the algebra: M_n(A) is the multimatrix algebra of blocks n*m_s


def _entry_coords(x: AlgebraElement, n: int) -> np.ndarray:
    """Ambient coordinates of the entries of x in M_n(A), shape (n, n, d)."""
    grid = [b.reshape(n, len(b) // n, n, -1).transpose(0, 2, 1, 3) for b in x.blocks]
    return np.concatenate([g.reshape(n, n, -1) for g in grid], axis=-1)


def _from_entry_coords(summands: tuple, coords: np.ndarray) -> AlgebraElement:
    """The element of M_n(A) whose entries have the ambient coordinates ``coords`` (n, n, d)."""
    n, starts = len(coords), np.cumsum((0,) + tuple(m * m for m in summands))
    return AlgebraElement(tuple(
        coords[..., o:o + m * m].reshape(n, n, m, m).transpose(0, 2, 1, 3).reshape(n * m, n * m)
        for o, m in zip(starts, summands)
    ))


def _mn_summands(spec: AlgebraSpec, n: int) -> tuple:
    """The block sizes n*m_s of M_n of the ambient algebra of ``spec``, for n an integer >= 1."""
    n = _integer("module size n", n, 1)
    return tuple(n * m for m in spec.summands)


# ---------------------------------------------------------------------------
# Connections


def _hermitize(spec: AlgebraSpec, omega: np.ndarray) -> np.ndarray:
    """(B + B*)/2 on the coefficient stack: entry (j, k) is (omega_jk + flip(omega_kj)) / 2."""
    return 0.5 * (omega + _flip(spec.summands, omega.swapaxes(0, 1)))


def compress_connection(e: AlgebraElement, conn):
    """(e B e)_{il} = sum_{jk} e_ij . B_jk . e_kl: :func:`compress_coefficients` on the entries."""
    spec = conn[0][0].spec
    return _forms(spec, compress_coefficients(e, conn_coefficients(spec, conn)))


def _forms(spec: AlgebraSpec, omega: np.ndarray) -> tuple:
    """The n x n grid of one-forms with the (n, n, d, d) coefficient stack omega."""
    return tuple(tuple(UniversalOneForm(spec, w) for w in row) for row in omega)


def conn_coefficients(spec: AlgebraSpec, conn) -> np.ndarray:
    """The (n, n, d, d) stack of ``one_form_cf(spec, conn[i][k])``, d = dim of ambient A."""
    return np.array([[one_form_cf(spec, w) for w in row] for row in conn])


def compress_coefficients(e: AlgebraElement, omega: np.ndarray) -> np.ndarray:
    """
    e B e on coefficients: entry (i, l) is sum_jk (e_ij (x) 1) omega_jk (1 (x) e_kl),
    left multiplication by e_ij on the first factor and right multiplication
    by e_kl on the second.  The maps of all n^2 entries come from one
    contraction of their coordinates with the cached multiplication tensor.
    """
    n, _, d, _ = omega.shape
    coords = _entry_coords(e, n).reshape(n * n, d)
    summands = tuple(len(b) // n for b in e.blocks)
    maps = (coords @ _mult_tensor(summands, side).reshape(d, d * d) for side in (True, False))
    left, right = (m.reshape(n, n, d, d).transpose(0, 2, 1, 3).reshape(n * d, n * d) for m in maps)
    big = omega.transpose(0, 2, 1, 3).reshape(n * d, n * d)
    return (left @ big @ right).reshape(n, d, n, d).transpose(0, 2, 1, 3)


def random_conn_form(t: FiniteSpectralTriple, n: int, rng: np.random.Generator, e: AlgebraElement):
    """
    A random connection compressed to the module of ``e``: entry (i, k) is x d(y) for one pair,
    drawn row by row (``perturbation._random_pairs_form``), hermitized and compressed on the stack.
    """
    spec = t.algebra
    _mn_summands(spec, n)  # rejects a bad module size
    omega = _hermitize(spec, _random_pairs_form(spec, rng, 1, (n, n)))
    return _forms(spec, compress_coefficients(e, omega))


# ---------------------------------------------------------------------------
# The data bundle and the two twists


@dataclass(frozen=True, eq=False)
class MoritaData:
    """
    An idempotent e in M_n(A), one element whose block s has size n*m_s (see
    :func:`_from_entry_coords`), together with an optional compressed connection.

    The (n, n, d) coordinates of the entries of e (:func:`_entry_coords`) and the
    coefficients of the connection (:func:`conn_coefficients`), an init-only argument, are
    computed once and kept as ``coords`` and ``omega``; the cells pi(e_ik),
    hat(pi(e_ik)) of the two legs (``cells``, ``cells_hat``), their twist
    kernels (:func:`_leg_kernel`) and the corner projector are kept from first
    use.  Validation checks that e and omega are finite, e^2 = e, membership
    of the entries of e in the algebra, and (when a connection is present)
    the compression identity e B e = B on the coefficients.
    """

    triple: FiniteSpectralTriple
    size: int
    idem: AlgebraElement
    conn: InitVar[tuple | None] = None
    omega: np.ndarray | None = field(init=False, default=None, repr=False)
    coords: np.ndarray = field(init=False, default=None, repr=False)

    def __post_init__(self, conn):
        n, spec = self.size, self.triple.algebra
        if tuple(len(b) for b in self.idem.blocks) != _mn_summands(spec, n):
            raise ValueError(f"idempotent must be an {n}x{n} matrix of elements")
        if conn is not None:
            if len(conn) != n or any(len(row) != n for row in conn):
                raise ValueError(f"connection must be an {n}x{n} matrix of one-forms")
            object.__setattr__(self, "omega", conn_coefficients(spec, conn))
        object.__setattr__(self, "coords", _entry_coords(self.idem, n))
        if not np.isfinite(self.coords).all():
            raise ValueError("idempotent has non-finite entries")
        if self.omega is not None and not np.isfinite(self.omega).all():
            raise ValueError("connection has non-finite entries")
        with np.errstate(over="ignore"):  # refused by name, or as a defect past its tolerance
            scale = frob_norm(self.coords, axis=-1).max() ** 2  # largest entry
            if not np.isfinite(scale):
                raise ValueError("the squared norm of e's largest entry overflows")
            if spec.outside(self.coords).any():
                raise ValueError("idempotent entry is not in the algebra")
            defect = frob_norm(_entry_coords(self.idem * self.idem - self.idem, n), axis=-1)
            if not _within(defect.max(), _MORITA_TOL, scale):
                raise ValueError("matrix is not idempotent")
        if self.omega is None:
            return
        defect = frob_norm(compress_coefficients(self.idem, self.omega) - self.omega, axis=(2, 3))
        if not _within_each(defect, _MORITA_TOL, frob_norm(self.omega, axis=(2, 3))).all():
            raise ValueError("connection is not compressed: e B e != B")

    cells = cached_property(lambda self: self.triple.rep(self.coords, False))
    cells_hat = cached_property(lambda self: self.triple.rep(self.coords, True))
    kernel = cached_property(lambda self: _leg_kernel(self, hatted=False))
    kernel_hat = cached_property(lambda self: _leg_kernel(self, hatted=True))
    projector = cached_property(lambda self: corner_projector(self))


def _leg_kernel(md: MoritaData, hatted: bool) -> tuple:
    """
    One leg's twist, base -> rho(e) base + sum_beta L_beta base (1 (x) 1 (x) rho(e_beta)) with
    L_beta the connection's cells W^ik_beta (``perturbation._leg_weights``), as one kernel
    (W', rho): rho(1) = 1 is the sum of rho(e_beta) over the diagonal units (pi is unital),
    so W'^ik_beta = W^ik_beta + [e_beta diagonal] rho(e_ik), laid out (i, k, h, beta, g).
    Without a connection W' = rho(e_ik) and rho is None (one beta, rho = 1).
    """
    cells = md.cells_hat if hatted else md.cells
    if md.omega is None:
        return cells, None
    weights, rho = _leg_weights(md.triple, md.omega, hatted)  # (i, k, beta, h, g), (beta, g, f)
    weights[:, :, np.flatnonzero(_tables(md.triple.algebra.summands).unit)] += cells[:, :, None]
    return np.ascontiguousarray(weights.swapaxes(2, 3)), rho


def _twist(md: MoritaData, hatted_first: bool) -> np.ndarray:
    """
    Both legs on 1 (x) 1 (x) D, each a matrix product on cells.  The first leg keeps the
    identity on the other, with cells C[a, A] = sum_beta W'_beta[a, A] D rho(e_beta); the second
    gives cell (a, b; A, B) of the result as sum_beta W'_beta[b, B] C[a, A] rho'(e_beta), with
    (a, b) = (i, j) when the left leg goes first and (j, i) when the hatted leg does.
    """
    (w1, r1), (w2, r2) = (md.kernel_hat, md.kernel) if hatted_first else (md.kernel, md.kernel_hat)
    n, dim_h, dim = md.size, md.triple.dim_h, md.size**2 * md.triple.dim_h
    d = md.triple.d if r1 is None else (md.triple.d @ r1).reshape(-1, dim_h)
    first = w1.reshape(dim, -1) @ d  # (a, A, h) x G
    right = first if r2 is None else first @ r2.transpose(1, 0, 2).reshape(dim_h, -1)
    right = right.reshape(n * n, dim_h, -1, dim_h).transpose(2, 1, 0, 3)  # (beta, g, aA, G)
    out = w2.reshape(dim, -1) @ right.reshape(-1, dim)  # (b, B, h) x (a, A, G)
    order = (0, 3, 2, 1, 4, 5) if hatted_first else (3, 0, 2, 4, 1, 5)
    return out.reshape(n, n, dim_h, n, n, dim_h).transpose(order).reshape(dim, dim)


def twisted_dirac_left(md: MoritaData) -> np.ndarray:
    """Twist through the left leg first, then through the hatted right leg (:func:`_twist`)."""
    return _twist(md, hatted_first=False)


def twisted_dirac_right(md: MoritaData) -> np.ndarray:
    """Twist through the hatted right leg first, then through the left leg (:func:`_twist`)."""
    return _twist(md, hatted_first=True)


def corner_projector(md: MoritaData) -> np.ndarray:
    """
    pi(e) pihat(e): cuts out the module copy inside C^n (x) C^n (x) H; its cell
    (i, j; I, J) is pi(e_iI) hat(pi(e_jJ)), a product over the fibre alone.
    """
    n, dim_h, dim = md.size, md.triple.dim_h, md.size**2 * md.triple.dim_h
    p = md.cells.reshape(-1, dim_h) @ md.cells_hat.transpose(2, 0, 1, 3).reshape(dim_h, -1)
    return p.reshape(n, n, dim_h, n, n, dim_h).transpose(0, 3, 2, 1, 4, 5).reshape(dim, dim)


def corner(md: MoritaData, op: np.ndarray) -> np.ndarray:
    """P op P for the corner projector P, built once per bundle."""
    p = md.projector
    return p @ op @ p


def check_idempotent_identity(t: FiniteSpectralTriple, n: int, e: AlgebraElement) -> float:
    """
    Max norm over (i, l) of  sum_{jk} pi(e_ij) [D, pi(e_jk)] pi(e_kl),
    which vanishes identically for idempotent e (it is e de e in disguise).
    Computed as the (i, l) blocks of P [1 (x) D, P] P with P = pi(e) on
    C^n (x) H, read from the table, the commutator as two blockwise products
    with D; a NaN anywhere gives NaN.
    """
    if tuple(len(b) for b in e.blocks) != _mn_summands(t.algebra, n):
        raise ValueError("element does not match the triple's algebra")
    dim_h, dim = t.dim_h, n * t.dim_h
    p = t.rep(_entry_coords(e, n)).transpose(0, 2, 1, 3).reshape(dim, dim)  # pi(e_ij) per cell
    dp = (t.d @ p.reshape(n, dim_h, dim)).reshape(dim, dim)  # (1 (x) D) P, row block by row block
    dp -= (p.reshape(dim, n, dim_h) @ t.d).reshape(dim, dim)  # P (1 (x) D), column block by block
    blocks = (p @ dp @ p).reshape(n, dim_h, n, dim_h)
    return float(np.max(frob_norm(blocks, axis=(1, 3))))


# ---------------------------------------------------------------------------
# Random module data


def random_idempotent(
    t: FiniteSpectralTriple,
    n: int,
    rng: np.random.Generator,
    self_adjoint: bool = True,
):
    """
    A random idempotent in M_n(A): the positive spectral projection of a
    random hermitian matrix over the algebra (resampled when an eigenvalue
    sits too close to zero), optionally skewed by conjugation with an
    invertible element so that it is no longer self-adjoint, in at most 50
    tries.  Each n x n grid of entries is one draw (:func:`_random_coords`).
    """
    spec = t.algebra
    _mn_summands(spec, n)  # rejects a bad module size
    for _ in range(50):
        h = _from_entry_coords(spec.summands, _random_coords(spec, rng, (n, n)))
        eigs = [np.linalg.eigh(0.5 * (big + big.conj().T)) for big in h.blocks]  # hermitized
        if any(np.abs(vals).min() < _MIN_EIG for vals, _ in eigs):
            continue
        pos = [vecs[:, vals > 0] for vals, vecs in eigs]
        e = AlgebraElement(tuple(v @ v.conj().T for v in pos))
        if spec.outside(_entry_coords(e, n)).any():
            continue
        if self_adjoint:
            return e
        g = _from_entry_coords(spec.summands, _random_coords(spec, rng, (n, n)))
        g = [identity(len(big)) + 0.3 * big for big in g.blocks]  # 1 + 0.3 g, block by block
        if any(np.linalg.cond(big) > 1e6 for big in g):
            continue
        skewed = AlgebraElement(tuple(a @ b @ np.linalg.inv(a) for a, b in zip(g, e.blocks)))
        if not spec.outside(_entry_coords(skewed, n)).any():
            return skewed
    raise RuntimeError("could not draw a clean random idempotent")

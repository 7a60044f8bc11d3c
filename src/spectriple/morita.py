"""
Fluctuations induced by a finitely generated projective module e A^n.

For A = M_{m_1} + ... + M_{m_k}, M_n(A) is the multimatrix algebra with blocks
of size n*m_s, so the idempotent e is one ``AlgebraElement``: the (i, k)
sub-block of size m_s of its block s is the s-block of entry (i, k)
(:func:`mn_from_entries`, :func:`mn_entries`).

Everything is phrased on the ambient space C^n (x) C^n (x) H.  M_n(A) acts
there twice, reading the triple's tables pi(e_alpha) and hat(pi(e_alpha)):
through the left leg (``pi_big``) and, conjugated by the real structure,
through the right leg (``pi_hat_big``).  A connection is an n x n matrix
of universal one-forms B with e B e = B, each entry stored as its
coefficients omega in A (x) A, so a connection is the (n, n, d, d) stack of
:func:`conn_coefficients`: e B e is two matrix products on it, with the maps
of the entries of e read off one cached multiplication tensor
(:func:`compress_coefficients`), and its action on a base operator contracts
the one-form kernel of ``perturbation.a1`` into the cells of one leg, with no
Kronecker-expanded operator built (:func:`rep_conn`).  The module twist of D
can then be computed in two orders -- left leg first or right leg first --
and the two agree identically, which is the analogue of the transitivity of
ordinary inner fluctuations.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .matrix_core import AntilinearOp, commutator, identity
from .perturbation import (
    UniversalOneForm,
    _leg_weights,
    _mult_tensor,
    one_form_cf,
    one_form_scale,
    one_form_star,
)
from .spectral_triple import (
    AlgebraElement,
    AlgebraSpec,
    FiniteSpectralTriple,
    random_element,
)

__all__ = [
    "MoritaData",
    "check_idempotent_identity",
    "compress_coefficients",
    "compress_connection",
    "conn_coefficients",
    "corner",
    "corner_projector",
    "d_big",
    "hermitize_connection",
    "induced_real_structure",
    "mn_entries",
    "mn_from_entries",
    "pi_big",
    "pi_hat_big",
    "random_conn_form",
    "random_idempotent",
    "rep_conn",
    "twisted_dirac_left",
    "twisted_dirac_right",
]


# ---------------------------------------------------------------------------
# Matrices over the algebra: M_n(A) is the multimatrix algebra of blocks n*m_s


def mn_from_entries(grid) -> AlgebraElement:
    """
    The element of M_n(A) with entries ``grid[i][k]``: block s has size
    n*m_s, and its (i, k) sub-block of size m_s is the s-block of entry (i, k).
    """
    summands = range(len(grid[0][0].blocks))
    return AlgebraElement(
        tuple(np.block([[a.blocks[s] for a in row] for row in grid]) for s in summands)
    )


def mn_entries(x: AlgebraElement, n: int) -> tuple:
    """The n x n grid of entries of an element of M_n(A) (views, no copies)."""
    grid = [b.reshape(n, len(b) // n, n, -1) for b in x.blocks]  # (i, row, k, column)
    return tuple(
        tuple(AlgebraElement(tuple(g[i, :, k] for g in grid)) for k in range(n))
        for i in range(n)
    )


def _entry_coords(x: AlgebraElement, n: int) -> np.ndarray:
    """Ambient coordinates of the entries of x in M_n(A), shape (n, n, d)."""
    grid = [b.reshape(n, len(b) // n, n, -1).transpose(0, 2, 1, 3) for b in x.blocks]
    return np.concatenate([g.reshape(n, n, -1) for g in grid], axis=-1)


def _mn_spec(spec: AlgebraSpec, n: int) -> AlgebraSpec:
    """M_n of the ambient multimatrix algebra of ``spec``."""
    return AlgebraSpec(tuple(n * m for m in spec.summands))


# ---------------------------------------------------------------------------
# Representations on C^n (x) C^n (x) H


def _on_leg(cells: np.ndarray, hatted: bool) -> np.ndarray:
    """
    Place cell operators on C^n (x) C^n (x) H: ``cells[..., i, k]`` (each on H)
    fills cell (i, k) of the left C^n leg, or of the right leg when ``hatted``,
    with the identity on the other leg.  Leading axes are kept.
    """
    n, dim_h = cells.shape[-3], cells.shape[-1]
    layout = "...jkhg,il->...ijhlkg" if hatted else "...ikhg,jl->...ijhklg"
    dim = n * n * dim_h
    return np.einsum(layout, cells, identity(n)).reshape(cells.shape[:-4] + (dim, dim))


def _cells(t: FiniteSpectralTriple, n: int, x: AlgebraElement, hatted: bool) -> np.ndarray:
    """
    pi (or hat o pi) of every entry of x in M_n(A), shape (n, n, N, N), read
    from the triple's tables; hat o pi takes the conjugated coordinates.
    """
    if tuple(len(b) for b in x.blocks) != _mn_spec(t.algebra, n).summands:
        raise ValueError("element does not match the triple's algebra")
    coords = _entry_coords(x, n)
    table = t.pi_hat_table if hatted else t.pi_table
    return np.tensordot(np.conj(coords) if hatted else coords, table, 1)


def pi_big(t: FiniteSpectralTriple, n: int, x: AlgebraElement) -> np.ndarray:
    """M_n(A) acting through the left C^n leg."""
    return _on_leg(_cells(t, n, x, hatted=False), hatted=False)


def pi_hat_big(t: FiniteSpectralTriple, n: int, x: AlgebraElement) -> np.ndarray:
    """M_n(A) acting through the right C^n leg, with hatted fibre operators."""
    return _on_leg(_cells(t, n, x, hatted=True), hatted=True)


def d_big(t: FiniteSpectralTriple, n: int) -> np.ndarray:
    return np.kron(identity(n * n), t.d)


def rep_conn(
    t: FiniteSpectralTriple, n: int, omega: np.ndarray, base: np.ndarray, hatted: bool = False
) -> np.ndarray:
    """
    Action on ``base`` of a connection with coefficients ``omega`` (see
    :func:`conn_coefficients`) through one leg:

        sum_beta L_beta base (1 (x) 1 (x) rho(e_beta)),

    where e_beta runs over the ambient matrix units of A, rho is pi on the
    left leg and hat o pi on the hatted right leg, and L_beta puts
    W^ik_beta = sum_alpha omega[i, k, alpha, beta] rho(e_alpha) in cell (i, k)
    of that leg: the kernel of ``perturbation.a1`` and ``a2_with``, cell by
    cell.  Pair by pair this is (E_ik (x) 1 (x) rho(x)) [base, 1 (x) 1 (x) rho(y)].
    Neither L_beta nor 1 (x) 1 (x) rho is built: rho(e_beta) acts on the fibre
    of base's columns, then W is contracted over (beta, k, fibre) into the leg.
    """
    weights, rho = _leg_weights(t, omega, hatted)  # (beta, i, k, h, g), (beta, g, f)
    dim_h, dim = t.dim_h, base.shape[-1]
    right = (base.reshape(-1, dim_h) @ rho).reshape(len(rho), n, n, dim_h, dim)
    # right[beta, i, j, g, c] = (base (1 (x) 1 (x) rho(e_beta)))[(i, j, g), c]
    out = np.tensordot(weights, right, axes=((0, 2, 4), (0, 2 if hatted else 1, 3)))
    # left leg: (i, h, j, c); hatted leg: (j, h, i, c)
    return out.transpose((2, 0, 1, 3) if hatted else (0, 2, 1, 3)).reshape(dim, dim)


# ---------------------------------------------------------------------------
# Connections


def hermitize_connection(conn):
    """(B + B*)/2 with (B*)_{jk} = (B_{kj})*."""
    n = len(conn)
    return tuple(
        tuple(one_form_scale(0.5, conn[j][k] + one_form_star(conn[k][j])) for k in range(n))
        for j in range(n)
    )


def compress_connection(e: AlgebraElement, conn):
    """(e B e)_{il} = sum_{jk} e_ij . B_jk . e_kl: :func:`compress_coefficients` on the entries."""
    spec = conn[0][0].spec
    omega = compress_coefficients(e, conn_coefficients(spec, conn))
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
    coords = _entry_coords(e, n)
    summands = tuple(len(b) // n for b in e.blocks)
    maps = (np.tensordot(coords, _mult_tensor(summands, side), 1) for side in (True, False))
    left, right = (m.transpose(0, 2, 1, 3).reshape(n * d, n * d) for m in maps)
    big = omega.transpose(0, 2, 1, 3).reshape(n * d, n * d)
    return (left @ big @ right).reshape(n, d, n, d).transpose(0, 2, 1, 3)


def random_conn_form(
    t: FiniteSpectralTriple,
    n: int,
    rng: np.random.Generator,
    e: AlgebraElement,
    n_pairs: int = 1,
    hermitian: bool = True,
):
    """A random connection compressed to the module of ``e``."""
    spec = t.algebra

    def pair():
        return random_element(spec, rng), random_element(spec, rng)

    raw = tuple(
        tuple(UniversalOneForm.from_pairs(spec, [pair() for _ in range(n_pairs)]) for _ in range(n))
        for _ in range(n)
    )
    if hermitian:
        raw = hermitize_connection(raw)
    return compress_connection(e, raw)


# ---------------------------------------------------------------------------
# The data bundle and the two twists


@dataclass(frozen=True, eq=False)
class MoritaData:
    """
    An idempotent e in M_n(A), one element whose block s has size n*m_s (see
    :func:`mn_from_entries`), together with an optional compressed connection.

    The coefficients of the connection (:func:`conn_coefficients`) are
    stacked once and kept as ``omega``; the twists apply them with pi_big(e),
    pi_hat_big(e) and d_big, kept from their first use as ``proj``,
    ``proj_hat`` and ``dirac``.  Validation checks that e and omega are
    finite, e^2 = e, membership of the entries of e in the algebra, and (when
    a connection is present) the compression identity e B e = B on the
    coefficients.
    """

    triple: FiniteSpectralTriple
    size: int
    idem: AlgebraElement
    conn: tuple | None = None
    validate: InitVar[bool] = True
    omega: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self, validate: bool):
        n = self.size
        if tuple(len(b) for b in self.idem.blocks) != _mn_spec(self.triple.algebra, n).summands:
            raise ValueError(f"idempotent must be an {n}x{n} matrix of elements")
        if self.conn is not None:
            conn = tuple(tuple(row) for row in self.conn)
            if len(conn) != n or any(len(row) != n for row in conn):
                raise ValueError(f"connection must be an {n}x{n} matrix of one-forms")
            object.__setattr__(self, "conn", conn)
            object.__setattr__(self, "omega", conn_coefficients(self.triple.algebra, conn))
        if validate:
            self._validate_entries()
            if self.conn is not None:
                self._validate_compressed()

    def _validate_entries(self, tol: float = 1e-8):
        spec, n = self.triple.algebra, self.size
        if not np.isfinite(self.idem.vec()).all():
            raise ValueError("idempotent has non-finite entries")
        if self.omega is not None and not np.isfinite(self.omega).all():
            raise ValueError("connection has non-finite entries")
        if not _entries_in(spec, self.idem, n, tol=1e-9):
            raise ValueError("idempotent entry is not in the algebra")
        # the largest Frobenius norm of an entry, of e and of e^2 - e
        norm, defect = (
            np.max(np.linalg.norm(_entry_coords(x, n), axis=-1))
            for x in (self.idem, self.idem * self.idem - self.idem)
        )
        if not defect <= tol * max(1.0, norm**2):
            raise ValueError("matrix is not idempotent")

    def _validate_compressed(self, tol: float = 1e-8):
        defect = np.linalg.norm(
            compress_coefficients(self.idem, self.omega) - self.omega, axis=(2, 3)
        )
        bound = tol * np.maximum(1.0, np.linalg.norm(self.omega, axis=(2, 3)))
        if not np.all(defect <= bound):
            raise ValueError("connection is not compressed: e B e != B")

    proj = cached_property(lambda self: pi_big(self.triple, self.size, self.idem))
    proj_hat = cached_property(lambda self: pi_hat_big(self.triple, self.size, self.idem))
    dirac = cached_property(lambda self: d_big(self.triple, self.size))


def _entries_in(spec: AlgebraSpec, x: AlgebraElement, n: int, tol: float) -> bool:
    return spec.first_outside([entry for row in mn_entries(x, n) for entry in row], tol) is None


def _one_sided(md: MoritaData, base: np.ndarray, hatted: bool) -> np.ndarray:
    out = (md.proj_hat if hatted else md.proj) @ base
    return out if md.omega is None else out + rep_conn(md.triple, md.size, md.omega, base, hatted)


def twisted_dirac_left(md: MoritaData) -> np.ndarray:
    """Twist through the left leg first, then through the hatted right leg."""
    return _one_sided(md, _one_sided(md, md.dirac, hatted=False), hatted=True)


def twisted_dirac_right(md: MoritaData) -> np.ndarray:
    """Twist through the hatted right leg first, then through the left leg."""
    return _one_sided(md, _one_sided(md, md.dirac, hatted=True), hatted=False)


def corner_projector(md: MoritaData) -> np.ndarray:
    """pi(e) pihat(e): cuts out the module copy inside C^n (x) C^n (x) H."""
    return md.proj @ md.proj_hat


def corner(md: MoritaData, op: np.ndarray | None = None) -> np.ndarray:
    """P op P for the corner projector P (op defaults to the left twist)."""
    p = corner_projector(md)
    if op is None:
        op = twisted_dirac_left(md)
    return p @ op @ p


def check_idempotent_identity(t: FiniteSpectralTriple, n: int, e: AlgebraElement) -> float:
    """
    Max norm over (i, l) of  sum_{jk} pi(e_ij) [D, pi(e_jk)] pi(e_kl),
    which vanishes identically for idempotent e (it is e de e in disguise).
    Computed as the (i, l) blocks of P [1 (x) D, P] P with P = pi(e) on
    C^n (x) H, read from the table; a NaN anywhere gives NaN.
    """
    dim = n * t.dim_h
    p = _cells(t, n, e, hatted=False).transpose(0, 2, 1, 3).reshape(dim, dim)
    acc = p @ commutator(np.kron(identity(n), t.d), p) @ p
    blocks = acc.reshape(n, t.dim_h, n, t.dim_h)
    return float(np.max(np.linalg.norm(blocks, axis=(1, 3))))


def induced_real_structure(t: FiniteSpectralTriple, n: int) -> AntilinearOp:
    """Real structure on C^n (x) C^n (x) H: swap the two C^n legs, J in the fibre."""
    # row (i, j) of the swap is row (j, i) of the identity
    swap = identity(n * n).reshape(n, n, n * n).transpose(1, 0, 2).reshape(n * n, n * n)
    return AntilinearOp(np.kron(swap, t.j.m))


# ---------------------------------------------------------------------------
# Random module data


def random_idempotent(
    t: FiniteSpectralTriple,
    n: int,
    rng: np.random.Generator,
    self_adjoint: bool = True,
    max_tries: int = 50,
):
    """
    A random idempotent in M_n(A): the positive spectral projection of a
    random hermitian matrix over the algebra (resampled when an eigenvalue
    sits too close to zero), optionally skewed by conjugation with an
    invertible element so that it is no longer self-adjoint.
    """
    spec = t.algebra
    for _ in range(max_tries):
        h = mn_from_entries([[random_element(spec, rng) for _ in range(n)] for _ in range(n)])
        h = 0.5 * (h + h.star())
        eigs = [np.linalg.eigh(big) for big in h.blocks]
        if any(np.min(np.abs(vals)) < 1e-6 for vals, _ in eigs):
            continue
        pos = [vecs[:, vals > 0] for vals, vecs in eigs]
        e = AlgebraElement(tuple(v @ v.conj().T for v in pos))
        if not _entries_in(spec, e, n, tol=1e-8):
            continue
        if self_adjoint:
            return e
        g = mn_from_entries([[random_element(spec, rng) for _ in range(n)] for _ in range(n)])
        g = _mn_spec(spec, n).unit() + 0.3 * g
        if any(np.linalg.cond(big) > 1e6 for big in g.blocks):
            continue
        g_inv = AlgebraElement(tuple(np.linalg.inv(big) for big in g.blocks))
        skewed = g * e * g_inv
        if _entries_in(spec, skewed, n, tol=1e-8):
            return skewed
    raise RuntimeError("could not draw a clean random idempotent")

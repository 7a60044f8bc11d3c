"""
Fluctuations induced by a finitely generated projective module e A^n.

Everything is phrased on the ambient space C^n (x) C^n (x) H.  The algebra
M_n(A) acts there twice: through the left leg (``pi_big``) and, conjugated by
the real structure, through the right leg (``pi_hat_big``).  A connection is
an n x n matrix of universal one-forms B with e B e = B; its represented
action on a base operator is one commutator term pi(x) [base, pi(y)] per
universal pair x d(y), placed in the cell of its entry.  The
module twist of D can then be computed in two orders -- left leg first or
right leg first -- and the two agree identically, which is the analogue of
the transitivity of ordinary inner fluctuations.

Connections arrive as pair lists, but they are validated and applied through
their faithful coefficients in A (x) A: x d(y) -> x (x) y - xy (x) 1, over
the ambient matrix units of A (see :func:`conn_coefficients`).  The check
e B e = B becomes two matrix products on those coefficients, and the
represented action of a whole connection becomes one sum over the matrix
units instead of one commutator per universal pair, so neither cost grows
with the length of the pair lists.  This assumes, like the comparison of
one-forms through ``one_form_cf``, that the representation is a unital
*-homomorphism of the complex algebra, which plain tiles partitioning H
guarantee; the sum over the matrix units reads the triple's tables
pi(e_alpha) and hat(pi(e_alpha)).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np
from scipy.linalg import block_diag

from .matrix_core import AntilinearOp, adjoint, commutator, frob_norm, identity, matrix_unit
from .perturbation import (
    UniversalOneForm,
    one_form_lmul,
    one_form_rmul,
    one_form_scale,
    one_form_star,
)
from .spectral_triple import (
    AlgebraElement,
    AlgebraSpec,
    FiniteSpectralTriple,
    random_element,
    represent,
    spanning_set,
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
    "elem_mat_adjoint",
    "elem_mat_mul",
    "elem_mat_unit",
    "hermitize_connection",
    "induced_real_structure",
    "pi_big",
    "pi_hat_big",
    "random_conn_form",
    "random_idempotent",
    "rep_conn",
    "twisted_dirac_left",
    "twisted_dirac_right",
    "zeroth_order_induced",
]


# ---------------------------------------------------------------------------
# Matrices over the algebra


def elem_mat_mul(x, y):
    """Product of two square matrices of algebra elements."""
    n = len(x)
    out = []
    for i in range(n):
        row = []
        for l in range(n):
            acc = x[i][0] * y[0][l]
            for k in range(1, n):
                acc = acc + x[i][k] * y[k][l]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def elem_mat_adjoint(x):
    """(x*)_{ij} = (x_{ji})*."""
    n = len(x)
    return tuple(tuple(x[j][i].star() for j in range(n)) for i in range(n))


def elem_mat_unit(spec: AlgebraSpec, n: int):
    return tuple(
        tuple(spec.unit() if i == j else spec.zero() for j in range(n)) for i in range(n)
    )


def _elem_mat_defect(x, y) -> float:
    return float(
        np.max([(a - b).norm() for row_x, row_y in zip(x, y) for a, b in zip(row_x, row_y)])
    )


def _elem_mat_scale(x) -> float:
    return max(a.norm() for row in x for a in row)


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


def pi_big(t: FiniteSpectralTriple, n: int, x) -> np.ndarray:
    """M_n(A) acting through the left C^n leg."""
    return _on_leg(np.array([[represent(t, a) for a in row] for row in x]), hatted=False)


def pi_hat_big(t: FiniteSpectralTriple, n: int, x) -> np.ndarray:
    """M_n(A) acting through the right C^n leg, with hatted fibre operators."""
    return _on_leg(np.array([[t.hat(represent(t, a)) for a in row] for row in x]), hatted=True)


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
    left leg and hat o pi on the hatted right leg (``t.pi_table`` and
    ``t.pi_hat_table``), and L_beta puts
    rho(Omega^ik_beta), Omega^ik_beta = sum_alpha omega[i, k, alpha, beta] e_alpha,
    in cell (i, k) of that leg.  Pair by pair this is
    (E_ik (x) 1 (x) rho(x)) [base, 1 (x) 1 (x) rho(y)], because
    rho(x) rho(y) = rho(xy) and rho(1) = 1.  hat o pi is antilinear, so its
    cells take the conjugated coefficients.
    """
    rho = t.pi_hat_table if hatted else t.pi_table
    if hatted:
        omega = np.conj(omega)
    lefts = _on_leg(np.einsum("ikab,ahg->bikhg", omega, rho), hatted)
    rights = np.kron(identity(n * n)[None], rho)
    return (lefts @ base @ rights).sum(axis=0)


# ---------------------------------------------------------------------------
# Connections


def hermitize_connection(conn):
    """(B + B*)/2 with (B*)_{jk} = (B_{kj})*."""
    n = len(conn)
    return tuple(
        tuple(
            one_form_scale(0.5, conn[j][k])
            + one_form_scale(0.5, one_form_star(conn[k][j]))
            for k in range(n)
        )
        for j in range(n)
    )


def compress_connection(e, conn):
    """(e B e)_{il} = sum_{jk} e_ij . B_jk . e_kl, at the universal level."""
    n = len(conn)
    out = []
    for i in range(n):
        row = []
        for l in range(n):
            acc = None
            for j in range(n):
                for k in range(n):
                    term = one_form_lmul(e[i][j], one_form_rmul(conn[j][k], e[k][l]))
                    acc = term if acc is None else acc + term
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def conn_coefficients(spec: AlgebraSpec, conn) -> np.ndarray:
    """
    Faithful coefficients of an n x n connection, shape (n, n, d, d) with d
    the ambient dimension of A: entry (i, k) is the image
    sum_j x_j (x) y_j - x_j y_j (x) 1 of conn[i][k] in A (x) A, over the
    ambient matrix units (rows for the first factor).  These are the entries
    of ``one_form_cf(spec, conn[i][k])`` gathered from its block layout into
    one d x d matrix, so equal coefficients mean equal universal one-forms.
    """
    d = spec.ambient_dim
    unit = spec.unit().vec()
    out = np.zeros((len(conn), len(conn), d, d), dtype=complex)
    for i, row in enumerate(conn):
        for k, w in enumerate(row):
            xs = np.array([x.vec() for x, _ in w.pairs]).reshape(-1, d)
            ys = np.array([y.vec() for _, y in w.pairs]).reshape(-1, d)
            xy = np.array([(x * y).vec() for x, y in w.pairs]).reshape(-1, d)
            out[i, k] = xs.T @ ys - np.outer(xy.sum(axis=0), unit)
    return out


def compress_coefficients(e, omega: np.ndarray) -> np.ndarray:
    """
    e B e on coefficients: entry (i, l) is sum_jk (e_ij (x) 1) omega_jk (1 (x) e_kl),
    left multiplication by e_ij on the first factor and right multiplication
    by e_kl on the second.
    """
    n, _, d, _ = omega.shape
    left = np.block([
        [block_diag(*(np.kron(b, identity(len(b))) for b in a.blocks)) for a in row]
        for row in e
    ])
    right = np.block([
        [block_diag(*(np.kron(identity(len(b)), b) for b in a.blocks)) for a in row]
        for row in e
    ])
    big = omega.transpose(0, 2, 1, 3).reshape(n * d, n * d)
    return (left @ big @ right).reshape(n, d, n, d).transpose(0, 2, 1, 3)


def random_conn_form(
    t: FiniteSpectralTriple,
    n: int,
    rng: np.random.Generator,
    e,
    n_pairs: int = 1,
    hermitian: bool = True,
):
    """A random connection compressed to the module of ``e``."""
    spec = t.algebra
    raw = tuple(
        tuple(
            UniversalOneForm(
                tuple(
                    (random_element(spec, rng), random_element(spec, rng))
                    for _ in range(n_pairs)
                )
            )
            for _ in range(n)
        )
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
    An idempotent e in M_n(A) together with an optional compressed connection.

    The faithful coefficients of the connection (:func:`conn_coefficients`)
    are computed once and kept as ``omega``; the twists apply them.
    Validation checks that every entry is finite, e^2 = e, membership of all
    entries in the algebra, and (when a connection is present) the
    compression identity e B e = B on the coefficients.
    """

    triple: FiniteSpectralTriple
    size: int
    idem: tuple
    conn: tuple | None = None
    validate: InitVar[bool] = True
    omega: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self, validate: bool):
        n = self.size
        idem = tuple(tuple(row) for row in self.idem)
        if len(idem) != n or any(len(row) != n for row in idem):
            raise ValueError(f"idempotent must be an {n}x{n} matrix of elements")
        object.__setattr__(self, "idem", idem)
        if self.conn is not None:
            conn = tuple(tuple(row) for row in self.conn)
            if len(conn) != n or any(len(row) != n for row in conn):
                raise ValueError(f"connection must be an {n}x{n} matrix of one-forms")
            object.__setattr__(self, "conn", conn)
        if validate:
            self._validate_entries()
        if self.conn is not None:
            object.__setattr__(self, "omega", conn_coefficients(self.triple.algebra, self.conn))
            if validate:
                self._validate_compressed()

    def _validate_entries(self, tol: float = 1e-8):
        spec = self.triple.algebra
        if not all(_finite(a) for row in self.idem for a in row):
            raise ValueError("idempotent has non-finite entries")
        if self.conn is not None and not all(
            _finite(a) for row in self.conn for w in row for pair in w.pairs for a in pair
        ):
            raise ValueError("connection has non-finite entries")
        for row in self.idem:
            for entry in row:
                if not spec.contains(entry):
                    raise ValueError("idempotent entry is not in the algebra")
        sq = elem_mat_mul(self.idem, self.idem)
        scale = max(1.0, _elem_mat_scale(self.idem) ** 2)
        if not _elem_mat_defect(sq, self.idem) <= tol * scale:
            raise ValueError("matrix is not idempotent")

    def _validate_compressed(self, tol: float = 1e-8):
        defect = np.linalg.norm(
            compress_coefficients(self.idem, self.omega) - self.omega, axis=(2, 3)
        )
        bound = tol * np.maximum(1.0, np.linalg.norm(self.omega, axis=(2, 3)))
        if not np.all(defect <= bound):
            raise ValueError("connection is not compressed: e B e != B")


def _finite(a: AlgebraElement) -> bool:
    return all(np.isfinite(b).all() for b in a.blocks)


def _one_sided(md: MoritaData, base: np.ndarray, hatted: bool) -> np.ndarray:
    t, n = md.triple, md.size
    proj = pi_hat_big(t, n, md.idem) if hatted else pi_big(t, n, md.idem)
    out = proj @ base
    if md.omega is not None:
        out = out + rep_conn(t, n, md.omega, base, hatted)
    return out


def twisted_dirac_left(md: MoritaData) -> np.ndarray:
    """Twist through the left leg first, then through the hatted right leg."""
    o1 = _one_sided(md, d_big(md.triple, md.size), hatted=False)
    return _one_sided(md, o1, hatted=True)


def twisted_dirac_right(md: MoritaData) -> np.ndarray:
    """Twist through the hatted right leg first, then through the left leg."""
    o2 = _one_sided(md, d_big(md.triple, md.size), hatted=True)
    return _one_sided(md, o2, hatted=False)


def corner_projector(md: MoritaData) -> np.ndarray:
    """pi(e) pihat(e): cuts out the module copy inside C^n (x) C^n (x) H."""
    t, n = md.triple, md.size
    return pi_big(t, n, md.idem) @ pi_hat_big(t, n, md.idem)


def corner(md: MoritaData, op: np.ndarray | None = None) -> np.ndarray:
    """P op P for the corner projector P (op defaults to the left twist)."""
    p = corner_projector(md)
    if op is None:
        op = twisted_dirac_left(md)
    return p @ op @ p


def check_idempotent_identity(t: FiniteSpectralTriple, n: int, e) -> float:
    """
    Max norm over (i, l) of  sum_{jk} pi(e_ij) [D, pi(e_jk)] pi(e_kl),
    which vanishes identically for idempotent e (it is e de e in disguise).
    Computed as the (i, l) blocks of P [1 (x) D, P] P with P = pi(e) on
    C^n (x) H; a NaN anywhere gives NaN.
    """
    p = np.block([[represent(t, entry) for entry in row] for row in e])
    acc = p @ commutator(np.kron(identity(n), t.d), p) @ p
    blocks = acc.reshape(n, t.dim_h, n, t.dim_h)
    return float(np.max(np.linalg.norm(blocks, axis=(1, 3))))


def induced_real_structure(t: FiniteSpectralTriple, n: int) -> AntilinearOp:
    """Real structure on C^n (x) C^n (x) H: swap the two C^n legs, J in the fibre."""
    swap = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            swap += np.kron(matrix_unit(n, i, j), matrix_unit(n, j, i))
    return AntilinearOp(np.kron(swap, t.j.m))


def zeroth_order_induced(t: FiniteSpectralTriple, n: int) -> float:
    """
    Max commutator norm between the left action of M_n(A) and the conjugate
    of its adjoint under the induced real structure (NaN if any norm is NaN).
    """
    jp = induced_real_structure(t, n)
    eye = identity(n)
    lefts = []
    for i in range(n):
        for j in range(n):
            for s in spanning_set(t.algebra):
                lefts.append(
                    np.kron(matrix_unit(n, i, j), np.kron(eye, represent(t, s)))
                )
    rights = [jp.conjugate(adjoint(op)) for op in lefts]
    return float(
        np.max([frob_norm(commutator(left, right)) for left in lefts for right in rights])
    )


# ---------------------------------------------------------------------------
# Random module data


def _assemble_summand(mat, s: int, block_size: int) -> np.ndarray:
    n = len(mat)
    big = np.zeros((n * block_size, n * block_size), dtype=complex)
    for j in range(n):
        for k in range(n):
            big[
                j * block_size : (j + 1) * block_size,
                k * block_size : (k + 1) * block_size,
            ] = mat[j][k].blocks[s]
    return big


def _carve(spec: AlgebraSpec, bigs, n: int):
    out = []
    for j in range(n):
        row = []
        for k in range(n):
            blocks = []
            for s, ns in enumerate(spec.summands):
                blocks.append(bigs[s][j * ns : (j + 1) * ns, k * ns : (k + 1) * ns])
            row.append(AlgebraElement(tuple(blocks)))
        out.append(tuple(row))
    return tuple(out)


def _random_elem_mat(spec: AlgebraSpec, n: int, rng: np.random.Generator):
    return tuple(
        tuple(random_element(spec, rng) for _ in range(n)) for _ in range(n)
    )


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
        h = _random_elem_mat(spec, n, rng)
        h_adj = elem_mat_adjoint(h)
        h = tuple(
            tuple(0.5 * (h[j][k] + h_adj[j][k]) for k in range(n)) for j in range(n)
        )
        bigs = []
        ok = True
        for s, ns in enumerate(spec.summands):
            big = _assemble_summand(h, s, ns)
            vals, vecs = np.linalg.eigh(big)
            if np.min(np.abs(vals)) < 1e-6:
                ok = False
                break
            pos = vecs[:, vals > 0]
            bigs.append(pos @ pos.conj().T)
        if not ok:
            continue
        e = _carve(spec, bigs, n)
        if not all(spec.contains(entry, tol=1e-8) for row in e for entry in row):
            continue
        if self_adjoint:
            return e
        g = _random_elem_mat(spec, n, rng)
        unit = elem_mat_unit(spec, n)
        g = tuple(
            tuple(unit[j][k] + 0.3 * g[j][k] for k in range(n)) for j in range(n)
        )
        g_bigs, gi_bigs = [], []
        invertible = True
        for s, ns in enumerate(spec.summands):
            big = _assemble_summand(g, s, ns)
            if np.linalg.cond(big) > 1e6:
                invertible = False
                break
            g_bigs.append(big)
            gi_bigs.append(np.linalg.inv(big))
        if not invertible:
            continue
        e_bigs = [gb @ _assemble_summand(e, s, ns) @ gib
                  for s, (ns, gb, gib) in enumerate(zip(spec.summands, g_bigs, gi_bigs))]
        skewed = _carve(spec, e_bigs, n)
        if all(spec.contains(entry, tol=1e-8) for row in skewed for entry in row):
            return skewed
    raise RuntimeError("could not draw a clean random idempotent")

"""
Finite real spectral triples (A, H, D; J, gamma) and their axiom checks.

The algebra is a direct sum of full matrix algebras, optionally cut down to a
subalgebra by an explicit spanning set (that is how the even subalgebra and
the first-order subalgebra of the toy model are expressed).  The
representation on H is given by plain tiles I_left ⊗ a_summand ⊗ I_right
that must partition H, so pi is a unital *-homomorphism.  Each triple keeps
the values Pi_alpha = pi(e_alpha) on the ambient matrix units and their hats
J Pi_alpha J^{-1}: pi(a) sums a's coordinates against Pi, and hat(pi(a)) the
conjugated coordinates against the hats (the e_alpha are real).  The right
action is derived as pi_op(a) = J pi(a)* J^{-1}.
Inside the package algebra data moves as ambient coordinates (..., d) in the
``AlgebraElement.vec()`` layout, with one draw (``_random_coords``), one
membership test (``AlgebraSpec.outside``) and one representation kernel
(``FiniteSpectralTriple.rep``); lists of elements are the public edge.  Two
rules check the scalar inputs where their values are built: ``_integer`` and ``_number``.
"""

from __future__ import annotations

import cmath
from dataclasses import InitVar, dataclass, field

import numpy as np

from .matrix_core import _AXIOM_TOL, _SEMIGROUP_TOL, _within, _within_each
from .matrix_core import AntilinearOp, adjoint, as_matrix, frob_norm, identity

__all__ = [
    "AlgebraElement",
    "AlgebraSpec",
    "CheckReport",
    "FiniteSpectralTriple",
    "KOReport",
    "KOSigns",
    "RepBlock",
    "check_first_order",
    "check_ko_signs",
    "check_zeroth_order",
    "random_element",
    "random_hermitian",
    "random_unitary",
    "represent",
    "spanning_set",
]


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """One matrix block per summand of the parent :class:`AlgebraSpec`."""

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(as_matrix(b) for b in self.blocks))
        for b in self.blocks:
            if b.shape[0] != b.shape[1]:
                raise ValueError("algebra blocks must be square")

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_shapes(other)
        return AlgebraElement(tuple(a @ b for a, b in zip(self.blocks, other.blocks)))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_shapes(other)
        return AlgebraElement(tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_shapes(other)
        return AlgebraElement(tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __rmul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(tuple(complex(scalar) * b for b in self.blocks))

    def __neg__(self) -> "AlgebraElement":
        return (-1.0) * self

    def star(self) -> "AlgebraElement":
        """Blockwise adjoint (the involution of the algebra)."""
        return AlgebraElement(tuple(adjoint(b) for b in self.blocks))

    def vec(self) -> np.ndarray:
        """Flatten to one complex coordinate vector over the ambient matrix units."""
        return np.concatenate([b.ravel() for b in self.blocks])

    def _check_shapes(self, other: "AlgebraElement") -> None:
        if len(self.blocks) != len(other.blocks) or any(
            a.shape != b.shape for a, b in zip(self.blocks, other.blocks)
        ):
            raise ValueError("algebra elements live over different summand structures")


@dataclass(frozen=True, eq=False)
class AlgebraSpec:
    """
    Direct sum of full matrix algebras M_{n_1} ⊕ ... ⊕ M_{n_k}, optionally
    constrained to the span of an explicit basis of elements.

    A constraint basis must be finite, closed under products and adjoints
    (checked at construction on the spanning set), which makes the span a
    *-subalgebra, and span the unit, which everything downstream assumes (the
    normalizer 1 (x) 1, rho(1) = 1).  The orthogonal projector onto the span
    over ``AlgebraElement.vec()`` coordinates (a thin SVD, with the rank cutoff
    of ``scipy.linalg.orth``) is kept; a membership test is one product with
    it.  So are the spanning set's coordinates and pseudo-inverse.
    """

    summands: tuple
    basis: tuple | None = None

    def __post_init__(self):
        summands = tuple(_integer("summand size", n, 1) for n in self.summands)
        if not summands:
            raise ValueError("need at least one summand")
        object.__setattr__(self, "summands", summands)
        object.__setattr__(self, "_proj", None)
        object.__setattr__(self, "_span", None)
        if self.basis is not None:
            basis = tuple(self.basis)
            if not basis:
                raise ValueError("constraint basis must be nonempty")
            for e in basis:
                if tuple(b.shape[0] for b in e.blocks) != summands:
                    raise ValueError("constraint basis element has wrong summand shapes")
            cols = np.column_stack([e.vec() for e in basis])
            if not np.isfinite(cols).all():
                raise ValueError("constraint basis has non-finite entries")
            object.__setattr__(self, "basis", basis)
            u, s, _ = np.linalg.svd(cols, full_matrices=False)
            q = u[:, s > s.max() * np.finfo(float).eps * max(cols.shape)]
            object.__setattr__(self, "_proj", q @ q.conj().T)
            self._check_closure()
            if self.outside(self.unit().vec())[()]:
                raise ValueError("constraint basis does not span the unit")

    def _check_closure(self):
        stars = self.first_outside([a.star() for a in self.basis])
        if stars is not None:
            raise ValueError(f"constraint basis not closed under adjoint (element {stars})")
        prods = self.first_outside([a * b for a in self.basis for b in self.basis])
        if prods is not None:
            i, k = divmod(prods, len(self.basis))
            raise ValueError(f"constraint basis not closed under product ({i},{k})")

    @property
    def ambient_dim(self) -> int:
        return sum(n * n for n in self.summands)

    def dim(self) -> int:
        """Complex dimension of the (sub)algebra: the rank of its span."""
        return self.ambient_dim if self._proj is None else round(self._proj.trace().real)

    def span_coords(self):
        """
        Rows B of the ambient coordinates of ``spanning_set(self)`` and the
        pseudo-inverse of B^T, computed on the first call and kept.
        """
        if self._span is None:
            rows = np.array([b.vec() for b in spanning_set(self)])
            object.__setattr__(self, "_span", (rows, np.linalg.pinv(rows.T)))
        return self._span

    def unit(self) -> AlgebraElement:
        return AlgebraElement(tuple(identity(n) for n in self.summands))

    def from_coords(self, rows) -> list:
        """The elements whose ambient coordinates (``AlgebraElement.vec()``) are the rows."""
        rows = np.asarray(rows, dtype=complex).reshape(len(rows), self.ambient_dim)
        starts = np.cumsum((0,) + tuple(n * n for n in self.summands))
        blocks = [rows[:, o:o + n * n].reshape(-1, n, n) for o, n in zip(starts, self.summands)]
        return [AlgebraElement(tuple(b[i] for b in blocks)) for i in range(len(rows))]

    def outside(self, rows) -> np.ndarray:
        """Mask of the coordinate rows (..., d) that are not finite or off the span (by |row|)."""
        rows = np.asarray(rows, dtype=complex)
        bad = ~np.isfinite(rows).all(-1)
        if self._proj is not None:
            rows = np.where(bad[..., None], 0.0, rows)  # measured as zero, already outside
            resid = np.linalg.norm(rows - rows @ self._proj.T, axis=-1)
            bad |= ~_within_each(resid, _SEMIGROUP_TOL, np.linalg.norm(rows, axis=-1))
        return bad

    def first_outside(self, elements) -> int | None:
        """
        Index of the first element not in the algebra (other summand shapes, or
        :meth:`outside` on its coordinates), None if all are.
        """
        fits = np.array(
            [tuple(b.shape[0] for b in a.blocks) == self.summands for a in elements], dtype=bool
        )
        if fits.any():
            fits[fits] = ~self.outside([a.vec() for a, ok in zip(elements, fits) if ok])
        bad = np.flatnonzero(~fits)
        return int(bad[0]) if bad.size else None

    def contains(self, a: AlgebraElement) -> bool:
        """Membership test: the shapes match, the entries are finite and a is in the span."""
        return self.first_outside([a]) is None


def spanning_set(spec: AlgebraSpec) -> list:
    """
    A spanning set of the algebra as a complex vector space: the constraint
    basis when present, otherwise the matrix units of every summand.
    """
    if spec.basis is not None:
        return list(spec.basis)
    return spec.from_coords(identity(spec.ambient_dim))  # the matrix units, in vec() order


@dataclass(frozen=True)
class RepBlock:
    """
    One tile of the representation: the summand acts as
    I_left ⊗ block ⊗ I_right starting at ``offset`` on H.
    """

    summand: int
    left_mult_dim: int
    right_mult_dim: int
    offset: int = 0

    def __post_init__(self):
        for name, low in (("summand", 0), ("left_mult_dim", 1), ("right_mult_dim", 1), ("offset", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), low))


@dataclass(frozen=True)
class KOSigns:
    """KO-dimension signs: J^2 = eps_j, JD = eps_d DJ, J gamma = eps_gamma gamma J."""

    eps_j: int
    eps_d: int
    eps_gamma: int

    def __post_init__(self):
        for name in ("eps_j", "eps_d", "eps_gamma"):
            value = getattr(self, name)
            if value not in (+1, -1):
                raise ValueError(f"{name} must be exactly +1 or -1, got {value!r}")
            object.__setattr__(self, name, _integer(name, value, -1))  # refuses True and 1.0


@dataclass(frozen=True, eq=False)
class FiniteSpectralTriple:
    """
    (A, H, D; J, gamma) with declared KO signs.

    Construction checks that dim_h is an integer and the tiles partition H, keeps the
    read-only tables ``pi_table`` (Pi_alpha = pi(e_alpha) on the ambient matrix units,
    in ``AlgebraElement.vec()`` order) and ``pi_hat_table`` (J Pi_alpha J^{-1}), and
    validates the real even-triple axioms to ``_AXIOM_TOL``: finite entries, D self-adjoint,
    gamma a self-adjoint involution anticommuting with D and commuting with pi(A),
    J^2 = eps_j, and order zero; :class:`AntilinearOp` makes J antiunitary in any case.
    JD = eps_d DJ and J gamma = eps_gamma gamma J are measured (``check_ko_signs``), not
    enforced.  ``validate=False`` is an escape hatch for deliberately corrupted triples.
    """

    algebra: AlgebraSpec
    dim_h: int
    rep_blocks: tuple
    d: np.ndarray
    j: AntilinearOp
    gamma: np.ndarray
    signs: KOSigns
    validate: InitVar[bool] = True
    pi_table: np.ndarray = field(init=False, repr=False)
    pi_hat_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, validate: bool):
        object.__setattr__(self, "dim_h", _integer("dim_h", self.dim_h, 1))
        object.__setattr__(self, "rep_blocks", tuple(self.rep_blocks))
        object.__setattr__(self, "d", as_matrix(self.d))
        object.__setattr__(self, "gamma", as_matrix(self.gamma))
        n = self.dim_h
        for name, m in (("d", self.d), ("gamma", self.gamma), ("J", self.j.m)):
            if m.shape != (n, n):
                raise ValueError(f"{name} must be {n}x{n}, got {m.shape}")
        pi = self._build_table()
        for name, table in (("pi_table", pi), ("pi_hat_table", self.j.conjugate(pi))):
            table.flags.writeable = False
            object.__setattr__(self, name, table)
        if validate:
            self._validate()

    def _build_table(self) -> np.ndarray:
        """Pi_alpha = pi(e_alpha), tile by tile; the tiles must partition H."""
        summands, n = self.algebra.summands, self.dim_h
        starts = np.cumsum((0,) + tuple(m * m for m in summands))
        table = np.zeros((starts[-1], n, n), dtype=complex)
        for rb in self.rep_blocks:
            if rb.summand >= len(summands):
                raise ValueError(f"summand {rb.summand} out of range for {len(summands)} summands")
            m = summands[rb.summand]
            sl = slice(rb.offset, rb.offset + rb.left_mult_dim * m * rb.right_mult_dim)
            if sl.stop > n:
                raise ValueError(f"tile at offset {rb.offset} runs past dim_h {n} to {sl.stop}")
            units = identity(m * m).reshape(m * m, m, m)
            table[starts[rb.summand]:starts[rb.summand + 1], sl, sl] += np.kron(
                np.kron(identity(rb.left_mult_dim)[None], units), identity(rb.right_mult_dim)[None])
        covered = np.tensordot(self.algebra.unit().vec(), table, 1).diagonal().real  # pi(1)
        if np.any(covered > 1):
            raise ValueError("representation blocks overlap")
        if covered.sum() != n:
            raise ValueError(f"representation blocks tile {int(covered.sum())} of {n} dimensions")
        return table

    def _validate(self):
        for name, m in (("D", self.d), ("gamma", self.gamma)):  # J's m is checked and read-only
            if not np.isfinite(m).all():
                raise ValueError(f"{name} has non-finite entries")
        with np.errstate(over="ignore"):  # each check refuses an overflow, D's norm by name
            d, g, one, norm = self.d, self.gamma, identity(self.dim_h), frob_norm(self.d)
            reps = _span_reps(self, self.algebra)
            for message, defect, scale in (  # the scale is D's norm or 1
                ("D is not self-adjoint", frob_norm(d - adjoint(d)), norm),
                ("gamma^2 != 1", frob_norm(g @ g - one), 1.0),
                ("gamma is not self-adjoint", frob_norm(g - adjoint(g)), 1.0),
                ("gamma does not anticommute with D", frob_norm(g @ d + d @ g), norm),
                ("gamma does not commute with the represented algebra",
                 np.linalg.norm(g @ reps - reps @ g, axis=(1, 2)).max(), 1.0),
                ("J^2 does not match declared eps_j",
                 frob_norm(self.j.square() - self.signs.eps_j * one), 1.0),
                ("the order zero condition fails: [pi(a), J pi(b)* J^-1] != 0",
                 _worst_pair(self, self.algebra, with_d=False).max_defect, 1.0),
            ):
                if not _within(defect, _AXIOM_TOL, scale, "D's norm"):
                    raise ValueError(message)

    def hat(self, t: np.ndarray) -> np.ndarray:
        """The hat operation T -> J T J^{-1}."""
        return self.j.conjugate(t)

    def rep(self, coords, hatted: bool = False) -> np.ndarray:
        """pi, or hat o pi if ``hatted``, of ambient coordinates (..., d): shape (..., N, N)."""
        table = self.pi_hat_table if hatted else self.pi_table
        coords = np.conj(coords) if hatted else np.asarray(coords)
        d, n = table.shape[:2]  # one 2-D product; a last axis other than d fails a reshape
        return (coords.reshape(-1, d) @ table.reshape(d, n * n)).reshape(coords.shape[:-1] + (n, n))


def represent(t: FiniteSpectralTriple, a: AlgebraElement) -> np.ndarray:
    """pi(a) = sum_alpha a_alpha Pi_alpha, read from the triple's table."""
    if tuple(b.shape[0] for b in a.blocks) != t.algebra.summands:
        raise ValueError("element does not match the triple's algebra")
    return t.rep(a.vec())


def _span_reps(t: FiniteSpectralTriple, spec: AlgebraSpec) -> np.ndarray:
    """pi of the spanning set of ``spec``, a subalgebra of the triple's, stacked."""
    return t.rep(spec.span_coords()[0])


@dataclass(frozen=True)
class CheckReport:
    """Worst-case defect of a bilinear axiom over spanning-set pairs."""

    max_defect: float
    worst_pair: tuple


def _worst_pair(t: FiniteSpectralTriple, spec: AlgebraSpec, with_d: bool) -> CheckReport:
    """
    Max over spanning pairs (a, b) of ||[L(a), pi_op(b)]||_F, L(a) = [D, pi(a)] if
    ``with_d`` else pi(a), at the first maximal pair in row-major order; NaN comes through.
    """
    reps = _span_reps(t, spec)
    rights = t.j.conjugate(reps.conj().swapaxes(1, 2))  # pi_op of each spanning element
    lefts = t.d @ reps - reps @ t.d if with_d else reps
    comm = lefts[:, None] @ rights[None] - rights[None] @ lefts[:, None]
    defects = np.linalg.norm(comm, axis=(2, 3))
    i, k = np.unravel_index(np.argmax(defects), defects.shape)
    return CheckReport(float(np.max(defects)), (int(i), int(k)))


def check_zeroth_order(t: FiniteSpectralTriple) -> CheckReport:
    """Max over spanning pairs (a, b) of ||[pi(a), pi_op(b)]||_F."""
    return _worst_pair(t, t.algebra, with_d=False)


def check_first_order(t: FiniteSpectralTriple, sub: AlgebraSpec | None = None) -> CheckReport:
    """
    Max over spanning pairs (a, b) of ||[[D, pi(a)], pi_op(b)]||_F, over the
    triple's algebra or a contained subalgebra ``sub``.
    """
    if sub is not None and t.algebra.first_outside(spanning_set(sub)) is not None:
        raise ValueError("sub is not contained in the triple's algebra")
    return _worst_pair(t, sub if sub is not None else t.algebra, with_d=True)


@dataclass(frozen=True)
class KOReport:
    """Residuals of the three sign relations against the declared KO signs."""

    res_j_squared: float
    res_jd: float
    res_jgamma: float

    @property
    def worst(self) -> float:
        """The largest residual; NaN when any residual is NaN."""
        return float(np.max([self.res_j_squared, self.res_jd, self.res_jgamma]))

    def passed(self, tol: float = _AXIOM_TOL) -> bool:
        return _within(self.worst, tol)


def check_ko_signs(t: FiniteSpectralTriple) -> KOReport:
    """Verify J^2 = eps_j, JD = eps_d DJ and J gamma = eps_gamma gamma J."""
    m = t.j.m
    n = t.dim_h
    res_j = frob_norm(t.j.square() - t.signs.eps_j * identity(n))
    # JD and DJ are antilinear; comparing their linear matrix parts:
    res_jd = frob_norm(m @ np.conj(t.d) - t.signs.eps_d * (t.d @ m))
    res_jg = frob_norm(m @ np.conj(t.gamma) - t.signs.eps_gamma * (t.gamma @ m))
    return KOReport(res_j, res_jd, res_jg)


# ---------------------------------------------------------------------------
# Shared privates: the integer rule, the number rule and the random draw.
_NOT_NUMBERS = (bool, np.timedelta64)  # an int and an np.signedinteger, yet no numbers


def _integer(name: str, value, low: int, high: float = cmath.inf) -> int:
    """An int or numpy integer in [low, high], as an int; a bool or a timedelta is not one."""
    if isinstance(value, _NOT_NUMBERS) or not isinstance(value, (int, np.integer)) or not (
            low <= value <= high):
        bound = f">= {low}" if high == cmath.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def _number(name: str, value, positive: bool = False):
    """
    ``value`` as a float, or a complex if it is one, for a finite int, float or complex, numpy
    scalars included; a bool, a timedelta or a string is not.  With ``positive`` it is real, > 0.
    """
    if (isinstance(value, _NOT_NUMBERS) or not isinstance(value, (int, float, complex, np.number))
            or not cmath.isfinite(value) or positive and (value.imag != 0 or value.real <= 0)):
        bound = " > 0" if positive else ""
        raise ValueError(f"{name} must be a finite number{bound}, got {value!r}")
    return complex(value) if isinstance(value, (complex, np.complexfloating)) else float(value)


def _random_coords(spec: AlgebraSpec, rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """
    Coordinates, shape + (d,), of ``random_element`` draws in row-major order, from one rng
    call: complex standard-normal coefficients, (re, im) in turn, over the spanning set.
    """
    rows = spec.span_coords()[0]
    draws = rng.standard_normal(shape + (len(rows), 2))
    return (draws[..., 0] + 1j * draws[..., 1]) @ rows


def random_element(spec: AlgebraSpec, rng: np.random.Generator) -> AlgebraElement:
    """Random element: :func:`_random_coords` of one draw."""
    return spec.from_coords([_random_coords(spec, rng, ())])[0]


def random_hermitian(spec: AlgebraSpec, rng: np.random.Generator) -> AlgebraElement:
    a = random_element(spec, rng)
    return 0.5 * (a + a.star())


def random_unitary(spec: AlgebraSpec, rng: np.random.Generator) -> AlgebraElement:
    """
    exp(i h) = V diag(e^{i l}) V* of a random hermitian h = V diag(l) V* in the algebra, per
    block.  For multimatrix algebras (every spec shipped here) it stays in the algebra.
    """
    eigs = map(np.linalg.eigh, random_hermitian(spec, rng).blocks)
    return AlgebraElement(tuple((v * np.exp(1j * lam)) @ v.conj().T for lam, v in eigs))

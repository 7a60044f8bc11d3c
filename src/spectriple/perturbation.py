"""
Perturbation semigroup and universal one-forms over a multimatrix algebra.

A perturbation is a finite sum  sum_j a_j (x) b_j  in A (x) A^op that is
normalized, sum_j a_j b_j = 1, and fixed under the flip involution
sum_j a_j (x) b_j  ->  sum_j b_j* (x) a_j*.  These form a semigroup under the
product of A (x) A^op, and they act on Dirac operators by

    D  ->  sum_{i,j} pi(a_i) hat(pi(a_j)) D pi(b_i) hat(pi(b_j)),

which reproduces D + A_1 + eps_d J A_1 J^{-1} + A_2 with A_1 the represented
one-form and A_2 the quadratic correction term.

Perturbations are stored as their pairs, which are free to contain redundant
terms, and compared through their canonical form, the block-diagonal matrix of
A (x) A^op over ordered pairs of summands whose matrix product is the semigroup
product.  A universal one-form is stored as its coefficients omega in A (x) A
(:class:`UniversalOneForm`): the module actions, the star, A_1 and A_2 are
fixed linear maps on omega, whatever the number of pairs it was built from.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np
from scipy.linalg import block_diag

from .matrix_core import adjoint, approx_eq, frob_norm, identity
from .spectral_triple import (
    AlgebraElement,
    AlgebraSpec,
    FiniteSpectralTriple,
    random_element,
    spanning_set,
)

__all__ = [
    "PertElement",
    "RepresentedPert",
    "UniversalOneForm",
    "a1",
    "a2_with",
    "canonical_form",
    "check_transitivity",
    "eta_one_form",
    "fluctuate",
    "fluctuate_combined",
    "from_unitary",
    "gauge_transform",
    "mu",
    "normalize_one_form",
    "one_form_cf",
    "one_form_lmul",
    "one_form_rmul",
    "one_form_scale",
    "one_form_star",
    "pert_mul",
    "random_one_form",
    "random_pert",
    "star_swap",
    "symmetrize",
]


def _coerce_pairs(pairs) -> tuple:
    out = []
    for p in pairs:
        a, b = p
        if not isinstance(a, AlgebraElement) or not isinstance(b, AlgebraElement):
            raise TypeError("pairs must consist of AlgebraElement instances")
        out.append((a, b))
    return tuple(out)


def _stacked(summands, elements) -> list:
    """Per summand, the blocks of ``elements`` stacked along a leading axis."""
    if any(tuple(len(b) for b in e.blocks) != summands for e in elements):
        raise ValueError("element does not match the algebra")
    return [
        np.array([e.blocks[s] for e in elements], dtype=complex).reshape(-1, n, n)
        for s, n in enumerate(summands)
    ]


def _cf_of_pairs(summands, pairs) -> np.ndarray:
    """
    Block-diagonal canonical form of sum_j a_j (x) b_j in A (x) A^op: over
    ordered pairs (i, k) of summands, sum_j kron(a_j[i], b_j[k]^T), so that the
    matrix product is the semigroup product.
    """
    lefts = _stacked(summands, [a for a, _ in pairs])
    rights = _stacked(summands, [b for _, b in pairs])
    blocks = []
    for left in lefts:
        for right in rights:
            size = left.shape[1] * right.shape[1]
            blocks.append(np.einsum("jab,jdc->acbd", left, right).reshape(size, size))
    return block_diag(*blocks)


# ---------------------------------------------------------------------------
# Universal one-forms


def _mult_map(summands, a: AlgebraElement, left: bool) -> np.ndarray:
    """x -> ax on column coordinate vectors (``left``), or x -> xa on row vectors."""
    if tuple(len(b) for b in a.blocks) != tuple(summands):
        raise ValueError("element does not match the algebra")
    eyes = [identity(len(b)) for b in a.blocks]
    return block_diag(*(np.kron(b, i) if left else np.kron(i, b) for b, i in zip(a.blocks, eyes)))


def _unit_transpose(summands) -> np.ndarray:
    """For each ambient matrix unit e_ij (vec() order), the index of e_ji."""
    offsets = np.cumsum((0,) + tuple(m * m for m in summands))
    return np.concatenate(
        [o + np.arange(m * m).reshape(m, m).T.ravel() for o, m in zip(offsets, summands)]
    )


@dataclass(frozen=True, eq=False)
class UniversalOneForm:
    """
    A universal one-form over ``spec``, stored as its faithful image in A (x) A:

        sum_j x_j d(y_j)  ->  omega = sum_j x_j (x) y_j - x_j y_j (x) 1,

    the d x d matrix over the ambient matrix units (``AlgebraElement.vec()``
    order, rows for the first factor).  Two forms are equal exactly when their
    omegas are.  :meth:`from_pairs` builds one from pairs; ``pairs`` gives
    pairs back, over the spanning set of ``spec``.
    """

    spec: AlgebraSpec
    omega: np.ndarray

    def __post_init__(self):
        d = self.spec.ambient_dim
        omega = np.asarray(self.omega, dtype=complex)
        if omega.shape != (d, d):
            raise ValueError(f"one-form coefficients must be {d}x{d}, got {omega.shape}")
        object.__setattr__(self, "omega", omega)

    @classmethod
    def from_pairs(cls, spec: AlgebraSpec, pairs) -> "UniversalOneForm":
        """
        sum_j x_j d(y_j) for finite x_j, y_j in ``spec``:
        omega = X^T Y - vec(sum_j x_j y_j) vec(1)^T, the x_j and y_j being the
        rows of X and Y.
        """
        flat = [e for pair in _coerce_pairs(pairs) for e in pair]
        finite = [bool(np.isfinite(e.vec()).all()) for e in flat]
        if not all(finite):
            raise ValueError(f"pair {finite.index(False) // 2} has non-finite entries")
        outside = spec.first_outside(flat)
        if outside is not None:
            raise ValueError(f"pair {outside // 2} is not in the algebra")
        xs, ys = _stacked(spec.summands, flat[0::2]), _stacked(spec.summands, flat[1::2])
        xy = np.concatenate([np.einsum("jab,jbc->ac", x, y).ravel() for x, y in zip(xs, ys)])
        x, y = (
            np.concatenate([b.reshape(-1, b.shape[1] ** 2) for b in s], axis=1) for s in (xs, ys)
        )
        return cls(spec, x.T @ y - np.outer(xy, spec.unit().vec()))

    @property
    def pairs(self) -> tuple:
        """
        Pairs (sum_k c_kl b_k, b_l) over the spanning set b of ``spec``, with
        c = B^+ omega (B^+)^T for B the matrix of columns b_k: their x (x) y sum
        to omega, and their products sum to m(omega) = 0.
        """
        basis = spanning_set(self.spec)
        rows = np.array([b.vec() for b in basis])
        inv = np.linalg.pinv(rows.T)
        c = inv @ self.omega @ inv.T
        return tuple(zip(self.spec.from_coords(c.T @ rows), basis))

    def __add__(self, other: "UniversalOneForm") -> "UniversalOneForm":
        return UniversalOneForm(self.spec, self.omega + other.omega)


def one_form_scale(z, w: UniversalOneForm) -> UniversalOneForm:
    return UniversalOneForm(w.spec, complex(z) * w.omega)


def one_form_lmul(a: AlgebraElement, w: UniversalOneForm) -> UniversalOneForm:
    """Left module action a . (x d(y)) = (ax) d(y): omega -> (a (x) 1) omega."""
    return UniversalOneForm(w.spec, _mult_map(w.spec.summands, a, left=True) @ w.omega)


def one_form_rmul(w: UniversalOneForm, c: AlgebraElement) -> UniversalOneForm:
    """Right module action (x d(y)) c = x d(yc) - (xy) d(c): omega -> omega (1 (x) c)."""
    return UniversalOneForm(w.spec, w.omega @ _mult_map(w.spec.summands, c, left=False))


def one_form_star(w: UniversalOneForm) -> UniversalOneForm:
    """
    The involution determined by rep(w*) = rep(w)^dagger for every triple,
    (x d(y))* = y* d(x*) - d(y* x*).  On A (x) A it is a (x) b -> b* (x) a*:
    omega -> conj(omega)^T with the matrix units of both factors transposed.
    """
    perm = _unit_transpose(w.spec.summands)
    return UniversalOneForm(w.spec, np.conj(w.omega[np.ix_(perm, perm)]).T)


def one_form_cf(spec: AlgebraSpec, w: UniversalOneForm) -> np.ndarray:
    """The coefficients omega of w (see :class:`UniversalOneForm`), over ``spec``'s summands."""
    if w.spec.summands != spec.summands:
        raise ValueError("element does not match the algebra")
    return w.omega


def random_one_form(spec: AlgebraSpec, rng: np.random.Generator, n_pairs: int = 2) -> UniversalOneForm:
    """A random self-adjoint one-form, built as w + w* from random pairs."""
    pairs = [(random_element(spec, rng), random_element(spec, rng)) for _ in range(n_pairs)]
    w = UniversalOneForm.from_pairs(spec, pairs)
    return w + one_form_star(w)


# ---------------------------------------------------------------------------
# The semigroup


@dataclass(frozen=True, eq=False)
class PertElement:
    """
    Normalized self-adjoint element of A (x) A^op, stored as pairs (a_j, b_j).

    Construction checks membership of every entry in the algebra,
    normalization sum_j a_j b_j = 1, and invariance under the flip involution
    at canonical-form level.  ``validate=False`` skips the checks (used for
    deliberately broken inputs in diagnostics).
    """

    spec: AlgebraSpec
    pairs: tuple
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        object.__setattr__(self, "pairs", _coerce_pairs(self.pairs))
        if not self.pairs:
            raise ValueError("a perturbation needs at least one pair")
        if validate:
            self._validate()

    def _validate(self, tol: float = 1e-9):
        outside = self.spec.first_outside([e for pair in self.pairs for e in pair])
        if outside is not None:
            raise ValueError(f"pair {outside // 2} is not in the algebra")
        total = self.pairs[0][0] * self.pairs[0][1]
        for a, b in self.pairs[1:]:
            total = total + a * b
        defect = (total - self.spec.unit()).norm()
        if defect > tol * max(1.0, total.norm()):
            raise ValueError("perturbation is not normalized: sum a_j b_j != 1")
        cf = _cf_of_pairs(self.spec.summands, self.pairs)
        cf_flip = _cf_of_pairs(
            self.spec.summands, [(b.star(), a.star()) for a, b in self.pairs]
        )
        if not approx_eq(cf, cf_flip, tol):
            raise ValueError("perturbation is not self-adjoint under the flip involution")


def canonical_form(p: PertElement) -> np.ndarray:
    return _cf_of_pairs(p.spec.summands, p.pairs)


def star_swap(p: PertElement) -> PertElement:
    """The flip involution sum a (x) b -> sum b* (x) a*."""
    return PertElement(p.spec, tuple((b.star(), a.star()) for a, b in p.pairs))


def symmetrize(p: PertElement) -> PertElement:
    """(p + star_swap(p)) / 2; a projection onto the flip-invariant part."""
    half = tuple((0.5 * a, b) for a, b in p.pairs)
    flip = tuple((0.5 * b.star(), a.star()) for a, b in p.pairs)
    return PertElement(p.spec, half + flip)


def pert_mul(x: PertElement, y: PertElement) -> PertElement:
    """
    Semigroup product (x as the left factor):
    (a (x) b)(c (x) d) = ac (x) db, extended bilinearly.
    """
    if x.spec is not y.spec and x.spec.summands != y.spec.summands:
        raise ValueError("cannot multiply perturbations over different algebras")
    pairs = tuple(
        (xa * ya, yb * xb) for xa, xb in x.pairs for ya, yb in y.pairs
    )
    return PertElement(x.spec, pairs)


def from_unitary(spec: AlgebraSpec, u: AlgebraElement, tol: float = 1e-9) -> PertElement:
    """The perturbation u (x) u* attached to a unitary u in A."""
    if not spec.contains(u):
        raise ValueError("unitary is not in the algebra")
    prod = (u * u.star()).vec()
    unit = spec.unit().vec()
    if np.linalg.norm(prod - unit) > tol * max(1.0, float(np.linalg.norm(unit))):
        raise ValueError("element is not unitary")
    return PertElement(spec, ((u, u.star()),))


def gauge_transform(p: PertElement, u: AlgebraElement) -> PertElement:
    """Left translation of p by the unitary perturbation u (x) u*."""
    return pert_mul(from_unitary(p.spec, u), p)


def random_pert(
    spec: AlgebraSpec, rng: np.random.Generator, n_pairs: int = 3
) -> PertElement:
    """
    Random perturbation: random pairs, a prepended normalizer (1 - sum xy, 1)
    (invisible to the one-form image since d(1) = 0), then symmetrization.
    """
    raw = [
        (random_element(spec, rng), random_element(spec, rng)) for _ in range(n_pairs)
    ]
    total = raw[0][0] * raw[0][1]
    for a, b in raw[1:]:
        total = total + a * b
    pairs = [(spec.unit() - total, spec.unit())] + raw
    return symmetrize(PertElement(spec, tuple(pairs), validate=False))


# ---------------------------------------------------------------------------
# From perturbations to one-forms and back


def eta_one_form(p: PertElement) -> UniversalOneForm:
    """eta(p) = sum_j a_j d(b_j)."""
    return UniversalOneForm.from_pairs(p.spec, p.pairs)


def normalize_one_form(spec: AlgebraSpec, w: UniversalOneForm) -> PertElement:
    """
    Section of eta: the pairs of w, whose products sum to 0, behind the
    normalizer (1, 1), then symmetrized.  For self-adjoint w the image maps
    back to w under eta; in general one gets the symmetrization of w.
    """
    return symmetrize(PertElement(spec, ((spec.unit(),) * 2,) + w.pairs, validate=False))


# ---------------------------------------------------------------------------
# Fluctuations


def _represented_pairs(t: FiniteSpectralTriple, pairs, hatted: bool = False):
    """
    pi (or hat o pi) of the left and of the right entries of the pairs, as two
    stacks read from the triple's tables; hat o pi takes the conjugated
    coordinates.
    """
    if any(tuple(b.shape[0] for b in e.blocks) != t.algebra.summands for p in pairs for e in p):
        raise ValueError("element does not match the triple's algebra")
    table = t.pi_hat_table if hatted else t.pi_table
    coords = np.array([[x.vec(), y.vec()] for x, y in pairs]).reshape(-1, 2, len(table))
    reps = np.tensordot(np.conj(coords) if hatted else coords, table, 1)
    return reps[:, 0], reps[:, 1]


def _leg_weights(t: FiniteSpectralTriple, omega: np.ndarray, hatted: bool = False):
    """
    The stack over beta of W_beta = sum_alpha omega[..., alpha, beta] rho(e_alpha),
    and rho, for rho = pi or, when ``hatted``, the antilinear hat o pi.
    """
    rho = t.pi_hat_table if hatted else t.pi_table
    coeffs = np.conj(omega) if hatted else omega
    return np.moveaxis(np.tensordot(coeffs, rho, axes=(-2, 0)), -3, 0), rho


def _act(t: FiniteSpectralTriple, omega: np.ndarray, base: np.ndarray, hatted: bool = False):
    """
    sum_beta W_beta base rho(e_beta), which is sum_j rho(x_j) [base, rho(y_j)]
    for omega = one_form_cf(sum_j x_j d(y_j)) since rho is a unital homomorphism.
    """
    weights, rho = _leg_weights(t, omega, hatted)
    return (weights @ base @ rho).sum(axis=0)


def a1(t: FiniteSpectralTriple, w: UniversalOneForm) -> np.ndarray:
    """Represented one-form sum_j pi(x_j) [D, pi(y_j)]."""
    return _act(t, one_form_cf(t.algebra, w), t.d)


def a2_with(t: FiniteSpectralTriple, w: UniversalOneForm, base: np.ndarray) -> np.ndarray:
    """Second-order term sum_j hat(pi(x_j)) [base, hat(pi(y_j))]."""
    return _act(t, one_form_cf(t.algebra, w), base, hatted=True)


def fluctuate(t: FiniteSpectralTriple, w: UniversalOneForm, tol: float = 1e-9) -> np.ndarray:
    """
    D + A_1 + eps_d J A_1 J^{-1} + A_2 for a one-form with self-adjoint A_1.

    The self-adjointness of the represented one-form is a precondition (it
    holds automatically for eta of any valid perturbation) and is enforced.
    """
    pot = a1(t, w)
    if frob_norm(pot - adjoint(pot)) > tol * max(1.0, frob_norm(pot)):
        raise ValueError("represented one-form is not self-adjoint")
    return t.d + pot + t.signs.eps_d * t.hat(pot) + a2_with(t, w, pot)


@dataclass(frozen=True, eq=False)
class RepresentedPert:
    """
    The map D -> sum_t L_t D R_t on B(H), stored as two stacks ``lefts`` and
    ``rights`` of shape (T, N, N) holding L_t and R_t; ``pairs`` views them
    as the T pairs (L_t, R_t).
    """

    lefts: np.ndarray
    rights: np.ndarray

    @property
    def pairs(self) -> tuple:
        return tuple(zip(self.lefts, self.rights))

    def apply(self, d: np.ndarray) -> np.ndarray:
        """sum_t L_t d R_t: the canonical form on the row-major vector of d."""
        d = np.asarray(d, dtype=complex)
        return (self.canonical_form() @ d.reshape(-1)).reshape(d.shape)

    def canonical_form(self) -> np.ndarray:
        """Matrix of X -> sum_t L_t X R_t on row-major vectorized operators."""
        n = self.lefts.shape[-1]
        cf = np.einsum("tab,tdc->acbd", self.lefts, self.rights, optimize=True)
        return cf.reshape(n * n, n * n)

    def mul(self, other: "RepresentedPert") -> "RepresentedPert":
        """Composition, self after other: the pairs (L_s L_t, R_t R_s), s outer."""
        n = self.lefts.shape[-1]
        lefts = self.lefts[:, None] @ other.lefts[None]
        rights = other.rights[None] @ self.rights[:, None]
        return RepresentedPert(lefts.reshape(-1, n, n), rights.reshape(-1, n, n))


def mu(t: FiniteSpectralTriple, p: PertElement) -> RepresentedPert:
    """
    Doubling homomorphism into Pert(B(H)):
    mu(p) = sum_{i,j} pi(a_i) hat(pi(a_j)) (x) pi(b_i) hat(pi(b_j)).
    """
    ra, rb = _represented_pairs(t, p.pairs)
    ha, hb = _represented_pairs(t, p.pairs, hatted=True)
    n = t.dim_h
    lefts = (ra[:, None] @ ha[None]).reshape(-1, n, n)
    rights = (rb[:, None] @ hb[None]).reshape(-1, n, n)
    return RepresentedPert(lefts, rights)


def fluctuate_combined(t: FiniteSpectralTriple, p: PertElement) -> np.ndarray:
    """Inner fluctuation of D by p through the doubling action."""
    return mu(t, p).apply(t.d)


def check_transitivity(t: FiniteSpectralTriple, p: PertElement, q: PertElement) -> float:
    """
    Relative defect of (D_p)_q = D_{q p}: fluctuating twice must agree with
    fluctuating once by the semigroup product.
    """
    lhs = mu(t, q).apply(fluctuate_combined(t, p))
    rhs = fluctuate_combined(t, pert_mul(q, p))
    return frob_norm(lhs - rhs) / max(1.0, frob_norm(rhs))

"""
Perturbation semigroup and universal one-forms over a multimatrix algebra.

A perturbation is a finite sum  sum_j a_j (x) b_j  in A (x) A^op that is
normalized, sum_j a_j b_j = 1, and fixed under the flip involution
sum_j a_j (x) b_j  ->  sum_j b_j* (x) a_j*.  These form a semigroup under the
product of A (x) A^op, and they act on Dirac operators by

    D  ->  sum_{i,j} pi(a_i) hat(pi(a_j)) D pi(b_i) hat(pi(b_j)),

which reproduces D + A_1 + eps_d J A_1 J^{-1} + A_2 with A_1 the represented
one-form and A_2 the quadratic correction term.

Sums of pairs are compared through faithful images, never on the raw pair
lists, which are free to contain redundant terms: a perturbation through its
canonical form, the block-diagonal matrix of A (x) A^op over ordered pairs of
summands whose matrix product is the semigroup product, and a one-form through
its coefficients omega in A (x) A (:func:`one_form_cf`), from which A_1 and
A_2 are read with the triple's tables.
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
)

__all__ = [
    "PertElement",
    "RepresentedPert",
    "UniversalOneForm",
    "a1",
    "a2",
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


def _unit_like(e: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(tuple(identity(b.shape[0]) for b in e.blocks))


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


@dataclass(frozen=True, eq=False)
class UniversalOneForm:
    """
    Finite sum  sum_j x_j d(y_j)  of universal one-forms, kept as raw pairs.

    No relations are imposed on the pair list; two sums are equal as
    universal forms exactly when :func:`one_form_cf` agrees, since
    x d(y) -> x (x) y - xy (x) 1 embeds the one-forms faithfully in A (x) A.
    """

    pairs: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairs", _coerce_pairs(self.pairs))

    def __add__(self, other: "UniversalOneForm") -> "UniversalOneForm":
        return UniversalOneForm(self.pairs + other.pairs)


def one_form_scale(z, w: UniversalOneForm) -> UniversalOneForm:
    return UniversalOneForm(tuple((complex(z) * x, y) for x, y in w.pairs))


def one_form_lmul(a: AlgebraElement, w: UniversalOneForm) -> UniversalOneForm:
    """Left module action a . (x d(y)) = (ax) d(y)."""
    return UniversalOneForm(tuple((a * x, y) for x, y in w.pairs))


def one_form_rmul(w: UniversalOneForm, c: AlgebraElement) -> UniversalOneForm:
    """Right module action via Leibniz: (x d(y)) c = x d(yc) - (xy) d(c)."""
    out = []
    for x, y in w.pairs:
        out.append((x, y * c))
        out.append(((-1.0) * (x * y), c))
    return UniversalOneForm(tuple(out))


def one_form_star(w: UniversalOneForm) -> UniversalOneForm:
    """
    The involution determined by rep(w*) = rep(w)^dagger for every triple:
    (x d(y))* = y* d(x*) - d(y* x*).
    """
    out = []
    for x, y in w.pairs:
        ys, xs = y.star(), x.star()
        out.append((ys, xs))
        out.append(((-1.0) * _unit_like(x), ys * xs))
    return UniversalOneForm(tuple(out))


def one_form_cf(spec: AlgebraSpec, w: UniversalOneForm) -> np.ndarray:
    """
    Coefficients of w in A (x) A via x d(y) -> x (x) y - xy (x) 1, as the d x d
    matrix omega = X^T Y - vec(sum_j x_j y_j) vec(1)^T over the ambient matrix
    units (``AlgebraElement.vec()`` order, rows for the first factor; the x_j and
    y_j are the rows of X and Y).  Equal omegas are equal universal one-forms.
    """
    xs = _stacked(spec.summands, [x for x, _ in w.pairs])
    ys = _stacked(spec.summands, [y for _, y in w.pairs])
    xy = np.concatenate([np.einsum("jab,jbc->ac", x, y).ravel() for x, y in zip(xs, ys)])
    x, y = (np.concatenate([b.reshape(-1, b.shape[1] ** 2) for b in s], axis=1) for s in (xs, ys))
    return x.T @ y - np.outer(xy, spec.unit().vec())


def random_one_form(spec: AlgebraSpec, rng: np.random.Generator, n_pairs: int = 2) -> UniversalOneForm:
    """A random self-adjoint one-form, built as w + w* from random pairs."""
    pairs = tuple(
        (random_element(spec, rng), random_element(spec, rng)) for _ in range(n_pairs)
    )
    w = UniversalOneForm(pairs)
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
    return UniversalOneForm(p.pairs)


def normalize_one_form(spec: AlgebraSpec, w: UniversalOneForm) -> PertElement:
    """
    Section of eta: prepend the normalizer (1 - sum x_j y_j, 1), then
    symmetrize.  For self-adjoint w the image maps back to w under eta
    (the flipped normalizer contributes d(1 - s*) which cancels the
    d(sum y* x*) term of w*); in general one gets the symmetrization of w.
    """
    if not w.pairs:
        return PertElement(spec, ((spec.unit(), spec.unit()),))
    total = w.pairs[0][0] * w.pairs[0][1]
    for x, y in w.pairs[1:]:
        total = total + x * y
    pairs = ((spec.unit() - total, spec.unit()),) + w.pairs
    return symmetrize(PertElement(spec, pairs, validate=False))


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


def a2(t: FiniteSpectralTriple, w: UniversalOneForm) -> np.ndarray:
    return a2_with(t, w, a1(t, w))


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

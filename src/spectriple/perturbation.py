"""
Perturbation semigroup and universal one-forms over a multimatrix algebra.

A perturbation is a finite sum  sum_j a_j (x) b_j  in A (x) A^op that is
normalized, sum_j a_j b_j = 1, and fixed under the flip involution
sum_j a_j (x) b_j  ->  sum_j b_j* (x) a_j*.  These form a semigroup under the
product of A (x) A^op, and they act on Dirac operators by

    D  ->  sum_{i,j} pi(a_i) hat(pi(a_j)) D pi(b_i) hat(pi(b_j)),

which is D + A_1 + eps_d J A_1 J^{-1} + A_2 (A_1 the represented one-form, A_2 the
quadratic term); order zero makes it S_pi o S_hat, two legs of dim A terms (``mu``).

Perturbations (:class:`PertElement`) and universal one-forms
(:class:`UniversalOneForm`) are stored as their coefficients: d x d matrices
over the ambient matrix units, whatever the number of pairs they came from.
The product, the flip, normalization, eta, the module actions and the star are
fixed linear maps on them; the canonical form (block-diagonal over ordered
pairs of summands, multiplied by the semigroup product) rearranges them.  All
read one cached table (:func:`_tables`); the random draws share one pair draw.
``PertElement.from_pairs`` reads pairs, and ``pairs`` gives dim A pairs back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .matrix_core import _SEMIGROUP_TOL, _relative_defect, _within
from .matrix_core import adjoint, approx_eq, frob_norm
from .spectral_triple import (
    AlgebraElement,
    AlgebraSpec,
    FiniteSpectralTriple,
    _random_coords,
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
    "one_form_star",
    "pert_mul",
    "random_one_form",
    "random_pert",
    "symmetrize",
]


# ---------------------------------------------------------------------------
# Coefficients in A (x) A: the fixed maps


def _pair_coeffs(spec: AlgebraSpec, pairs) -> np.ndarray:
    """
    X^T Y = sum_j vec(x_j) vec(y_j)^T for finite x_j, y_j in ``spec``, the
    rows of X and Y.
    """
    flat = [e for x, y in pairs for e in (x, y)]
    vecs = [e.vec() for e in flat]
    finite = [bool(np.isfinite(v).all()) for v in vecs]
    if not all(finite):
        raise ValueError(f"pair {finite.index(False) // 2} has non-finite entries")
    d = spec.ambient_dim
    fits = np.array([tuple(b.shape[0] for b in e.blocks) == spec.summands for e in flat], bool)
    v = np.array([x if ok else np.zeros(d) for x, ok in zip(vecs, fits)], complex).reshape(-1, d)
    outside = np.flatnonzero(~fits | spec.outside(v))
    if outside.size:
        raise ValueError(f"pair {outside[0] // 2} is not in the algebra")
    v = v.reshape(-1, 2, d)
    return v[:, 0].T @ v[:, 1]


class _Table(NamedTuple):
    """The fixed data of M_{n_1} + ... + M_{n_k} over its matrix units e_a, read-only."""

    unit: np.ndarray  # (d,) coordinates of 1
    perm: np.ndarray  # (d,) e_ij -> e_ji, summand by summand
    mult: np.ndarray  # (d, d, d): e_a e_b = sum_g mult[a, b, g] e_g
    cf: np.ndarray  # (d^2,) canonical-form block (i, k) [(a, c), (b, d)] is P[(i, a, b), (k, d, c)]


@lru_cache(maxsize=None)
def _tables(summands: tuple) -> _Table:
    """The :class:`_Table` of the summands, built once per tuple."""
    offsets = np.cumsum((0,) + tuple(n * n for n in summands))
    side, dim, start = sum(summands) ** 2, offsets[-1], 0
    unit, perm, mult = np.zeros(dim, complex), np.empty(dim, np.intp), np.zeros((dim,) * 3, complex)
    pos = np.empty((dim, dim), dtype=np.intp)
    for oi, ni in zip(offsets, summands):
        units = oi + np.arange(ni * ni).reshape(ni, ni)
        unit[units.diagonal()], perm[units] = 1, units.T
        a, b, c = np.ogrid[:ni, :ni, :ni]
        mult[units[a, b], units[b, c], units[a, c]] = 1  # e_ab e_bc = e_ac
        for ok, nk in zip(offsets, summands):
            a, b, d, c = np.ogrid[:ni, :ni, :nk, :nk]
            pos[units[a, b], ok + d * nk + c] = (start + a * nk + c) * side + start + b * nk + d
            start += ni * nk
    for t in (unit, perm, mult, pos):
        t.setflags(write=False)
    return _Table(unit, perm, mult, pos.ravel())


def _product_sum(summands, m: np.ndarray) -> np.ndarray:
    """m(sum x (x) y) = vec(sum x y): m[..., a, b] times e_a e_b, one product with the table."""
    return m.reshape(m.shape[:-2] + (-1,)) @ _tables(summands).mult.reshape(-1, m.shape[-1])


def _eta(spec: AlgebraSpec, m: np.ndarray) -> np.ndarray:
    """sum x (x) y  ->  sum x (x) y - (sum x y) (x) 1, the image of sum x d(y), on m[..., :, :]."""
    return m - _product_sum(spec.summands, m)[..., None] * _tables(spec.summands).unit


def _flip(summands, m: np.ndarray) -> np.ndarray:
    """a (x) b -> b* (x) a*: conj(m[..., :, :])^T with the units e_ij -> e_ji in both factors."""
    perm = _tables(summands).perm
    return np.conj(m[..., perm[:, None], perm]).swapaxes(-1, -2)


def _view_coords(spec: AlgebraSpec, m: np.ndarray):
    """
    Rows of the first and second entries of the pairs (sum_k c_kl b_k, b_l)
    over the spanning set b, c = B^+ m (B^+)^T: their x (x) y sum to m.
    """
    rows, inv = spec.span_coords()
    return (inv @ m @ inv.T).T @ rows, rows


def _pairs_view(spec: AlgebraSpec, m: np.ndarray) -> tuple:
    left, right = _view_coords(spec, m)
    return tuple(zip(spec.from_coords(left), spec.from_coords(right)))


def _coefficients(spec: AlgebraSpec, m, what: str) -> np.ndarray:
    d = spec.ambient_dim
    m = np.asarray(m, dtype=complex)
    if m.shape != (d, d):
        raise ValueError(f"{what} coefficients must be {d}x{d}, got {m.shape}")
    return m


# ---------------------------------------------------------------------------
# Universal one-forms


def _mult_tensor(summands: tuple, left: bool) -> np.ndarray:
    """Read-only (d, d, d): slice alpha is :func:`_mult_map` of the ambient matrix unit e_alpha."""
    return _tables(summands).mult.transpose((0, 2, 1) if left else (1, 0, 2))


def _mult_map(summands, a: AlgebraElement, left: bool) -> np.ndarray:
    """x -> ax on column coordinate vectors (``left``), or x -> xa on row vectors."""
    if tuple(len(b) for b in a.blocks) != tuple(summands):
        raise ValueError("element does not match the algebra")
    return np.tensordot(a.vec(), _mult_tensor(tuple(summands), left), 1)


@dataclass(frozen=True, eq=False)
class UniversalOneForm:
    """
    A universal one-form over ``spec``, stored as its faithful image in A (x) A:

        sum_j x_j d(y_j)  ->  omega = sum_j x_j (x) y_j - x_j y_j (x) 1,

    the d x d matrix over the ambient matrix units (``AlgebraElement.vec()``
    order, rows for the first factor).  Two forms are equal exactly when their
    omegas are.  ``pairs`` gives pairs back, over the spanning set of ``spec``.
    """

    spec: AlgebraSpec
    omega: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omega", _coefficients(self.spec, self.omega, "one-form"))

    @property
    def pairs(self) -> tuple:
        """dim A pairs over the spanning set whose x (x) y sum to omega (so sum xy = 0)."""
        return _pairs_view(self.spec, self.omega)

    def __add__(self, other: "UniversalOneForm") -> "UniversalOneForm":
        return UniversalOneForm(self.spec, self.omega + other.omega)


def one_form_lmul(a: AlgebraElement, w: UniversalOneForm) -> UniversalOneForm:
    """Left module action a . (x d(y)) = (ax) d(y): omega -> (a (x) 1) omega."""
    return UniversalOneForm(w.spec, _mult_map(w.spec.summands, a, left=True) @ w.omega)


def one_form_rmul(w: UniversalOneForm, c: AlgebraElement) -> UniversalOneForm:
    """Right module action (x d(y)) c = x d(yc) - (xy) d(c): omega -> omega (1 (x) c)."""
    return UniversalOneForm(w.spec, w.omega @ _mult_map(w.spec.summands, c, left=False))


def one_form_star(w: UniversalOneForm) -> UniversalOneForm:
    """
    The involution determined by rep(w*) = rep(w)^dagger for every triple,
    (x d(y))* = y* d(x*) - d(y* x*).  On A (x) A it is the flip
    a (x) b -> b* (x) a*.
    """
    return UniversalOneForm(w.spec, _flip(w.spec.summands, w.omega))


def one_form_cf(spec: AlgebraSpec, w: UniversalOneForm) -> np.ndarray:
    """The coefficients omega of w (see :class:`UniversalOneForm`), over ``spec``'s summands."""
    if w.spec.summands != spec.summands:
        raise ValueError("element does not match the algebra")
    return w.omega


def _random_pairs_form(spec: AlgebraSpec, rng, n_pairs: int, shape: tuple = ()) -> np.ndarray:
    """omega of sum_j x_j d(y_j) over n_pairs random pairs per entry of ``shape``, one rng call."""
    pairs = _random_coords(spec, rng, shape + (n_pairs, 2))
    x, y = pairs[..., 0, :], pairs[..., 1, :]  # (*shape, pairs, d) each
    return _eta(spec, x.swapaxes(-1, -2) @ y)


def random_one_form(spec: AlgebraSpec, rng: np.random.Generator) -> UniversalOneForm:
    """A random self-adjoint one-form, built as w + w* from two random pairs."""
    omega = _random_pairs_form(spec, rng, 2)
    return UniversalOneForm(spec, omega + _flip(spec.summands, omega))


# ---------------------------------------------------------------------------
# The semigroup


@dataclass(frozen=True, eq=False)
class PertElement:
    """
    An element of A (x) A^op over ``spec``, stored as its coefficients
    P = sum_j vec(a_j) vec(b_j)^T over the ambient matrix units (rows for the
    first factor, as ``UniversalOneForm.omega``).  :meth:`from_pairs` builds
    one from pairs and checks that it is a perturbation; ``pairs`` gives pairs
    back, over the spanning set of ``spec``.
    """

    spec: AlgebraSpec
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _coefficients(self.spec, self.coeffs, "perturbation"))

    @classmethod
    def from_pairs(cls, spec: AlgebraSpec, pairs) -> "PertElement":
        """sum_j a_j (x) b_j for finite a_j, b_j in ``spec``, checked by :func:`_checked_pert`."""
        return _checked_pert(cls(spec, _pair_coeffs(spec, pairs)))

    @property
    def pairs(self) -> tuple:
        """dim A pairs over the spanning set whose a (x) b sum to the coefficients."""
        return _pairs_view(self.spec, self.coeffs)


def _checked_pert(p: PertElement) -> PertElement:
    """p, once m(P) = sum_j a_j b_j = 1 and P = flip(P) hold (``_SEMIGROUP_TOL``), or ValueError."""
    total = _product_sum(p.spec.summands, p.coeffs)
    defect, norm = frob_norm(total - _tables(p.spec.summands).unit), frob_norm(total)
    if not _within(defect, _SEMIGROUP_TOL, norm, "the norm of sum a_j b_j"):
        raise ValueError("perturbation is not normalized: sum a_j b_j != 1")
    if not approx_eq(p.coeffs, _flip(p.spec.summands, p.coeffs), _SEMIGROUP_TOL):
        raise ValueError("perturbation is not self-adjoint under the flip involution")
    return p


def canonical_form(p: PertElement) -> np.ndarray:
    """The block-diagonal matrix of p in A (x) A^op, a rearrangement of its coefficients."""
    side = sum(p.spec.summands) ** 2
    cf = np.zeros(side * side, dtype=complex)
    cf[_tables(p.spec.summands).cf] = p.coeffs.ravel()
    return cf.reshape(side, side)


def symmetrize(p: PertElement) -> PertElement:
    """(p + flip(p)) / 2 for the flip sum a (x) b -> sum b* (x) a*: onto the invariant part."""
    return PertElement(p.spec, 0.5 * (p.coeffs + _flip(p.spec.summands, p.coeffs)))


def pert_mul(x: PertElement, y: PertElement) -> PertElement:
    """
    Semigroup product (x as the left factor), (a (x) b)(c (x) d) = ac (x) db:
    the product of the canonical forms, read back as coefficients.
    """
    if x.spec is not y.spec and x.spec.summands != y.spec.summands:
        raise ValueError("cannot multiply perturbations over different algebras")
    prod = canonical_form(x) @ canonical_form(y)
    return PertElement(x.spec, prod.ravel()[_tables(x.spec.summands).cf].reshape(x.coeffs.shape))


def from_unitary(spec: AlgebraSpec, u: AlgebraElement) -> PertElement:
    """The perturbation u (x) u* attached to a unitary u in A (to ``_SEMIGROUP_TOL``)."""
    p = PertElement(spec, _pair_coeffs(spec, ((u, u.star()),)))
    unit = _tables(spec.summands).unit
    defect = frob_norm(_product_sum(spec.summands, p.coeffs) - unit)
    if not _within(defect, _SEMIGROUP_TOL, frob_norm(unit)):
        raise ValueError("element is not unitary")
    return p


def gauge_transform(p: PertElement, u: AlgebraElement) -> PertElement:
    """Left translation of p by the unitary perturbation u (x) u*."""
    return pert_mul(from_unitary(p.spec, u), p)


def random_pert(spec: AlgebraSpec, rng: np.random.Generator) -> PertElement:
    """
    Three random pairs behind the normalizer (1 - sum xy) (x) 1, symmetrized: the
    section normalize_one_form of the one-form of the pairs.
    """
    return normalize_one_form(spec, UniversalOneForm(spec, _random_pairs_form(spec, rng, 3)))


# ---------------------------------------------------------------------------
# From perturbations to one-forms and back


def eta_one_form(p: PertElement) -> UniversalOneForm:
    """eta(p) = sum_j a_j d(b_j): P - m(P) (x) 1."""
    return UniversalOneForm(p.spec, _eta(p.spec, p.coeffs))


def normalize_one_form(spec: AlgebraSpec, w: UniversalOneForm) -> PertElement:
    """
    Section of eta: omega + 1 (x) 1, then symmetrized.  For self-adjoint w the
    image maps back to w under eta; in general one gets the symmetrization of w.
    """
    unit = _tables(spec.summands).unit
    return symmetrize(PertElement(spec, w.omega + np.outer(unit, unit)))


# ---------------------------------------------------------------------------
# Fluctuations


def _leg_weights(t: FiniteSpectralTriple, omega: np.ndarray, hatted: bool = False):
    """
    The stack over beta of W_beta = sum_alpha omega[..., alpha, beta] rho(e_alpha), laid out
    (..., beta, N, N), and rho, for rho = pi or, when ``hatted``, the antilinear hat o pi.
    """
    return t.rep(np.swapaxes(omega, -1, -2), hatted), t.pi_hat_table if hatted else t.pi_table


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


def fluctuate(t: FiniteSpectralTriple, w: UniversalOneForm) -> np.ndarray:
    """
    D + A_1 + eps_d J A_1 J^{-1} + A_2 for a one-form with self-adjoint A_1: a precondition,
    automatic for eta of a valid perturbation, enforced to ``_SEMIGROUP_TOL``.
    """
    pot = a1(t, w)
    if not _within(frob_norm(pot - adjoint(pot)), _SEMIGROUP_TOL, frob_norm(pot), "A_1's norm"):
        raise ValueError("represented one-form is not self-adjoint")
    return t.d + pot + t.signs.eps_d * t.hat(pot) + a2_with(t, w, pot)


@dataclass(frozen=True, eq=False)
class RepresentedPert:
    """
    S_0 o S_1 on B(H), S_k(D) = sum_t L_kt D R_kt, stored as stacks ``lefts`` and ``rights``
    (2, T, N, N) of the L_kt and R_kt: the pi leg (k = 0) and the hat leg (k = 1) of :func:`mu`.
    ``pairs`` views them as the T^2 pairs (L_0s L_1t, R_0s R_1t).
    """

    lefts: np.ndarray
    rights: np.ndarray

    @property
    def pairs(self) -> tuple:
        (l0, l1), (r0, r1), n = self.lefts, self.rights, self.lefts.shape[-1]
        return tuple(zip((l0[:, None] @ l1[None]).reshape(-1, n, n),
                         (r0[:, None] @ r1[None]).reshape(-1, n, n)))

    def apply(self, d: np.ndarray) -> np.ndarray:
        """S_0(S_1(d)): the hat leg first."""
        (l0, l1), (r0, r1) = self.lefts, self.rights
        return (l0 @ (l1 @ d @ r1).sum(axis=0) @ r0).sum(axis=0)

    def canonical_form(self) -> np.ndarray:
        """Matrix of :meth:`apply` on row-major vectors: one product per leg, rearranged, multiplied."""
        k, t, n = self.lefts.shape[:3]
        cf = self.lefts.reshape(k, t, n * n).swapaxes(1, 2) @ self.rights.reshape(k, t, n * n)
        cf = cf.reshape(k, n, n, n, n).transpose(0, 1, 4, 2, 3).reshape(k, n * n, n * n)
        return cf[0] @ cf[1]  # each leg [(a, b), (d, c)] read as [(a, c), (b, d)]


def mu(t: FiniteSpectralTriple, p: PertElement) -> RepresentedPert:
    """
    Doubling homomorphism into Pert(B(H)): S_pi o S_hat, S_rho(D) = sum_i rho(a_i) D rho(b_i)
    over the dim A pairs of ``_view_coords`` (their a (x) b sum to P), with pi and hat o pi
    read from the triple's tables.  Order zero makes the legs commute, so this is the sum
    of pi(a_i) hat(pi(a_j)) (x) pi(b_i) hat(pi(b_j)) over i, j; on a ``validate=False``
    triple that breaks order zero it is still S_pi o S_hat, which is not that sum.
    """
    if p.spec.summands != t.algebra.summands:
        raise ValueError("element does not match the triple's algebra")
    coords = np.array(_view_coords(p.spec, p.coeffs))
    return RepresentedPert(*np.stack([t.rep(coords), t.rep(coords, hatted=True)], axis=1))


def fluctuate_combined(t: FiniteSpectralTriple, p: PertElement) -> np.ndarray:
    """Inner fluctuation of D by p through the doubling action."""
    return mu(t, p).apply(t.d)


def check_transitivity(t: FiniteSpectralTriple, p: PertElement, q: PertElement) -> float:
    """Relative defect of (D_p)_q = D_{q p}: fluctuating twice against once by the product."""
    lhs = mu(t, q).apply(fluctuate_combined(t, p))
    rhs = fluctuate_combined(t, pert_mul(q, p))
    return _relative_defect(lhs, rhs)

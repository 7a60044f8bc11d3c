"""
The semigroup layer: every structural identity is asserted on canonical
forms (faithful matrix realizations), never on raw pair lists.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from spectriple import (
    AlgebraElement,
    PertElement,
    build_toy,
    canonical_form,
    fluctuate,
    fluctuate_combined,
    from_unitary,
    gauge_transform,
    pert_mul,
    random_pert,
    represent,
)
from spectriple.matrix_core import adjoint, approx_eq, frob_norm, identity
from spectriple.perturbation import (
    UniversalOneForm,
    _eta,
    _flip,
    _mult_map,
    _mult_tensor,
    _pair_coeffs,
    _random_pairs_form,
    _tables,
    a1,
    a2_with,
    check_transitivity,
    eta_one_form,
    mu,
    normalize_one_form,
    one_form_cf,
    one_form_lmul,
    one_form_rmul,
    one_form_star,
    random_one_form,
    symmetrize,
)
from spectriple.spectral_triple import AlgebraSpec, random_element, random_unitary, spanning_set
from spectriple.toy_model import ToyParams, a_ev, a_f
from triples import _bimodule_triple, _multi_triple

SPEC = a_ev()


def _real_triples(toy):
    """The toy and the bimodule triple at eps_d = +1 and -1: where the paper's theorems hold."""
    return toy, _bimodule_triple(+1), _bimodule_triple(-1)


def unit_pert():
    return PertElement.from_pairs(SPEC, ((SPEC.unit(), SPEC.unit()),))


def _zero(spec):
    """The zero element of ``spec``."""
    return spec.from_coords(np.zeros((1, spec.ambient_dim)))[0]


def _form_from_pairs(spec, pairs):
    """sum_j x_j d(y_j) for finite x_j, y_j in ``spec``, through the package's pair kernel."""
    return UniversalOneForm(spec, _eta(spec, _pair_coeffs(spec, pairs)))


def _self_adjoint_form(spec, rng, n_pairs):
    """The draw of ``random_one_form`` over n_pairs pairs: w + w* for the form w of the pairs."""
    w = UniversalOneForm(spec, _random_pairs_form(spec, rng, n_pairs))
    return w + one_form_star(w)


def _norm(a) -> float:
    """The Frobenius norm of an element: that of its coordinates."""
    return float(np.linalg.norm(a.vec()))


def _commutator(a, b):
    """ab - ba, the reference commutator."""
    return a @ b - b @ a


# ---------------------------------------------------------------------------
# Canonical forms and semigroup laws


def test_unit_pert_canonical_form_is_identity():
    # four summand pairs of sizes 2x2 each -> a 16x16 identity
    cf = canonical_form(unit_pert())
    assert cf.shape == (16, 16)
    assert np.array_equal(cf, identity(16))


def test_canonical_form_is_multiplicative(rng):
    p = random_pert(SPEC, rng)
    q = random_pert(SPEC, rng)
    lhs = canonical_form(pert_mul(p, q))
    rhs = canonical_form(p) @ canonical_form(q)
    assert approx_eq(lhs, rhs, 1e-12)


def test_pert_mul_needs_equal_summands_not_one_spec_object(rng):
    one, other = AlgebraSpec((2, 2)), AlgebraSpec((2, 2))
    p, q = random_pert(one, rng), random_pert(one, rng)
    assert np.array_equal(pert_mul(p, PertElement(other, q.coeffs)).coeffs, pert_mul(p, q).coeffs)
    wide = AlgebraSpec((1, 1, 1, 1, 2))  # ambient dimension 8 as well
    with pytest.raises(ValueError, match="different algebras"):
        pert_mul(p, PertElement(wide, q.coeffs))


def test_pert_mul_is_associative(rng):
    p, q, r = (random_pert(SPEC, rng) for _ in range(3))
    lhs = canonical_form(pert_mul(pert_mul(p, q), r))
    rhs = canonical_form(pert_mul(p, pert_mul(q, r)))
    assert approx_eq(lhs, rhs, 1e-12)


def test_unit_pert_is_a_two_sided_identity(rng):
    p = random_pert(SPEC, rng)
    e = unit_pert()
    assert approx_eq(canonical_form(pert_mul(e, p)), canonical_form(p), 1e-12)
    assert approx_eq(canonical_form(pert_mul(p, e)), canonical_form(p), 1e-12)


def test_valid_perts_are_flip_invariant(rng):
    p = random_pert(SPEC, rng)
    flipped = PertElement(SPEC, _flip(SPEC.summands, p.coeffs))
    assert approx_eq(canonical_form(flipped), canonical_form(p), 1e-12)


def test_symmetrize_is_idempotent_on_canonical_forms(rng):
    # normalized but deliberately unsymmetric input (validation skipped)
    a, b = random_element(SPEC, rng), random_element(SPEC, rng)
    raw = PertElement(SPEC, _reference_coeffs(((a, b), (SPEC.unit() - a * b, SPEC.unit()))))
    once = symmetrize(raw)
    twice = symmetrize(once)
    assert approx_eq(canonical_form(once), canonical_form(twice), 1e-12)


def test_validation_rejects_unnormalized_pairs():
    a = AlgebraElement((2.0 * np.eye(2, dtype=complex), np.eye(2, dtype=complex)))
    with pytest.raises(ValueError, match="normalized"):
        PertElement.from_pairs(SPEC, ((a, SPEC.unit()),))


def test_validation_rejects_flip_breaking_pairs(rng):
    # normalized (the second pair patches the sum) but not flip invariant
    a, b = random_element(SPEC, rng), random_element(SPEC, rng)
    pairs = ((a, b), (SPEC.unit() - a * b, SPEC.unit()))
    with pytest.raises(ValueError, match="flip"):
        PertElement.from_pairs(SPEC, pairs)


def test_validation_rejects_foreign_elements():
    off = AlgebraElement(
        (np.array([[0, 1], [0, 0]], dtype=complex), np.zeros((2, 2), dtype=complex))
    )
    with pytest.raises(ValueError, match="not in the algebra"):
        PertElement.from_pairs(SPEC, ((SPEC.unit(), SPEC.unit()), (off, _zero(SPEC))))


def test_from_unitary_requires_a_unitary(rng):
    h = random_element(SPEC, rng)
    with pytest.raises(ValueError, match="unitary"):
        from_unitary(SPEC, h + SPEC.unit())
    u = random_unitary(SPEC, rng)
    cf = canonical_form(from_unitary(SPEC, u))
    assert approx_eq(cf @ adjoint(cf), identity(16), 1e-12)


@pytest.mark.parametrize("spec", [SPEC, AlgebraSpec((1, 3, 2))], ids=["a_ev", "M1+M3+M2"])
def test_from_unitary_extends_the_unitary_group(spec):
    # the perturbations u (x) u* multiply as the unitaries do
    rng = np.random.default_rng(5)
    for _ in range(3):
        u, v = random_unitary(spec, rng), random_unitary(spec, rng)
        product = pert_mul(from_unitary(spec, u), from_unitary(spec, v))
        assert approx_eq(product.coeffs, from_unitary(spec, u * v).coeffs, 1e-12)


# ---------------------------------------------------------------------------
# Universal one-forms


def test_one_form_cf_respects_the_leibniz_relation(rng):
    # d(xy) = x d(y) + d(x) y as realized forms
    x, y = random_element(SPEC, rng), random_element(SPEC, rng)
    unit = SPEC.unit()
    d_xy = _form_from_pairs(SPEC, ((unit, x * y),))
    x_dy = one_form_lmul(x, _form_from_pairs(SPEC, ((unit, y),)))
    dx_y = one_form_rmul(_form_from_pairs(SPEC, ((unit, x),)), y)
    lhs = one_form_cf(SPEC, d_xy)
    rhs = one_form_cf(SPEC, x_dy + dx_y)
    assert approx_eq(lhs, rhs, 1e-12)


def _cf_tensor(spec, a, left: bool):
    """
    Left multiplication by a on the rows of one_form_cf (left), or right
    multiplication by a on its columns (as the matrix acting from the right).
    """
    return block_diag(*(
        np.kron(b, identity(len(b))) if left else np.kron(identity(len(b)), b) for b in a.blocks
    ))


@pytest.mark.parametrize("spec", [SPEC, AlgebraSpec((1, 2, 3))], ids=["toy", "1+2+3"])
@pytest.mark.parametrize("left", [True, False])
def test_mult_map_matches_the_kronecker_reference(spec, left):
    rng = np.random.default_rng(12)
    for a in [spec.unit()] + [random_element(spec, rng) for _ in range(3)]:
        assert np.array_equal(_mult_map(spec.summands, a, left), _cf_tensor(spec, a, left))
    with pytest.raises(ValueError, match="does not match the algebra"):
        _mult_map(spec.summands[:-1], a, left)
    assert not _mult_tensor(spec.summands, left).flags.writeable


def _reference_cf_index(summands):
    """The canonical-form index as a loop over ordered pairs of summands (block (i, k))."""
    offsets = np.cumsum((0,) + tuple(n * n for n in summands))
    side = sum(summands) ** 2
    pos = np.empty((offsets[-1],) * 2, dtype=np.intp)
    start = 0
    for i, ni in enumerate(summands):
        for k, nk in enumerate(summands):
            a, b, d, c = np.ogrid[:ni, :ni, :nk, :nk]
            at = (start + a * nk + c) * side + start + b * nk + d
            pos[offsets[i] + a * ni + b, offsets[k] + d * nk + c] = at
            start += ni * nk
    return pos.ravel()


_TABLE_SUMMANDS = {
    "toy": (2, 2),
    "bimodule": _bimodule_triple(+1).algebra.summands,
    "multi": _multi_triple().algebra.summands,
    "4+1": (4, 1),
}


@pytest.mark.parametrize("name", sorted(_TABLE_SUMMANDS))
def test_the_algebra_table_matches_the_element_operations(name):
    # each fixed map reads this one table: the product against AlgebraElement.__mul__, the
    # permutation against the blockwise transpose, the unit, the loop-built canonical index
    summands = _TABLE_SUMMANDS[name]
    spec, rng = AlgebraSpec(summands), np.random.default_rng(len(summands))
    table = _tables(summands)
    assert _tables(tuple(int(n) for n in summands)) is table  # built once per tuple
    assert not any(t.flags.writeable for t in table)
    for _ in range(4):
        a, b = random_element(spec, rng), random_element(spec, rng)
        want = (a * b).vec()
        got = np.einsum("a,b,abg->g", a.vec(), b.vec(), table.mult)
        assert frob_norm(got - want) <= 1e-15 * frob_norm(a.vec()) * frob_norm(b.vec())
        transposed = np.concatenate([blk.T.ravel() for blk in a.blocks])
        assert np.array_equal(a.vec()[table.perm], transposed)
    assert np.array_equal(table.unit, spec.unit().vec())
    assert np.array_equal(table.cf, _reference_cf_index(summands))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([SPEC, AlgebraSpec((1, 3, 2))]),
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
)
def test_one_form_cf_intertwines_the_bimodule_action(spec, seed, n_pairs):
    # cf(a . w . c) = (a (x) 1) cf(w) (1 (x) c): the compression check of a
    # Morita connection rests on this identity
    rng = np.random.default_rng(seed)
    a, c = random_element(spec, rng), random_element(spec, rng)
    w = _form_from_pairs(
        spec, [(random_element(spec, rng), random_element(spec, rng)) for _ in range(n_pairs)]
    )
    lhs = one_form_cf(spec, one_form_lmul(a, one_form_rmul(w, c)))
    rhs = _cf_tensor(spec, a, left=True) @ one_form_cf(spec, w) @ _cf_tensor(spec, c, left=False)
    assert approx_eq(lhs, rhs, 1e-12)


def test_one_form_module_actions_match_their_representations(toy, rng):
    w = random_one_form(SPEC, rng)
    aa, cc = random_element(SPEC, rng), random_element(SPEC, rng)
    ra, rc = represent(toy, aa), represent(toy, cc)
    assert approx_eq(a1(toy, one_form_lmul(aa, w)), ra @ a1(toy, w), 1e-12)
    assert approx_eq(a1(toy, one_form_rmul(w, cc)), a1(toy, w) @ rc, 1e-12)
    scaled = UniversalOneForm(SPEC, (2 - 1j) * w.omega)
    assert approx_eq(a1(toy, scaled), (2 - 1j) * a1(toy, w), 1e-12)


def test_one_form_star_represents_as_the_adjoint(toy, rng):
    w = _form_from_pairs(
        SPEC, [(random_element(SPEC, rng), random_element(SPEC, rng)) for _ in range(2)]
    )
    assert approx_eq(a1(toy, one_form_star(w)), adjoint(a1(toy, w)), 1e-12)
    # and on the faithful realization, * is an involution
    assert approx_eq(
        one_form_cf(SPEC, one_form_star(one_form_star(w))),
        one_form_cf(SPEC, w),
        1e-12,
    )


def _reference_rmul(pairs, c):
    """(x d(y)) c = x d(yc) - (xy) d(c), pair by pair."""
    return [p for x, y in pairs for p in ((x, y * c), (-(x * y), c))]


def _reference_star(spec, pairs):
    """(x d(y))* = y* d(x*) - d(y* x*), pair by pair."""
    return [
        p for x, y in pairs
        for p in ((y.star(), x.star()), (-spec.unit(), y.star() * x.star()))
    ]


def _complex_basis_spec():
    """All of M1 + M3 + M2, spanned by a basis with complex coordinates."""
    units = spanning_set(AlgebraSpec((1, 3, 2)))
    return AlgebraSpec((1, 3, 2), basis=tuple(u + 1j * v for u, v in zip(units, units[1:] + units[:1])))


_SPECS = {"a_ev": SPEC, "a_f": a_f(), "multi": _multi_triple().algebra}


def _matches(w, spec, pairs) -> bool:
    want = _form_from_pairs(spec, pairs).omega
    return frob_norm(w.omega - want) <= 1e-12 * max(1.0, frob_norm(want))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_SPECS)), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_one_form_maps_match_the_leibniz_pair_formulas(name, seed, n_pairs):
    spec, rng = _SPECS[name], np.random.default_rng(seed)
    pairs = [(random_element(spec, rng), random_element(spec, rng)) for _ in range(n_pairs)]
    a, c = random_element(spec, rng), random_element(spec, rng)
    w = _form_from_pairs(spec, pairs)
    assert _matches(one_form_lmul(a, w), spec, [(a * x, y) for x, y in pairs])
    assert _matches(one_form_rmul(w, c), spec, _reference_rmul(pairs, c))
    assert _matches(one_form_star(w), spec, _reference_star(spec, pairs))
    scaled = UniversalOneForm(spec, (2 - 1j) * w.omega)
    assert _matches(scaled + w, spec, [((3 - 1j) * x, y) for x, y in pairs])


@pytest.mark.parametrize("name", ["a_ev", "a_f", "multi", "complex basis"])
@pytest.mark.parametrize("n_pairs", [1, 3])
def test_random_draws_match_the_element_by_element_draws_bit_for_bit(name, n_pairs):
    # one rng call per draw against random_element pairs read through the reference: the pair
    # draw over n_pairs pairs, then random_pert (three pairs) and random_one_form (two)
    spec = _SPECS[name] if name in _SPECS else _complex_basis_spec()
    rng, ref = np.random.default_rng(n_pairs), np.random.default_rng(n_pairs)

    def reference_form(k):
        return _form_from_pairs(spec, [(random_element(spec, ref), random_element(spec, ref))
                                       for _ in range(k)])

    assert np.array_equal(_random_pairs_form(spec, rng, n_pairs), reference_form(n_pairs).omega)
    got, want = random_pert(spec, rng), normalize_one_form(spec, reference_form(3))
    assert np.array_equal(got.coeffs, want.coeffs)
    w, v = random_one_form(spec, rng), reference_form(2)
    assert np.array_equal(w.omega, (v + one_form_star(v)).omega)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("name", ["a_ev", "a_f", "multi", "complex basis"])
def test_derived_pairs_give_omega_back_and_lie_in_the_algebra(name):
    spec = _SPECS[name] if name in _SPECS else _complex_basis_spec()
    w = _self_adjoint_form(spec, np.random.default_rng(5), 3)
    pairs = w.pairs
    assert len(pairs) == len(spanning_set(spec))
    assert spec.first_outside([e for pair in pairs for e in pair]) is None
    back = _form_from_pairs(spec, pairs)
    assert frob_norm(back.omega - w.omega) <= 1e-12 * frob_norm(w.omega)
    products = sum((x * y for x, y in pairs), _zero(spec))
    assert _norm(products) <= 1e-12 * frob_norm(w.omega)


def test_from_pairs_rejects_non_finite_and_foreign_entries():
    unit = SPEC.unit()
    for bad in (float("nan") * unit, AlgebraElement((np.diag([np.inf, 1.0]), np.eye(2)))):
        with pytest.raises(ValueError, match="pair 1 has non-finite entries"):
            PertElement.from_pairs(SPEC, ((unit, unit), (unit, bad)))
    off = AlgebraElement((np.array([[0, 1], [0, 0]], dtype=complex), np.zeros((2, 2), dtype=complex)))
    with pytest.raises(ValueError, match="pair 0 is not in the algebra"):
        PertElement.from_pairs(SPEC, ((off, unit),))
    with pytest.raises(ValueError, match="8x8"):
        UniversalOneForm(SPEC, np.zeros((4, 4)))


def test_random_one_forms_are_self_adjoint(toy, rng):
    w = random_one_form(SPEC, rng)
    pot = a1(toy, w)
    assert approx_eq(pot, adjoint(pot), 1e-12)


def test_normalize_one_form_sections_eta(rng):
    w = random_one_form(SPEC, rng)
    p = normalize_one_form(SPEC, w)
    back = eta_one_form(p)
    assert approx_eq(one_form_cf(SPEC, back), one_form_cf(SPEC, w), 1e-12)


def test_eta_intertwines_gauge_action_with_unitary_conjugation(toy, rng):
    # eta(u p) = u eta(p) u* + u d(u*) as represented potentials
    p = random_pert(SPEC, rng)
    u = random_unitary(SPEC, rng)
    ru = represent(toy, u)
    lhs = a1(toy, eta_one_form(gauge_transform(p, u)))
    rhs = ru @ a1(toy, eta_one_form(p)) @ adjoint(ru) + ru @ (
        toy.d @ adjoint(ru) - adjoint(ru) @ toy.d
    )
    assert approx_eq(lhs, rhs, 1e-12)


# ---------------------------------------------------------------------------
# Fluctuations


def _reference_a1(t, w):
    """sum_j pi(x_j) [D, pi(y_j)], pair by pair."""
    terms = (represent(t, x) @ _commutator(t.d, represent(t, y)) for x, y in w.pairs)
    return sum(terms, np.zeros_like(t.d))


def _reference_a2(t, w, base):
    """sum_j hat(pi(x_j)) [base, hat(pi(y_j))], pair by pair."""
    hats = [(t.hat(represent(t, x)), t.hat(represent(t, y))) for x, y in w.pairs]
    return sum((hx @ _commutator(base, hy) for hx, hy in hats), np.zeros_like(base))


@pytest.mark.parametrize("which", ["toy", "toy over a_f", "multi"])
def test_one_form_kernels_match_the_pair_formulas(toy, which):
    t = {
        "toy": toy,
        "toy over a_f": dataclasses.replace(toy, algebra=a_f()),
        "multi": _multi_triple(),
    }[which]
    rng = np.random.default_rng(11)
    for _ in range(5):
        w = _self_adjoint_form(t.algebra, rng, 3)
        pot = _reference_a1(t, w)
        assert approx_eq(a1(t, w), pot, 1e-12)
        base = represent(t, random_element(t.algebra, rng)) @ t.d
        assert approx_eq(a2_with(t, w, base), _reference_a2(t, w, base), 1e-12)
        want = t.d + pot + t.signs.eps_d * t.hat(pot) + _reference_a2(t, w, pot)
        assert approx_eq(fluctuate(t, w), want, 1e-12)


def test_fluctuate_requires_self_adjoint_potential(toy, rng):
    w = _form_from_pairs(SPEC, ((random_element(SPEC, rng), random_element(SPEC, rng)),))
    with pytest.raises(ValueError, match="self-adjoint"):
        fluctuate(toy, w)


def test_fluctuated_operator_is_self_adjoint(toy, rng):
    w = random_one_form(SPEC, rng)
    d_new = fluctuate(toy, w)
    assert approx_eq(d_new, adjoint(d_new), 1e-12)


def test_combined_fluctuation_equals_the_two_step_formula(toy, rng):
    for t in _real_triples(toy):
        for _ in range(5):
            p = random_pert(t.algebra, rng)
            via_pairs = fluctuate_combined(t, p)
            via_forms = fluctuate(t, eta_one_form(p))
            assert approx_eq(via_pairs, via_forms, 1e-12)


def test_quadratic_term_vanishes_without_the_cross_coupling(rng):
    t0 = build_toy(ToyParams(k_x=1.0, k_y=0.0))
    w = random_one_form(SPEC, rng)
    assert frob_norm(a2_with(t0, w, a1(t0, w))) < 1e-12


def test_trivial_pert_fixes_d(toy):
    assert approx_eq(fluctuate_combined(toy, unit_pert()), toy.d, 1e-14)


def test_transitivity_of_repeated_fluctuation(toy, rng):
    for t in _real_triples(toy):
        for _ in range(5):
            p, q = random_pert(t.algebra, rng), random_pert(t.algebra, rng)
            assert check_transitivity(t, p, q) < 1e-12


def test_transitivity_raw_composition(toy, rng):
    # same check without the helper, as a guard on its definition
    p, q = random_pert(SPEC, rng), random_pert(SPEC, rng)
    twice = mu(toy, q).apply(fluctuate_combined(toy, p))
    once = fluctuate_combined(toy, pert_mul(q, p))
    assert approx_eq(twice, once, 1e-12)


def test_gauge_transform_conjugates_the_fluctuated_operator(toy, rng):
    for t in _real_triples(toy):
        for _ in range(5):
            p = random_pert(t.algebra, rng)
            u = random_unitary(t.algebra, rng)
            big = represent(t, u) @ t.hat(represent(t, u))
            lhs = big @ fluctuate_combined(t, p) @ adjoint(big)
            rhs = fluctuate_combined(t, gauge_transform(p, u))
            assert approx_eq(lhs, rhs, 1e-12)


def test_represented_pert_stacks_match_the_pairwise_formulas(toy, rng):
    for t in _real_triples(toy):
        p = random_pert(t.algebra, rng)
        mp = mu(t, p)
        n = t.dim_h
        # the pi leg and the hat leg of dim A terms each; the pairs are their products
        assert mp.lefts.shape == mp.rights.shape == (2, len(p.pairs), n, n)
        assert len(mp.pairs) == len(p.pairs) ** 2
        d = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        applied = sum(left @ d @ right for left, right in mp.pairs)
        assert frob_norm(mp.apply(d) - applied) < 1e-12 * frob_norm(applied)
        cf = sum(np.kron(left, right.T) for left, right in mp.pairs)
        assert frob_norm(mp.canonical_form() - cf) < 1e-12 * frob_norm(cf)


def test_mu_is_a_semigroup_homomorphism(toy, rng):
    for t in _real_triples(toy):
        p, q = random_pert(t.algebra, rng), random_pert(t.algebra, rng)
        lhs = mu(t, pert_mul(p, q)).canonical_form()
        rhs = mu(t, p).canonical_form() @ mu(t, q).canonical_form()
        assert approx_eq(lhs, rhs, 1e-12)
        # and mu(p) applied to D is the fluctuation itself
        assert np.array_equal(mu(t, p).apply(t.d), fluctuate_combined(t, p))


# ---------------------------------------------------------------------------
# Perturbation coefficients against the pair formulas they replace


def _reference_coeffs(pairs):
    """sum_j vec(a_j) vec(b_j)^T, pair by pair."""
    return sum(np.outer(a.vec(), b.vec()) for a, b in pairs)


def _reference_cf(spec, pairs):
    """Over ordered pairs (i, k) of summands, the blocks sum_j kron(a_j[i], b_j[k]^T)."""
    r = range(len(spec.summands))
    return block_diag(*(
        sum(np.kron(a.blocks[i], b.blocks[k].T) for a, b in pairs) for i in r for k in r
    ))


def _reference_mul(xs, ys):
    """(a (x) b)(c (x) d) = ac (x) db, pair by pair (x outer)."""
    return [(a * c, d * b) for a, b in xs for c, d in ys]


def _reference_flip(pairs):
    return [(b.star(), a.star()) for a, b in pairs]


def _reference_symmetrize(pairs):
    return [(0.5 * a, b) for a, b in list(pairs) + _reference_flip(pairs)]


def _reference_eta(spec, pairs):
    """sum_j a_j (x) b_j - (sum_j a_j b_j) (x) 1."""
    total = sum((a * b for a, b in pairs), _zero(spec))
    return _reference_coeffs(pairs) - np.outer(total.vec(), spec.unit().vec())


def _reference_mu_cf(t, pairs):
    """sum_{i,j} kron(pi(a_i) hat(pi(a_j)), (pi(b_i) hat(pi(b_j)))^T)."""
    reps = [(represent(t, a), represent(t, b)) for a, b in pairs]
    hats = [(t.hat(ra), t.hat(rb)) for ra, rb in reps]
    return sum(np.kron(ra @ ha, (rb @ hb).T) for ra, rb in reps for ha, hb in hats)


def _raw_pairs(spec, rng):
    """Three random pairs behind the normalizer (1 - sum xy, 1): normalized, not flip-invariant."""
    raw = [(random_element(spec, rng), random_element(spec, rng)) for _ in range(3)]
    return [(spec.unit() - sum((a * b for a, b in raw), _zero(spec)), spec.unit())] + raw


def _pert_pairs(spec, rng, n_pairs):
    """A valid perturbation as a pair list of 8 pairs, or their 64-pair product."""
    pairs = _reference_symmetrize(_raw_pairs(spec, rng))
    return pairs if n_pairs == 8 else _reference_mul(pairs, _reference_symmetrize(_raw_pairs(spec, rng)))


def _close(a, b) -> bool:
    return frob_norm(a - b) <= 1e-12 * max(1.0, frob_norm(b))


_LAYOUTS = {
    "a_ev": (SPEC, lambda: build_toy(ToyParams())),
    "M1+M3+M2": (AlgebraSpec((1, 3, 2)), lambda: _bimodule_triple(+1)),
}


@pytest.mark.parametrize("n_pairs", [8, 64])
@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_perturbation_maps_match_the_pair_formulas(layout, n_pairs):
    spec, triple = _LAYOUTS[layout]
    rng = np.random.default_rng(n_pairs)
    xs, ys = _pert_pairs(spec, rng, n_pairs), _pert_pairs(spec, rng, 8)
    assert len(xs) == n_pairs
    p, q = PertElement.from_pairs(spec, xs), PertElement.from_pairs(spec, ys)
    assert _close(p.coeffs, _reference_coeffs(xs))
    assert _close(canonical_form(p), _reference_cf(spec, xs))
    assert _close(canonical_form(pert_mul(p, q)), _reference_cf(spec, _reference_mul(xs, ys)))
    assert _close(pert_mul(q, p).coeffs, _reference_coeffs(_reference_mul(ys, xs)))
    assert _close(eta_one_form(p).omega, _reference_eta(spec, xs))
    raw = _raw_pairs(spec, rng)
    r = PertElement(spec, _reference_coeffs(raw))
    assert _close(_flip(spec.summands, r.coeffs), _reference_coeffs(_reference_flip(raw)))
    assert _close(symmetrize(r).coeffs, _reference_coeffs(_reference_symmetrize(raw)))
    t = triple()
    assert _close(mu(t, p).canonical_form(), _reference_mu_cf(t, xs))


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_from_pairs_rejects_what_the_pair_checks_reject(layout):
    spec = _LAYOUTS[layout][0]
    rng = np.random.default_rng(3)
    good, unit = _pert_pairs(spec, rng, 8), spec.unit()
    # off the diagonal of a_ev's first summand; M1+M3+M2 is full, so other summand shapes
    foreign = (
        AlgebraElement((np.triu(np.ones((2, 2)), 1), np.zeros((2, 2)))) if spec is SPEC
        else AlgebraSpec(spec.summands[::-1]).unit()
    )
    cases = [
        (good + [(foreign, _zero(spec))], "pair 8 is not in the algebra"),
        (good + [(unit, unit)], "not normalized"),
        (_raw_pairs(spec, rng), "not self-adjoint under the flip involution"),
        (good[:2] + [(unit, float("nan") * unit)] + good[2:], "pair 2 has non-finite entries"),
    ]
    for pairs, message in cases:
        with pytest.raises(ValueError, match=message):
            PertElement.from_pairs(spec, pairs)
    # the pair formulas reject the normalization and flip cases too
    total = sum((a * b for a, b in cases[1][0]), _zero(spec))
    assert _norm(total - unit) > 1e-9
    raw = cases[2][0]
    assert frob_norm(_reference_cf(spec, raw) - _reference_cf(spec, _reference_flip(raw))) > 1e-9
    PertElement.from_pairs(spec, good)


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_pert_pair_view_gives_the_coefficients_back(layout):
    spec = _LAYOUTS[layout][0]
    p = PertElement.from_pairs(spec, _pert_pairs(spec, np.random.default_rng(9), 64))
    pairs = p.pairs
    assert len(pairs) == spec.dim()
    assert spec.first_outside([e for pair in pairs for e in pair]) is None
    assert _close(PertElement.from_pairs(spec, pairs).coeffs, p.coeffs)


def test_a_parent_format_file_with_eight_pairs_loads_to_the_same_canonical_form(tmp_path):
    from spectriple.model_io import element_to_json, load_json, pert_from_dict, save_json

    pairs = _pert_pairs(SPEC, np.random.default_rng(21), 8)
    path = tmp_path / "pert.json"
    save_json(str(path), {"pairs": [[element_to_json(a), element_to_json(b)] for a, b in pairs]})
    back = pert_from_dict(SPEC, load_json(str(path)))
    assert _close(canonical_form(back), _reference_cf(SPEC, pairs))

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, null_space, orth

from spectriple import (
    AlgebraElement,
    AlgebraSpec,
    AntilinearOp,
    FiniteSpectralTriple,
    KOSigns,
    RepBlock,
    check_first_order,
    check_ko_signs,
    check_zeroth_order,
    represent,
)
from spectriple.matrix_core import adjoint, approx_eq, frob_norm, identity
from spectriple.perturbation import PertElement, UniversalOneForm, _pair_coeffs, a1, mu
from spectriple.spectral_triple import (
    KOReport,
    random_element,
    random_hermitian,
    random_unitary,
)
from spectriple.toy_model import ToyParams, a_ev, a_f, build_toy
from triples import _bimodule_triple, _multi_triple, _tiled_triple, spanning_set

Z2 = np.zeros((2, 2), dtype=complex)


def represent_opposite(t, a):
    """The right action J pi(a)* J^{-1}, from the matrix part m of J = m conj: m pi(a)^T m^{-1}."""
    return t.j.m @ represent(t, a).T @ np.linalg.inv(t.j.m)


def _commutator(a, b):
    """ab - ba, the reference commutator."""
    return a @ b - b @ a


# ---------------------------------------------------------------------------
# AlgebraElement / AlgebraSpec


def test_element_arithmetic_blockwise():
    a = AlgebraElement(([[1, 2], [3, 4]], [[0, 1], [0, 0]]))
    b = AlgebraElement(([[1, 0], [0, 1]], [[0, 0], [1, 0]]))
    assert np.array_equal((a * b).blocks[1], np.array([[1, 0], [0, 0]]))
    assert np.array_equal((a + b).blocks[0], np.array([[2, 2], [3, 5]]))
    assert np.array_equal((2j * a).blocks[0], 2j * np.array([[1, 2], [3, 4]]))
    assert np.array_equal((-a).blocks[0], -np.array([[1, 2], [3, 4]]))


def test_element_star_is_antimultiplicative():
    rng = np.random.default_rng(5)
    spec = AlgebraSpec((2, 3))
    a, b = random_element(spec, rng), random_element(spec, rng)
    lhs, rhs = (a * b).star(), b.star() * a.star()
    assert np.allclose(lhs.vec(), rhs.vec())


def test_element_norm_and_vec():
    a = AlgebraElement(([[3, 0], [0, 4]], [[0, 0], [0, 0]]))
    assert np.linalg.norm(a.vec()) == 5.0
    assert a.vec().shape == (8,)


def test_element_shape_mismatch_rejected():
    a = AlgebraElement(([[1]],))
    b = AlgebraElement(([[1, 0], [0, 1]],))
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        AlgebraElement((np.ones((2, 3)),))


def test_spec_unit_zero_element():
    spec = AlgebraSpec((1, 2))
    assert np.array_equal(spec.unit().blocks[1], np.eye(2))
    zero = spec.from_coords(np.zeros((1, spec.ambient_dim)))[0]
    assert [b.shape for b in zero.blocks] == [(1, 1), (2, 2)] and not zero.vec().any()
    assert spec.contains(AlgebraElement(([[5.0]], [[1, 2], [3, 4]])))
    assert not spec.contains(AlgebraElement(([[1, 2], [3, 4]],) * 2))  # first summand is 1x1


@pytest.mark.parametrize("summands", [(2.7, True), (2, 2.0), (2, "2"), (True,), (2, 0),
                                      (2, np.timedelta64(2))])
def test_summand_sizes_are_integers_at_least_one(summands):
    # (2.7, True) once read as (2, 1), and (2, "2") as (2, 2)
    with pytest.raises(ValueError, match="summand size must be an integer >= 1"):
        AlgebraSpec(summands)


def test_spec_dims():
    assert AlgebraSpec((2, 2)).dim() == 8
    assert AlgebraSpec((2, 2)).ambient_dim == 8
    assert a_ev().dim() == 6
    assert a_f().dim() == 3
    assert len(AlgebraSpec((2, 2)).span_coords()[0]) == 8
    assert len(a_ev().span_coords()[0]) == 6
    assert len(a_f().span_coords()[0]) == 3


def test_membership_in_even_subalgebra():
    off = AlgebraElement((np.array([[0, 1], [0, 0]], dtype=complex), Z2))
    assert not a_ev().contains(off)
    diag = AlgebraElement((np.diag([2.0, 3.0]).astype(complex), Z2))
    assert a_ev().contains(diag)
    # wrong summand structure is never a member
    assert not a_ev().contains(AlgebraElement(([[1]],)))


def _from_vec(summands, v):
    cuts = np.cumsum([n * n for n in summands])[:-1]
    return AlgebraElement(tuple(b.reshape(n, n) for b, n in zip(np.split(v, cuts), summands)))


def _lstsq_contains(spec, a, tol=1e-9):
    """Membership as one least-squares solve against the constraint basis."""
    basis = np.column_stack([e.vec() for e in spec.basis])
    v = a.vec()
    coeffs, *_ = np.linalg.lstsq(basis, v, rcond=None)
    return bool(np.linalg.norm(basis @ coeffs - v) <= tol * max(1.0, np.linalg.norm(v)))


@pytest.mark.parametrize("spec", [a_ev(), a_f()], ids=["a_ev", "a_f"])
def test_batched_membership_matches_a_least_squares_reference(spec):
    rng = np.random.default_rng(5)
    basis = np.column_stack([e.vec() for e in spec.basis])
    normals = null_space(basis.conj().T)  # orthonormal directions off the span

    def draw(m):
        return rng.standard_normal(m) + 1j * rng.standard_normal(m)

    elems = []
    for k in range(200):
        inside = basis @ draw(basis.shape[1])
        off = normals @ draw(normals.shape[1])
        # distance from the span: 0, within 10% of the tolerance on either side, or far
        dist = (0.0, 0.9e-9, 1.1e-9, 0.5)[k % 4] * max(1.0, np.linalg.norm(inside))
        elems.append(_from_vec(spec.summands, inside + dist * off / np.linalg.norm(off)))
    want = [_lstsq_contains(spec, a) for a in elems]
    assert want.count(True) == 100
    assert [spec.contains(a) for a in elems] == want
    # outside on coordinate rows, in any leading shape
    rows = np.array([a.vec() for a in elems])
    assert (~spec.outside(rows)).tolist() == want
    assert (~spec.outside(rows.reshape(4, 50, -1))).ravel().tolist() == want
    # the first element off the algebra, on its rows and as the pair that _pair_coeffs names
    for start in range(0, 200, 7):
        first = next(k for k, ok in enumerate(want[start:]) if not ok)
        assert np.flatnonzero(spec.outside(rows[start:]))[0] == first
        tail = elems[start:] + [spec.unit()] * (start % 2)  # an even count, the pad inside
        with pytest.raises(ValueError, match=f"^pair {first // 2} is not in the algebra$"):
            _pair_coeffs(spec, list(zip(tail[::2], tail[1::2])))
    # other summand shapes, also with the same ambient dimension, and non-finite entries are
    # never members, with or without a basis; a non-finite pair is named before a foreign one
    wide = AlgebraSpec((1, 1, 1, 1, 2)).unit()  # ambient dimension 8, as (2, 2)
    for spec in (spec, AlgebraSpec(spec.summands)):
        unit = spec.unit()
        nan = _from_vec(spec.summands, np.full(spec.ambient_dim, np.nan))
        inf = _from_vec(spec.summands, np.where(np.arange(spec.ambient_dim) == 0, np.inf, 0.0))
        for foreign in (AlgebraElement(([[1]],)), wide):
            assert not spec.contains(foreign)
            with pytest.raises(ValueError, match="^pair 1 is not in the algebra$"):
                _pair_coeffs(spec, [(unit, unit), (unit, foreign)])
            with pytest.raises(ValueError, match="^pair 1 has non-finite entries$"):
                _pair_coeffs(spec, [(foreign, unit), (unit, nan)])
        assert spec.contains(unit)
        assert not spec.contains(nan) and not spec.contains(inf)
        rows = np.array([spec.unit().vec(), nan.vec(), inf.vec()])
        assert spec.outside(rows).tolist() == [False, True, True]


@pytest.mark.parametrize("summands", [(1,), (3,), (2, 2), (1, 3, 2), (2, 1, 1, 3)])
def test_from_coords_inverts_vec(summands):
    spec = AlgebraSpec(summands)
    rng = np.random.default_rng(len(summands))
    rows = rng.standard_normal((5, spec.ambient_dim)) + 1j * rng.standard_normal((5, spec.ambient_dim))
    elems = spec.from_coords(rows)
    assert [tuple(len(b) for b in a.blocks) for a in elems] == [summands] * 5
    assert np.array_equal(np.array([a.vec() for a in elems]), rows)
    assert np.array_equal(spec.from_coords(list(rows[:2]))[1].vec(), rows[1])  # a list of rows
    assert spec.from_coords(np.zeros((0, spec.ambient_dim))) == []
    assert spec.from_coords([]) == []
    with pytest.raises(ValueError):
        spec.from_coords(np.zeros((2, spec.ambient_dim + 1)))


@pytest.mark.parametrize("spec", [a_ev(), AlgebraSpec((1, 3, 2))], ids=["toy", "unconstrained"])
def test_random_element_draws_over_the_spanning_set(spec):
    rows = np.array([e.vec() for e in spanning_set(spec)])
    for seed in range(3):
        got = random_element(spec, np.random.default_rng(seed)).vec()
        re, im = np.random.default_rng(seed).standard_normal((len(rows), 2)).T
        assert np.array_equal(got, (re + 1j * im) @ rows)


def _redundant_spec():
    e11 = AlgebraElement((np.diag([1.0, 0.0]),))
    e22 = AlgebraElement((np.diag([0.0, 1.0]),))
    return AlgebraSpec((2,), basis=(e11, e22, e11 + e22))


def test_dim_is_the_rank_of_a_redundant_constraint_basis():
    assert _redundant_spec().dim() == 2


def _complement_projector(spec):
    """1 - N N^H, the projector onto the span, from the complement basis N the spec keeps."""
    null = spec._null
    return identity(spec.ambient_dim) - null @ null.conj().T


@pytest.mark.parametrize("make", [a_ev, a_f, _redundant_spec])
def test_span_projector_matches_the_scipy_orth_reference(make):
    spec = make()
    q = orth(np.column_stack([e.vec() for e in spec.basis]))
    assert np.abs(_complement_projector(spec) - q @ q.conj().T).max() < 1e-12
    assert spec.dim() == q.shape[1]


def _thin_svd_projector(spec):
    """The projector onto the span as a thin SVD of its columns, with the cutoff of scipy's orth."""
    cols = np.column_stack([e.vec() for e in spanning_set(spec)])
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    q = u[:, s > s.max() * np.finfo(float).eps * max(cols.shape)]
    return q @ q.conj().T


def _complex_ev_spec():
    """a_ev spanned by random complex combinations of its basis: the same *-subalgebra."""
    rows = np.array([e.vec() for e in a_ev().basis])
    rng = np.random.default_rng(17)
    mix = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    return AlgebraSpec((2, 2), basis=tuple(a_ev().from_coords(mix @ rows)))


_SPECS = {"a_ev": a_ev, "a_f": a_f, "redundant": _redundant_spec, "complex": _complex_ev_spec,
          "bimodule": lambda: _bimodule_triple(1).algebra, "multi": lambda: _multi_triple().algebra}


@pytest.mark.parametrize("name", list(_SPECS))
def test_one_factorization_gives_the_thin_svd_projector(name):
    spec = _SPECS[name]()
    want, proj, null = _thin_svd_projector(spec), _complement_projector(spec), spec._null
    if name == "a_ev":
        assert np.array_equal(proj, want)
    # the two factorizations round apart by about eps times the condition number of the rows
    rows, inv = spec.span_coords()
    s = np.linalg.svd(rows, compute_uv=False)
    cond = s[0] / s[s > s[0] * 1e-12][-1]
    assert np.abs(proj - want).max() <= 1e-15 * cond
    assert spec.dim() == round(want.trace().real) == np.linalg.matrix_rank(want)
    assert spec.dim() == np.linalg.matrix_rank(rows) == spec.ambient_dim - null.shape[1]
    # N: orthonormal columns, orthogonal to the span rows
    assert np.abs(null.conj().T @ null - identity(null.shape[1])).max(initial=0.0) <= 1e-15
    assert np.abs(rows @ null.conj()).max(initial=0.0) <= 1e-15 * frob_norm(rows, axis=-1).max()
    assert np.array_equal(rows, np.array([e.vec() for e in spanning_set(spec)]))
    assert np.array_equal(inv, np.linalg.pinv(rows.T))  # numpy's pinv, from the same SVD
    assert np.abs(rows.T @ inv - proj).max() <= 1e-15 * cond
    if spec.basis is None:  # N has no columns: every finite row is in, bar an overflowing norm
        assert null.shape == (spec.ambient_dim, 0)
        assert np.array_equal(inv, identity(spec.ambient_dim))


def test_includes_a_contained_subalgebra_and_nothing_else():
    full, ev, f = AlgebraSpec((2, 2)), a_ev(), a_f()
    assert full.includes(full) and full.includes(ev) and full.includes(f)
    assert ev.includes(f) and ev.includes(ev) and f.includes(f)
    # a span that sticks out: a_f inside a_ev inside M2 + M2, not the other way round
    assert not ev.includes(full) and not f.includes(ev) and not f.includes(full)
    # other summands, of the same ambient dimension (8) or another
    for summands in ((1, 1, 1, 1, 2), (3,), (2,)):
        assert not full.includes(AlgebraSpec(summands))
        assert not AlgebraSpec(summands).includes(full)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constraint_basis_must_be_finite(bad):
    e11 = AlgebraElement((np.diag([1.0, 0.0]),))
    e22 = AlgebraElement((np.diag([0.0, bad]),))
    with pytest.raises(ValueError, match="non-finite entries"):
        AlgebraSpec((2,), basis=(e11, e22))


def test_constraint_basis_must_be_closed():
    e12 = AlgebraElement((np.array([[0, 1], [0, 0]], dtype=complex),))
    with pytest.raises(ValueError, match="adjoint"):
        AlgebraSpec((2,), basis=(e12,))
    e21 = e12.star()
    with pytest.raises(ValueError, match="product"):
        AlgebraSpec((2,), basis=(e12, e21))
    # the first element, and the first pair in row-major order, off the span are named
    one = AlgebraSpec((2,)).unit()
    with pytest.raises(ValueError, match=r"^constraint basis not closed under adjoint \(element 1\)$"):
        AlgebraSpec((2,), basis=(one, e12))
    with pytest.raises(ValueError, match=r"^constraint basis not closed under product \(1,2\)$"):
        AlgebraSpec((2,), basis=(one, e12, e21))  # e12 e12 = 0 is in, e12 e21 = e11 is not


def test_constraint_basis_must_span_the_unit():
    # e11 alone is a closed *-subalgebra of M2, but not a unital one
    e11 = AlgebraElement((np.diag([1.0, 0.0]),))
    with pytest.raises(ValueError, match="does not span the unit"):
        AlgebraSpec((2,), basis=(e11,))
    e22 = AlgebraElement((np.diag([0.0, 1.0]),))
    assert AlgebraSpec((2,), basis=(e11, e22)).dim() == 2


def test_random_hermitian_and_unitary(rng):
    spec = a_ev()
    h = random_hermitian(spec, rng)
    assert np.allclose(h.vec(), h.star().vec())
    u = random_unitary(spec, rng)
    uu = u * u.star()
    assert np.allclose(uu.vec(), spec.unit().vec(), atol=1e-12)
    assert spec.contains(u)


@pytest.mark.parametrize("spec", [a_ev(), AlgebraSpec((1, 2, 3))], ids=["toy", "unconstrained"])
def test_random_unitary_matches_the_scipy_expm_reference(spec):
    for seed in range(5):
        u = random_unitary(spec, np.random.default_rng(seed))
        h = random_hermitian(spec, np.random.default_rng(seed))
        for got, b in zip(u.blocks, h.blocks):
            assert np.abs(got - expm(1j * b)).max() < 1e-13
            assert np.abs(got @ got.conj().T - identity(len(b))).max() < 1e-13
        assert spec.contains(u)


# ---------------------------------------------------------------------------
# Representation


def test_represent_places_blocks_as_tensor_factors(toy):
    b = np.array([[1, 2], [3, 4]], dtype=complex)
    m = np.array([[5, 6], [7, 8]], dtype=complex)
    op = represent(toy, AlgebraElement((np.diag(np.diag(b)), m)))
    want = np.zeros((8, 8), dtype=complex)
    want[0:4, 0:4] = np.kron(np.diag([1.0, 4.0]), np.eye(2))
    want[4:8, 4:8] = np.kron(np.eye(2), m)
    assert np.array_equal(op, want)


def test_represent_is_a_star_homomorphism(toy, rng):
    a = random_element(toy.algebra, rng)
    b = random_element(toy.algebra, rng)
    assert approx_eq(represent(toy, a * b), represent(toy, a) @ represent(toy, b), 1e-12)
    assert np.array_equal(represent(toy, a.star()), adjoint(represent(toy, a)))
    assert np.array_equal(represent(toy, toy.algebra.unit()), identity(8))


def test_opposite_representation_swaps_tensor_legs(toy):
    # J swaps the two halves, so the right action carries the factors the
    # other way around: m^T on the first half, B^T on the second.
    b = np.diag([2.0, 5.0]).astype(complex)
    m = np.array([[1, 2j], [0, 3]], dtype=complex)
    op = represent_opposite(toy, AlgebraElement((b, m)))
    want = np.zeros((8, 8), dtype=complex)
    want[0:4, 0:4] = np.kron(np.eye(2), m.T)
    want[4:8, 4:8] = np.kron(b.T, np.eye(2))
    assert approx_eq(op, want, 1e-13)


def test_left_and_right_actions_commute(toy, rng):
    a = random_element(toy.algebra, rng)
    b = random_element(toy.algebra, rng)
    k = _commutator(represent(toy, a), represent_opposite(toy, b))
    assert frob_norm(k) < 1e-13


def test_hat_is_an_involution_here(toy):
    # J^2 = 1 for this model, so conjugating twice returns the operator.
    x = np.asarray(np.random.default_rng(2).standard_normal((8, 8)), dtype=complex)
    assert approx_eq(toy.hat(toy.hat(x)), x, 1e-13)


def test_rep_block_validation():
    for bad in (dict(left_mult_dim=0), dict(summand=-1), dict(offset=-1),
                dict(summand=True, left_mult_dim=1.5), dict(right_mult_dim="1"), dict(offset=2.0)):
        with pytest.raises(ValueError):
            RepBlock(**{"summand": 0, "left_mult_dim": 1, "right_mult_dim": 1, **bad})
    tile = RepBlock(np.int64(1), np.int64(2), 1)  # a numpy integer is stored as an int
    assert type(tile.summand) is type(tile.left_mult_dim) is int


# ---------------------------------------------------------------------------
# The representation table against the tile-by-tile construction


def _reference_represent(t, a):
    """pi(a) with two np.kron per tile, as it was built before the tables."""
    out = np.zeros((t.dim_h, t.dim_h), dtype=complex)
    for rb in t.rep_blocks:
        block = a.blocks[rb.summand]
        tile = np.kron(identity(rb.left_mult_dim), np.kron(block, identity(rb.right_mult_dim)))
        sl = slice(rb.offset, rb.offset + tile.shape[0])
        out[sl, sl] += tile
    return out


@pytest.mark.parametrize("which", ["toy", "multi"])
def test_table_matches_the_tile_by_tile_representation(toy, which):
    t = toy if which == "toy" else _multi_triple()
    rng = np.random.default_rng(17)
    assert t.pi_table.shape == (t.algebra.ambient_dim, t.dim_h, t.dim_h)
    for a in [random_element(t.algebra, rng) for _ in range(20)] + spanning_set(t.algebra):
        want = _reference_represent(t, a)
        assert frob_norm(represent(t, a) - want) == 0.0
        # the hat of pi(a) is the hatted table against the conjugated coordinates
        hat = np.tensordot(np.conj(a.vec()), t.pi_hat_table, 1)
        assert approx_eq(hat, t.hat(want), 1e-12)


@pytest.mark.parametrize("which", ["toy", "multi"])
def test_rep_is_the_tensordot_over_the_tables_bit_for_bit(toy, which):
    t = toy if which == "toy" else _multi_triple()
    d, rng = t.algebra.ambient_dim, np.random.default_rng(23)
    for shape in ((d,), (5, d), (3, 4, d)):
        coords = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = t.rep(coords)
        assert got.shape == shape[:-1] + (t.dim_h, t.dim_h)
        assert np.array_equal(got, np.tensordot(coords, t.pi_table, 1))
        want = np.tensordot(np.conj(coords), t.pi_hat_table, 1)
        assert np.array_equal(t.rep(coords, hatted=True), want)
    for shape in ((d - 1,), (d, d - 1)):  # a last axis other than d is refused, not misread
        with pytest.raises(ValueError):
            t.rep(np.ones(shape, dtype=complex))


def test_tables_are_read_only_and_kept_out_of_repr(toy):
    for table in (toy.pi_table, toy.pi_hat_table):
        with pytest.raises(ValueError):
            table[0, 0, 0] = 1.0
    assert "pi_table" not in repr(toy)


def test_readers_of_the_table_reject_elements_over_other_summands():
    # M1 + M3 and M3 + M1 have the same ambient dimension, 10
    t = _tiled_triple((1, 3), ((0, 1, 1), (1, 1, 1)), order=(0, 1))
    other = random_element(AlgebraSpec((3, 1)), np.random.default_rng(0))
    calls = (
        lambda: represent(t, other),
        lambda: a1(t, UniversalOneForm(AlgebraSpec((3, 1)), np.outer(other.vec(), other.vec()))),
        lambda: mu(t, PertElement(AlgebraSpec((3, 1)), np.outer(other.vec(), other.vec()))),
    )
    for call in calls:
        with pytest.raises(ValueError, match="does not match"):
            call()


@st.composite
def _plain_tilings(draw):
    summands = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    tile = st.tuples(st.integers(0, len(summands) - 1), st.integers(1, 2), st.integers(1, 2))
    tiles = tuple(draw(st.lists(tile, min_size=1, max_size=4)))
    return summands, tiles, tuple(draw(st.permutations(range(len(tiles)))))


@settings(max_examples=40, deadline=None)
@given(_plain_tilings(), st.integers(0, 2**32 - 1))
def test_plain_tiles_give_a_unital_star_homomorphism(tiling, seed):
    t = _tiled_triple(*tiling, seed=seed)
    rng = np.random.default_rng(seed)
    a, b = random_element(t.algebra, rng), random_element(t.algebra, rng)
    ra = represent(t, a)
    assert frob_norm(ra - _reference_represent(t, a)) == 0.0
    assert approx_eq(represent(t, a * b), ra @ represent(t, b), 1e-12)
    assert np.array_equal(represent(t, a.star()), adjoint(ra))
    assert np.array_equal(represent(t, t.algebra.unit()), identity(t.dim_h))


# ---------------------------------------------------------------------------
# Axiom checks


def _reference_check(t, spec, with_d):
    """The max defect by the per-pair loop that the batched checks replaced."""
    elems = spanning_set(spec)
    worst = 0.0
    rights = [represent_opposite(t, b) for b in elems]
    for a in elems:
        left = _commutator(t.d, represent(t, a)) if with_d else represent(t, a)
        for rb in rights:
            worst = max(worst, frob_norm(_commutator(left, rb)))
    return worst


@pytest.mark.parametrize("case", ["toy", "toy_full", "toy_af", "wrong_j", "multi", "complex_basis"])
@pytest.mark.parametrize("with_d", [False, True])
def test_batched_checks_match_the_per_pair_loop(toy, case, with_d):
    t, spec = toy, None
    if case == "toy_full" and not with_d:
        spec = AlgebraSpec((2, 2))
    elif case == "toy_af":
        spec = a_f()
    elif case == "wrong_j":
        t = FiniteSpectralTriple(**_toy_kwargs(toy, j=AntilinearOp(identity(8))), validate=False)
    elif case in ("multi", "complex_basis"):
        t = _multi_triple()
    if case == "complex_basis":
        # a basis with complex coordinates: pi_op must take their conjugates
        units = spanning_set(t.algebra)
        pairs = zip(units, units[1:] + units[:1])
        spec = AlgebraSpec((1, 3, 2), basis=tuple(u + 1j * v for u, v in pairs))
    if with_d:
        rep = check_first_order(t, spec)
    else:  # the zeroth order over another algebra is that of the triple carrying it
        if spec is not None:
            t = dataclasses.replace(t, algebra=spec, validate=False)
        rep = check_zeroth_order(t)
    want = _reference_check(t, spec if spec is not None else t.algebra, with_d)
    assert rep.max_defect == pytest.approx(want, rel=1e-12, abs=1e-14)
    # the reported pair reproduces the reported defect
    elems = spanning_set(spec if spec is not None else t.algebra)
    i, k = rep.worst_pair
    left = represent(t, elems[i])
    if with_d:
        left = _commutator(t.d, left)
    defect = frob_norm(_commutator(left, represent_opposite(t, elems[k])))
    assert defect == pytest.approx(rep.max_defect, rel=1e-12, abs=1e-14)


def test_zeroth_order_holds_even_for_the_full_algebra(toy):
    assert check_zeroth_order(toy).max_defect < 1e-12
    full = dataclasses.replace(toy, algebra=AlgebraSpec((2, 2)), validate=False)
    assert check_zeroth_order(full).max_defect < 1e-12


def test_first_order_defect_is_sqrt_two_on_the_even_subalgebra(toy):
    rep = check_first_order(toy)
    assert rep.max_defect == pytest.approx(math.sqrt(2.0), abs=1e-12)
    # the reported worst pair reproduces the reported defect
    elems = spanning_set(toy.algebra)
    i, k = rep.worst_pair
    da = _commutator(toy.d, represent(toy, elems[i]))
    defect = frob_norm(_commutator(da, represent_opposite(toy, elems[k])))
    assert defect == pytest.approx(rep.max_defect, rel=1e-12)


def test_first_order_holds_on_the_flagged_subalgebra(toy):
    assert check_first_order(toy, sub=a_f()).max_defect < 1e-12


def test_first_order_holds_when_the_cross_coupling_vanishes():
    t0 = build_toy(ToyParams(k_x=1.0, k_y=0.0))
    assert check_first_order(t0).max_defect < 1e-12


def test_first_order_rejects_non_subalgebra(toy):
    # off the span, other summands of the same ambient dimension, another ambient dimension
    for summands in ((2, 2), (1, 1, 1, 1, 2), (3,)):
        with pytest.raises(ValueError, match="^sub is not contained in the triple's algebra$"):
            check_first_order(toy, sub=AlgebraSpec(summands))


def test_ko_signs_all_match(toy):
    rep = check_ko_signs(toy)
    assert rep.passed()
    assert max(rep.res_j_squared, rep.res_jd, rep.res_jgamma) < 1e-12


@pytest.mark.parametrize("eps_d", [1, -1])
def test_bimodule_triples_are_real_even_triples_that_break_first_order(eps_d):
    t = _bimodule_triple(eps_d)  # built with validation on
    assert t.signs.eps_d == eps_d and check_ko_signs(t).worst == 0.0
    assert check_zeroth_order(t).max_defect == 0.0
    assert check_first_order(t).max_defect > 1.0  # so A_2 does real work


def test_ko_sign_flip_is_detected(toy):
    wrong = dataclasses.replace(toy, signs=KOSigns(eps_j=+1, eps_d=+1, eps_gamma=+1))
    rep = check_ko_signs(wrong)
    assert not rep.passed()
    # J anti-commutes with gamma, so demanding commutation misses by 2|gamma J|
    assert rep.res_jgamma == pytest.approx(2.0 * frob_norm(toy.gamma @ toy.j.m))


def test_ko_report_fails_on_a_nan_residual():
    rep = KOReport(0.0, math.nan, 0.0)
    assert math.isnan(rep.worst)
    assert not rep.passed()


def test_ko_signs_validated():
    with pytest.raises(ValueError):
        KOSigns(eps_j=0, eps_d=1, eps_gamma=1)
    for signs in ((True, 1, -1), (1, 1.0, -1), (1, 1, -1.0), (True, 1.0, -1)):  # ints only
        with pytest.raises(ValueError, match="must be an integer"):
            KOSigns(*signs)


# ---------------------------------------------------------------------------
# Construction-time validation


def _toy_kwargs(toy, **overrides):
    kw = dict(
        algebra=toy.algebra,
        dim_h=8,
        rep_blocks=toy.rep_blocks,
        d=toy.d,
        j=toy.j,
        gamma=toy.gamma,
        signs=toy.signs,
    )
    kw.update(overrides)
    return kw


def test_non_self_adjoint_d_rejected(toy):
    bad = toy.d.copy()
    bad[0, 2] = 5.0  # its transpose partner stays at 1
    with pytest.raises(ValueError, match="self-adjoint"):
        FiniteSpectralTriple(**_toy_kwargs(toy, d=bad))
    # the escape hatch admits it for diagnostics
    t = FiniteSpectralTriple(**_toy_kwargs(toy, d=bad), validate=False)
    assert t.d[0, 2] == 5.0


@pytest.mark.parametrize("dim_h", [8.0, 8.9, "8", True, None, np.timedelta64(8)])
def test_dim_h_must_be_an_integer(toy, dim_h):
    with pytest.raises(ValueError, match="dim_h must be an integer >= 1"):
        FiniteSpectralTriple(**_toy_kwargs(toy, dim_h=dim_h))


def test_gamma_must_anticommute_with_d(toy):
    bad = toy.d + identity(8)
    with pytest.raises(ValueError, match="anticommute"):
        FiniteSpectralTriple(**_toy_kwargs(toy, d=bad))


def test_j_square_must_match_declared_sign(toy):
    with pytest.raises(ValueError, match="eps_j"):
        FiniteSpectralTriple(
            **_toy_kwargs(toy, signs=KOSigns(eps_j=-1, eps_d=+1, eps_gamma=-1))
        )


def test_rep_blocks_must_tile_the_space(toy):
    with pytest.raises(ValueError, match="tile"):
        FiniteSpectralTriple(**_toy_kwargs(toy, rep_blocks=toy.rep_blocks[:1]))


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize(
    "second, match",
    [
        (RepBlock(summand=5, left_mult_dim=2, right_mult_dim=1, offset=4), "out of range"),
        (RepBlock(summand=1, left_mult_dim=2, right_mult_dim=1, offset=0), "overlap"),
        (RepBlock(summand=1, left_mult_dim=2, right_mult_dim=1, offset=6), "runs past"),
    ],
)
def test_tiles_must_partition_h_even_without_validation(toy, second, match, validate):
    blocks = (toy.rep_blocks[0], second)
    with pytest.raises(ValueError, match=match):
        FiniteSpectralTriple(**_toy_kwargs(toy, rep_blocks=blocks), validate=validate)


@pytest.mark.parametrize("name", ["d", "gamma", "j"])
def test_non_finite_entries_rejected(toy, name):
    bad = (toy.j.m if name == "j" else getattr(toy, name)).copy()
    bad[0, 2] = bad[2, 0] = np.nan
    if name == "j":  # J refuses the matrix itself, and its stored copy cannot be written later
        with pytest.raises(ValueError, match="non-finite"):
            AntilinearOp(bad)
        with pytest.raises(ValueError, match="read-only"):
            toy.j.m[0, 2] = np.nan
        return
    with pytest.raises(ValueError, match="non-finite"):
        FiniteSpectralTriple(**_toy_kwargs(toy, **{name: bad}))


def test_nan_in_d_comes_through_the_order_checks(toy):
    bad = toy.d.copy()
    bad[0, 2] = bad[2, 0] = np.nan
    t = FiniteSpectralTriple(**_toy_kwargs(toy, d=bad), validate=False)
    assert math.isnan(check_first_order(t).max_defect)
    assert check_zeroth_order(t).max_defect < 1e-12  # D plays no part in it


def test_wrong_real_structure_breaks_zeroth_order(toy):
    # plain entrywise conjugation makes the right action the transpose of the
    # left one, which no longer commutes with it
    t = FiniteSpectralTriple(**_toy_kwargs(toy, j=AntilinearOp(identity(8))), validate=False)
    assert check_zeroth_order(t).max_defect == pytest.approx(2.0)
    with pytest.raises(ValueError, match="order zero"):  # and it is not a real spectral triple
        FiniteSpectralTriple(**_toy_kwargs(toy, j=AntilinearOp(identity(8))))


def test_j_must_be_antiunitary(toy):
    # m' = s m s^{-1} with real s keeps J'^2 = s m conj(m) s^{-1} = eps_j but not m' m'* = 1
    s = np.diag([2.0] + [1.0] * 7)
    m = s @ toy.j.m @ np.linalg.inv(s)
    assert np.array_equal(m @ np.conj(m), toy.j.square())
    with pytest.raises(ValueError, match="antiunitary"):
        AntilinearOp(m)

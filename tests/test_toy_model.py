import math

import numpy as np
import pytest

from spectriple import AlgebraElement, build_toy, closed_dirac, extract_fields, fluctuate
from spectriple.matrix_core import adjoint, approx_eq
from spectriple.perturbation import random_one_form
from spectriple.spectral_triple import AlgebraSpec, random_element
from spectriple.toy_model import (
    _SLOTS,
    FieldPoint,
    ToyParams,
    a_ev,
    assemble_dirac,
    y_block,
)
from test_perturbation import _form_from_pairs, _self_adjoint_form


def test_dirac_entries():
    kx, ky = 0.7 + 0.2j, -1.1 + 0.4j
    t = build_toy(ToyParams(kx, ky))
    d = t.d
    for i, j in ((0, 2), (1, 3), (6, 4), (7, 5)):
        assert d[i, j] == kx
        assert d[j, i] == np.conj(kx)
    assert d[4, 0] == ky
    assert d[0, 4] == np.conj(ky)
    # nothing else is populated
    mask = np.zeros((8, 8), dtype=bool)
    for i, j in ((0, 2), (1, 3), (6, 4), (7, 5), (4, 0)):
        mask[i, j] = mask[j, i] = True
    assert np.all(d[~mask] == 0)


def test_grading_and_real_structure_matrices():
    t = build_toy()
    assert np.array_equal(np.diag(t.gamma), np.array([1, 1, -1, -1, -1, -1, 1, 1]))
    want = np.zeros((8, 8))
    want[0:4, 4:8] = np.eye(4)
    want[4:8, 0:4] = np.eye(4)
    assert np.array_equal(t.j.m, want)
    assert (t.signs.eps_j, t.signs.eps_d, t.signs.eps_gamma) == (1, 1, -1)


def test_toy_params_coerce_to_complex():
    tp = ToyParams(2, 0)
    assert isinstance(tp.k_x, complex) and tp.k_x == 2.0
    assert tp.k_y == 0.0
    tp = ToyParams(np.complex64(0.5 - 2j), np.float32(0.25))  # numpy scalars are numbers
    assert tp.k_x == 0.5 - 2j and type(tp.k_x) is complex and type(tp.k_y) is complex


@pytest.mark.parametrize("k_x, k_y", [
    (math.nan, 1.0), (1.0, math.inf), (complex(1.0, -math.inf), 0.0),
    (True, 1.0), (1.0, False), ("1+2j", 1.0), (1.0, [1.0]),  # a bool or a string is no number
    (None, 1.0), (np.bool_(False), 1.0), (1.0, np.complex128(complex(math.nan, 0.0))),
    (np.timedelta64(3), 1.0),  # an np.signedinteger that numpy's types count, once read as 3.0
])
def test_toy_params_reject_non_finite_couplings(k_x, k_y):
    with pytest.raises(ValueError, match=r"k_[xy] must be a finite number, got "):
        ToyParams(k_x, k_y)


def test_assemble_dirac_is_self_adjoint():
    d = assemble_dirac(0.3 - 2j, [[1j, 2], [0, 1]])
    assert np.array_equal(d, adjoint(d))
    with pytest.raises(ValueError, match="2x2"):
        assemble_dirac(1.0, np.eye(3))


def _slot_by_slot_dirac(x_entry, y_mat):
    """assemble_dirac written out entry by entry from the (row, column, source) table."""
    x, y = np.asarray(x_entry, dtype=complex), np.asarray(y_mat, dtype=complex)
    batch = np.broadcast_shapes(x.shape, y.shape[:-2])
    sources = [np.broadcast_to(x, batch)] + [np.broadcast_to(y[..., r, c], batch)
                                             for r in range(2) for c in range(2)]
    sources += [np.conj(s) for s in sources]
    d = np.zeros(batch + (8, 8), dtype=complex)
    for row, col, source in _SLOTS.T:
        d[..., row, col] = sources[source]
    return d


def test_assemble_dirac_equals_its_slot_by_slot_reference(rng):
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for x, y in (
        (0.3 - 2j, cplx(5, 2, 2)),  # complex x, stacked y
        (cplx(4), cplx(2, 2)),  # stacked x, one y
        (cplx(3, 1), cplx(4, 2, 2)),  # both stacked, broadcasting
        (-1.5, [[0.25, -2.0], [1.0, 3.5]]),  # scalar x, scalar y
    ):
        got, want = assemble_dirac(x, y), _slot_by_slot_dirac(x, y)
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("x, y, slots", [
    (math.nan, np.zeros((2, 2)), {(0, 2), (1, 3), (6, 4), (7, 5), (2, 0), (3, 1), (4, 6), (5, 7)}),
    (0.0, [[0.0, math.inf], [0.0, 0.0]], {(4, 1), (1, 4)}),
    (0.0, [[0.0, 0.0], [complex(0.0, -math.inf), 0.0]], {(5, 0), (0, 5)}),
])
def test_a_non_finite_entry_stays_in_its_own_slots(x, y, slots):
    d = assemble_dirac(x, y)
    assert np.array_equal(d, _slot_by_slot_dirac(x, y), equal_nan=True)
    bad = {(int(r), int(c)) for r, c in zip(*np.nonzero(~np.isfinite(d)))}
    assert bad == slots
    mask = np.ones((8, 8), dtype=bool)
    mask[tuple(zip(*slots))] = False
    assert np.array_equal(d[mask], np.zeros(64 - len(slots)))


def test_y_block_reads_the_cross_coupling():
    y = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(y_block(assemble_dirac(0.0, y)), y)


def test_assemble_dirac_and_closed_dirac_take_batch_axes(rng):
    x = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    y = rng.standard_normal((4, 3, 2, 2)) + 1j * rng.standard_normal((4, 3, 2, 2))
    d = assemble_dirac(x, y)
    assert d.shape == (4, 3, 8, 8)
    for idx in np.ndindex(4, 3):
        assert np.array_equal(d[idx], assemble_dirac(x[idx], y[idx]))
    # a scalar x broadcasts against a stack of y blocks
    assert np.array_equal(assemble_dirac(0.5j, y[0])[2], assemble_dirac(0.5j, y[0, 2]))
    tp = ToyParams(0.6 + 0.1j, 1.3 - 0.4j)
    fields = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    stack = closed_dirac(tp, FieldPoint(*fields))
    assert stack.shape == (5, 8, 8)
    for k in range(5):
        # complex products in array loops may round differently from scalar ones
        want = closed_dirac(tp, FieldPoint(*fields[:, k]))
        assert np.allclose(stack[k], want, rtol=1e-15, atol=1e-15)


def test_unfluctuated_point_reproduces_d_exactly():
    tp = ToyParams(0.6 + 0.1j, 1.3)
    t = build_toy(tp)
    assert np.array_equal(closed_dirac(tp, FieldPoint(1.0, 1.0, 0.0)), t.d)


def test_closed_dirac_bilinear_y_block():
    tp = ToyParams(1.0, 2.0)
    fp = FieldPoint(0.5, 1 + 1j, 3j)
    # the vector enters bilinearly (v v^T, no conjugation)
    assert np.array_equal(
        y_block(closed_dirac(tp, fp)), 2.0 * np.outer(fp.v, fp.v)
    )
    assert closed_dirac(tp, fp)[0, 2] == 0.5


def test_extract_fields_hand_computed_pair():
    spec = a_ev()
    a = AlgebraElement((np.diag([2.0, 3.0]), [[1, 2], [3, 4]]))
    b = AlgebraElement((np.diag([5.0, 7.0]), [[0, 1], [1, 0]]))
    fp = extract_fields(_form_from_pairs(spec, ((a, b),)))
    # phi = r'(l - r) = 2 (7 - 5) = 4
    assert fp.x == 1.0 + 4.0
    # m' m = [[2, 1], [4, 3]]; sigma_1 = 1*5 - 2, sigma_2 = 3*5 - 4
    assert fp.v1 == 1.0 + 3.0
    assert fp.v2 == 11.0


def _reference_fields(w):
    """The fields pair by pair, from a = (diag(r', l'), m') and b = (diag(r, l), m)."""
    phi = sig1 = sig2 = 0.0
    for a, b in w.pairs:
        r_p, m_p = a.blocks[0][0, 0], a.blocks[1]
        r, l, m = b.blocks[0][0, 0], b.blocks[0][1, 1], b.blocks[1]
        mm = m_p @ m
        phi += r_p * (l - r)
        sig1 += m_p[0, 0] * r - mm[0, 0]
        sig2 += m_p[1, 0] * r - mm[1, 0]
    return np.array([1.0 + phi, 1.0 + sig1, sig2])


def test_extract_fields_matches_the_pair_formula(rng):
    for n_pairs in (1, 2, 5):
        w = _self_adjoint_form(a_ev(), rng, n_pairs)
        fp = extract_fields(w)
        want = _reference_fields(w)
        assert np.allclose([fp.x, fp.v1, fp.v2], want, rtol=0.0, atol=1e-12 * np.abs(want).max())


def test_extract_fields_is_additive_in_the_form(rng):
    w1 = random_one_form(a_ev(), rng)
    w2 = random_one_form(a_ev(), rng)
    f1, f2, f12 = extract_fields(w1), extract_fields(w2), extract_fields(w1 + w2)
    assert f12.x - 1 == pytest.approx(complex(f1.x - 1) + complex(f2.x - 1))
    assert f12.v1 - 1 == pytest.approx(complex(f1.v1 - 1) + complex(f2.v1 - 1))
    assert f12.v2 == pytest.approx(complex(f1.v2) + complex(f2.v2))


def test_extract_fields_rejects_elements_outside_the_even_subalgebra(rng):
    full = AlgebraSpec((2, 2))
    w = _form_from_pairs(full, ((random_element(full, rng),) * 2,))
    with pytest.raises(ValueError, match="not over the even subalgebra"):
        extract_fields(w)


def test_fluctuation_closes_on_the_two_fields(rng):
    tp = ToyParams(1.2 - 0.3j, 0.8 + 0.5j)
    t = build_toy(tp)
    for _ in range(10):
        w = random_one_form(a_ev(), rng)
        d_new = fluctuate(t, w)
        d_closed = closed_dirac(tp, extract_fields(w))
        assert approx_eq(d_new, d_closed, 1e-12)


def test_fluctuation_closes_without_the_cross_coupling(rng):
    tp = ToyParams(1.0, 0.0)
    t = build_toy(tp)
    w = random_one_form(a_ev(), rng)
    assert approx_eq(fluctuate(t, w), closed_dirac(tp, extract_fields(w)), 1e-12)


def test_fluctuated_y_block_has_rank_one(toy, rng):
    for _ in range(10):
        w = random_one_form(a_ev(), rng)
        svals = np.linalg.svd(y_block(fluctuate(toy, w)), compute_uv=False)
        assert svals[1] <= 1e-12 * svals[0]


def test_field_point_vector_view():
    fp = FieldPoint(0, 1j, 2)
    assert np.array_equal(fp.v, np.array([1j, 2.0 + 0j]))


def test_field_point_broadcasts_its_fields_to_one_shape():
    # a scalar field against a batch of the others once failed inside FieldPoint.v
    fp = FieldPoint(0.5, np.ones(3), 2.0)
    assert fp.x.shape == fp.v1.shape == fp.v2.shape == (3,)
    assert np.array_equal(fp.v, np.broadcast_to([1.0 + 0j, 2.0 + 0j], (3, 2)))
    tp = ToyParams(0.6 + 0.1j, 1.3 - 0.4j)
    assert np.array_equal(closed_dirac(tp, fp)[1], closed_dirac(tp, FieldPoint(0.5, 1.0, 2.0)))
    fp = FieldPoint(np.arange(2.0)[:, None], np.ones(3), 1j)
    assert fp.x.shape == fp.v1.shape == fp.v2.shape == (2, 3)
    # a point is a snapshot: a later write into a caller's array moves no field, v included
    fields = list(np.arange(6.0).reshape(3, 2).astype(complex))
    fp = FieldPoint(*fields)
    for f in fields:
        f[0] = 5.0
    assert np.array_equal(np.stack([fp.x, fp.v1, fp.v2]), np.arange(6.0).reshape(3, 2))
    assert np.array_equal(fp.v, np.stack([fp.v1, fp.v2], axis=-1))


def test_field_point_refuses_fields_that_do_not_broadcast():
    # this once constructed and then failed inside closed_dirac
    shapes = r"fields of shapes \[\(2,\), \(3,\), \(3,\)\] do not broadcast"
    with pytest.raises(ValueError, match=shapes):
        FieldPoint(np.zeros(2), np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match=r"\[\(\), \(2, 3\), \(4,\)\]"):
        FieldPoint(1.0, np.ones((2, 3)), np.ones(4))


def test_even_subalgebra_excludes_offdiagonal_first_summand():
    z = np.zeros((2, 2), dtype=complex)
    off = AlgebraElement((np.array([[0, 1], [0, 0]], dtype=complex), z))
    assert not a_ev().contains(off)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spectriple.matrix_core import (
    AntilinearOp,
    adjoint,
    approx_eq,
    as_matrix,
    frob_norm,
    identity,
)


def cmatrices(rows, cols=None):
    cols = rows if cols is None else cols
    part = arrays(
        np.float64,
        (rows, cols),
        elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    )
    return st.builds(lambda re, im: re + 1j * im, part, part)


@given(cmatrices(3))
def test_frob_norm_is_root_sum_of_squared_moduli(a):
    want = sum(abs(a[i, j]) ** 2 for i in range(3) for j in range(3)) ** 0.5
    assert abs(frob_norm(a) - want) <= 1e-10 * max(1.0, want)


@given(cmatrices(3), cmatrices(3))
def test_adjoint_involution_and_antihomomorphism(a, b):
    assert np.array_equal(adjoint(adjoint(a)), a)
    assert np.allclose(adjoint(a @ b), adjoint(b) @ adjoint(a), atol=1e-10)


def test_identity_and_matrix_unit_entries():
    assert np.array_equal(identity(3), np.eye(3))
    e = np.outer(identity(3)[0], identity(3)[2])  # the matrix unit E_02
    assert e[0, 2] == 1.0
    assert frob_norm(e) == 1.0
    assert e.dtype == complex


def test_as_matrix_accepts_lists_and_rejects_vectors():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == complex
    assert m.shape == (2, 2)
    with pytest.raises(ValueError):
        as_matrix([1, 2, 3])


def test_approx_eq_absolute_floor_and_relative_scale():
    a = np.zeros((2, 2))
    b = np.full((2, 2), 1e-10)
    assert approx_eq(a, b, tol=1e-9)
    # at scale 1e6 the same absolute gap of 0.5 passes a relative 1e-6
    big = np.full((2, 2), 1e6)
    assert approx_eq(big, big + 0.5, tol=1e-6)
    assert not approx_eq(big, big + 0.5, tol=1e-13)
    with pytest.raises(ValueError):
        approx_eq(np.zeros((2, 2)), np.zeros((3, 3)))


def test_antilinear_apply_is_m_conj():
    # J xi = m conj(xi), so the hat J T J^{-1} maps J xi to J (T xi)
    rng = np.random.default_rng(4)
    m, t = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2))
    m = np.linalg.qr(m)[0]  # J is antiunitary: m is unitary
    xi = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))  # two vectors
    assert approx_eq(AntilinearOp(m).conjugate(t) @ (m @ np.conj(xi)), m @ np.conj(t @ xi), 1e-12)


def test_antilinear_conjugate_is_multiplicative():
    rng = np.random.default_rng(3)
    m, s, t = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3))
    j = AntilinearOp(np.linalg.qr(m)[0])
    lhs = j.conjugate(s @ t)
    rhs = j.conjugate(s) @ j.conjugate(t)
    assert approx_eq(lhs, rhs, tol=1e-12)
    # a stack of operators is conjugated one by one
    stacked = j.conjugate(np.stack([s, t]))
    assert approx_eq(stacked[0], j.conjugate(s), tol=1e-13)
    assert approx_eq(stacked[1], j.conjugate(t), tol=1e-13)


def test_antilinear_square_matches_composition():
    m = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    j = AntilinearOp(m)
    x = np.array([1.0 + 2.0j, -0.5j])
    assert np.array_equal(j.square() @ x, m @ np.conj(m @ np.conj(x)))  # J(Jx)
    # the symplectic structure squares to -1
    assert np.array_equal(j.square(), -np.eye(2))


def test_antilinear_rejects_singular_matrix_part():
    with pytest.raises(ValueError):
        AntilinearOp(np.zeros((2, 2)))
    # invertible, but J would not be antiunitary
    with pytest.raises(ValueError, match="antiunitary"):
        AntilinearOp(np.diag([2.0, 1.0]))


@pytest.mark.parametrize("where", [(0, 1), (0, 4), (0, 5), (1, 0)])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_antilinear_rejects_non_finite_matrix_part(toy, where, value):
    # the outcome must not depend on LAPACK's pivoting, which reads a NaN at
    # some of these places as a singular matrix and inverts past it at others
    m = toy.j.m.copy()
    m[where] = value
    with pytest.raises(ValueError, match="non-finite entries"):
        AntilinearOp(m)


def test_antilinear_conjugate_shape_check():
    j = AntilinearOp(np.eye(2))
    with pytest.raises(ValueError):
        j.conjugate(np.eye(3))


"""
Module twists: e in M_n(A) with an optional compressed connection twists the
ampliated Dirac operator from both sides; the two orderings must coincide.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectriple import MoritaData, morita, spectral_triple, twisted_dirac_left, twisted_dirac_right
from spectriple.matrix_core import (
    AntilinearOp,
    adjoint,
    approx_eq,
    frob_norm,
    identity,
)
from spectriple.morita import (
    check_idempotent_identity,
    compress_coefficients,
    compress_connection,
    conn_coefficients,
    corner,
    corner_projector,
    random_conn_form,
    random_idempotent,
)
from spectriple.morita import _entries_outside, _entry_coords, _from_entry_coords, _hermitize
from spectriple.perturbation import (
    UniversalOneForm,
    _leg_weights,
    _mult_tensor,
    _random_pairs_form,
    eta_one_form,
    fluctuate,
    fluctuate_combined,
    one_form_star,
    random_one_form,
    random_pert,
)
from spectriple.spectral_triple import (
    AlgebraElement,
    _random_coords,
    random_element,
    represent,
    spanning_set,
)
from spectriple.toy_model import a_f
from test_perturbation import _form_from_pairs, _reference_rmul, _reference_star
from triples import _bimodule_triple, _multi_triple


def _rel(a, b):
    return frob_norm(a - b) / max(1.0, frob_norm(b))


def _unit(n, i, k):
    """The n x n matrix unit E_ik."""
    return np.outer(identity(n)[i], identity(n)[k])


def _reference_hermitize(spec, grid):
    """(B + B*)/2 on pair lists: entry (j, k) is B_jk and (B_kj)* at half weight."""
    n = len(grid)
    return [
        [[(0.5 * x, y) for x, y in grid[j][k] + _reference_star(spec, grid[k][j])]
         for k in range(n)]
        for j in range(n)
    ]


def _entries(spec, x, n):
    """The n x n grid of entries of x in M_n(A), as elements."""
    return [spec.from_coords(row) for row in _entry_coords(x, n)]


def _hermitized(spec, conn):
    """(B + B*)/2 of a grid of one-forms, on the coefficient stack."""
    return morita._forms(spec, _hermitize(spec, conn_coefficients(spec, conn)))


def _reference_compress(spec, e, grid):
    """
    e B e on pair lists through the Leibniz rule: entry (i, l) collects
    e_ij . (x d(y)) . e_kl = (e_ij x) d(y e_kl) - (e_ij x y) d(e_kl) over j, k.
    """
    n = len(grid)
    ents = _entries(spec, e, n)
    return [
        [[(ents[i][j] * x, y) for j in range(n) for k in range(n)
          for x, y in _reference_rmul(grid[j][k], ents[k][l])]
         for l in range(n)]
        for i in range(n)
    ]


def _forms(spec, grid):
    return tuple(tuple(_form_from_pairs(spec, pairs) for pairs in row) for row in grid)


def _raw_pairs(spec, n, rng, n_pairs=1):
    """An n x n grid of random pair lists, drawn in the order of ``random_conn_form``."""
    return [
        [[(random_element(spec, rng), random_element(spec, rng)) for _ in range(n_pairs)]
         for _ in range(n)]
        for _ in range(n)
    ]


def _max_rel(conn, spec, grid):
    """Largest relative distance between the entries of conn and the pair lists of grid."""
    return max(
        _rel(w.omega, _form_from_pairs(spec, pairs).omega)
        for row, ref_row in zip(conn, grid)
        for w, pairs in zip(row, ref_row)
    )


def _reference_rep_conn(t, n, grid, base, hatted):
    """
    The connection action pair by pair: for every entry (i, k) and universal
    pair (x, y) of its pair list, add  L(x) [base, 1 (x) 1 (x) rho(y)]  with rho = pi and
    L(x) = E_ik (x) 1 (x) pi(x) on the left leg, rho = hat o pi and
    L(x) = 1 (x) E_ik (x) hat(pi(x)) on the hatted right leg.  Both act blockwise
    on the n^2 copies of H, and L(x) reads only the rows whose leg index is k.
    """
    rho = (lambda a: t.hat(represent(t, a))) if hatted else (lambda a: represent(t, a))
    dh = t.dim_h
    rows = base.reshape(n, n, dh, -1)  # (left leg, hatted leg, H, column)
    out = np.zeros_like(rows)
    for i in range(n):
        for k in range(n):
            src = rows[:, k] if hatted else rows[k]  # the rows of leg index k: (n, dh, column)
            dst = out[:, i] if hatted else out[i]
            for x, y in grid[i][k]:
                ry = rho(y)
                comm = (src.reshape(n, dh, n * n, dh) @ ry).reshape(src.shape) - ry @ src
                dst += rho(x) @ comm
    return out.reshape(base.shape)


def _on_leg(cells, hatted):
    """
    Place cell operators on C^n (x) C^n (x) H: ``cells[..., i, k]`` (each on H)
    fills cell (i, k) of the left C^n leg, or of the right leg when ``hatted``,
    with the identity on the other leg.  Leading axes are kept.
    """
    n, dim_h = cells.shape[-3], cells.shape[-1]
    layout = "...jkhg,il->...ijhlkg" if hatted else "...ikhg,jl->...ijhklg"
    dim = n * n * dim_h
    return np.einsum(layout, cells, identity(n)).reshape(cells.shape[:-4] + (dim, dim))


def _pi_big(t, n, x):
    """M_n(A) acting through the left C^n leg."""
    return _on_leg(morita._cells(t, n, x, hatted=False), hatted=False)


def _pi_hat_big(t, n, x):
    """M_n(A) acting through the right C^n leg, with hatted fibre operators."""
    return _on_leg(morita._cells(t, n, x, hatted=True), hatted=True)


def _d_big(t, n):
    """1 (x) 1 (x) D on C^n (x) C^n (x) H."""
    return np.kron(identity(n * n), t.d)


def _rep_conn(t, n, omega, base, hatted=False):
    """
    Action on ``base`` of a connection with coefficients ``omega`` (see
    :func:`conn_coefficients`) through one leg:

        sum_beta L_beta base (1 (x) 1 (x) rho(e_beta)),

    where e_beta runs over the ambient matrix units of A, rho is pi on the
    left leg and hat o pi on the hatted right leg, and L_beta puts
    W^ik_beta = sum_alpha omega[i, k, alpha, beta] rho(e_alpha) in cell (i, k)
    of that leg.  Pair by pair this is (E_ik (x) 1 (x) rho(x)) [base, 1 (x) 1 (x) rho(y)].
    """
    weights, rho = _leg_weights(t, omega, hatted)  # (i, k, beta, h, g), (beta, g, f)
    dim_h, dim = t.dim_h, base.shape[-1]
    right = (base.reshape(-1, dim_h) @ rho).reshape(len(rho), n, n, dim_h, dim)
    # right[beta, i, j, g, c] = (base (1 (x) 1 (x) rho(e_beta)))[(i, j, g), c]
    out = np.tensordot(weights, right, axes=((2, 1, 4), (0, 2 if hatted else 1, 3)))
    # left leg: (i, h, j, c); hatted leg: (j, h, i, c)
    return out.transpose((2, 0, 1, 3) if hatted else (0, 2, 1, 3)).reshape(dim, dim)


def _one_sided(md, base, hatted):
    """One leg's twist as dense products: _pi_big(e) base (_pi_hat_big when hatted) + _rep_conn."""
    out = (_pi_hat_big if hatted else _pi_big)(md.triple, md.size, md.idem) @ base
    return out if md.omega is None else out + _rep_conn(md.triple, md.size, md.omega, base, hatted)


def _dense_twist(md, hatted_first):
    """Both legs' twists of 1 (x) 1 (x) D, the first leg's before the second's, densely."""
    base = _d_big(md.triple, md.size)
    return _one_sided(md, _one_sided(md, base, hatted_first), not hatted_first)


def _sequential_coords(spec, rng, shape):
    """Coordinates of ``random_element`` draws made one at a time, in row-major order."""
    draws = [random_element(spec, rng).vec() for _ in range(int(np.prod(shape)))]
    return np.array(draws).reshape(shape + (spec.ambient_dim,))


def _induced_real_structure(t, n):
    """Real structure on C^n (x) C^n (x) H: swap the two C^n legs, J in the fibre."""
    # row (i, j) of the swap is row (j, i) of the identity
    swap = identity(n * n).reshape(n, n, n * n).transpose(1, 0, 2).reshape(n * n, n * n)
    return AntilinearOp(np.kron(swap, t.j.m))


def _zeroth_order_induced(t, n):
    """
    Max commutator norm between the left action of M_n(A) and the conjugate
    of its adjoint under the induced real structure (NaN if any norm is NaN),
    over E_ij (x) pi(s) for the spanning set s, one pair at a time.
    """
    jp = _induced_real_structure(t, n)
    reps = np.array([represent(t, s) for s in spanning_set(t.algebra)])
    dim = n * n * t.dim_h
    cells = np.einsum("ik,jl,shg->ijsklhg", identity(n), identity(n), reps)  # E_ij (x) pi(s)
    lefts = _on_leg(cells, hatted=False).reshape(-1, dim, dim)
    rights = jp.conjugate(np.conj(lefts).swapaxes(1, 2))
    return float(
        np.max([np.linalg.norm(left @ rights - rights @ left, axis=(1, 2)) for left in lefts])
    )


def _mn_unit(spec, n):
    return _from_entry_coords(spec.summands, identity(n)[..., None] * spec.unit().vec())


def _random_mn(spec, n, rng):
    return _from_entry_coords(spec.summands, _random_coords(spec, rng, (n, n)))


def test_rank_one_unit_module_gives_back_d(toy):
    md = MoritaData(toy, 1, toy.algebra.unit())
    assert np.array_equal(twisted_dirac_left(md), toy.d)
    assert np.array_equal(twisted_dirac_right(md), toy.d)


def test_diagonal_projection_cuts_the_corner(toy):
    # e = diag(1, 0) embeds D into the (0,0) cell of the doubled index grid
    spec = toy.algebra
    e = _from_entry_coords(spec.summands, _unit(2, 0, 0)[..., None] * spec.unit().vec())
    md = MoritaData(toy, 2, e)
    want = np.zeros((32, 32), dtype=complex)
    want[0:8, 0:8] = toy.d
    assert np.array_equal(twisted_dirac_left(md), want)
    assert np.array_equal(twisted_dirac_right(md), want)


def test_unit_module_with_diagonal_connection_reduces_entrywise(toy, rng):
    # e = 1_n with conn = diag(w): the twist acts like the rank-one case in
    # every diagonal cell
    n = 2
    w = _form_from_pairs(toy.algebra, ((random_element(toy.algebra, rng),) * 2,))
    zero_form = _form_from_pairs(toy.algebra, ())
    conn = tuple(
        tuple(w if i == k else zero_form for k in range(n)) for i in range(n)
    )
    conn = _hermitized(toy.algebra, conn)
    md = MoritaData(toy, n, _mn_unit(toy.algebra, n), conn)
    big = twisted_dirac_left(md)
    small = MoritaData(toy, 1, toy.algebra.unit(), ((conn[0][0],),))
    cell = twisted_dirac_left(small)
    for i in range(n):
        sl = slice(i * (n * 8) + i * 8, i * (n * 8) + (i + 1) * 8)
        assert approx_eq(big[sl, sl], cell, 1e-12)


@pytest.mark.parametrize("eps_d, seed", [(None, 0), (None, 1), (None, 2), (None, 3), (1, 0), (-1, 0)],
                         ids=["0", "1", "2", "3", "bimodule+", "bimodule-"])
def test_inner_fluctuations_are_the_unit_module_twist(toy, eps_d, seed):
    # the Morita self-equivalence e = 1 in M_1(A) with connection w twists D on both sides into
    # D + A_1 + eps_d J A_1 J^-1 + A_2, the quadratic term of a failing first-order condition
    # included; with eta(p) as the connection, into the fluctuation by p.  On the toy, and on
    # the bimodule triple (several summands, H = C^10) at eps_d = +1 and -1
    t = toy if eps_d is None else _bimodule_triple(eps_d)
    rng = np.random.default_rng(seed)
    spec = t.algebra
    w, p = random_one_form(spec, rng), random_pert(spec, rng)
    for conn, want in ((w, fluctuate(t, w)), (eta_one_form(p), fluctuate_combined(t, p))):
        md = MoritaData(t, 1, spec.unit(), ((conn,),))
        assert frob_norm(corner(md, twisted_dirac_left(md)) - want) < 1e-12
    # at n = 2, e = 1_2 with the connection diag(w, w) twists every cell of C^2 (x) C^2 alike
    zero = UniversalOneForm(spec, np.zeros((spec.ambient_dim,) * 2))
    md = MoritaData(t, 2, _mn_unit(spec, 2), ((w, zero), (zero, w)))
    want = np.kron(identity(4), fluctuate(t, w))
    assert frob_norm(corner(md, twisted_dirac_left(md)) - want) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("self_adjoint", [True, False])
def test_twist_orderings_agree(toy, n, self_adjoint):
    rng = np.random.default_rng(100 * n + self_adjoint)
    e = random_idempotent(toy, n, rng, self_adjoint=self_adjoint)
    for conn in (None, random_conn_form(toy, n, rng, e)):
        md = MoritaData(toy, n, e, conn)
        left, right = twisted_dirac_left(md), twisted_dirac_right(md)
        assert _rel(left, right) < 1e-12


def test_idempotent_identity_vanishes(toy):
    for n in (1, 2, 3):
        rng = np.random.default_rng(n)
        e = random_idempotent(toy, n, rng, self_adjoint=(n % 2 == 0))
        assert check_idempotent_identity(toy, n, e) < 1e-12
    assert check_idempotent_identity(toy, 2, _mn_unit(toy.algebra, 2)) == 0.0


def test_random_idempotents_are_what_they_claim(toy, rng):
    e = random_idempotent(toy, 2, rng, self_adjoint=True)
    assert [len(b) for b in e.blocks] == [4, 4]  # M_2(A): blocks of size 2 * m_s

    def gap(x, y):  # the largest distance between corresponding entries
        return np.max(np.linalg.norm(_entry_coords(x, 2) - _entry_coords(y, 2), axis=-1))

    assert gap(e * e, e) < 1e-10 and gap(e.star(), e) < 1e-10
    assert not _entries_outside(toy.algebra, e, 2)
    skew = random_idempotent(toy, 2, rng, self_adjoint=False)
    assert gap(skew.star(), skew) > 1e-3  # genuinely not self-adjoint
    assert gap(skew * skew, skew) < 1e-8


def test_the_draw_and_the_bundle_share_one_membership_tolerance(toy, monkeypatch):
    # every entry pushed a relative 5e-9 off the span: the bundle refuses it, so the draw must
    # redraw it too instead of handing MoritaData an idempotent it then refuses
    e = random_idempotent(toy, 2, np.random.default_rng(0))
    off = np.random.default_rng(1).standard_normal(toy.algebra.ambient_dim)
    off = off - off @ toy.algebra._proj.T
    off /= np.linalg.norm(off)

    def pushed(x, n):
        coords = _entry_coords(x, n)
        return coords + 5e-9 * np.maximum(1.0, np.linalg.norm(coords, axis=-1))[..., None] * off

    monkeypatch.setattr(morita, "_entry_coords", pushed)
    with pytest.raises(ValueError, match="idempotent entry is not in the algebra"):
        MoritaData(toy, 2, e)
    for self_adjoint in (True, False):
        with pytest.raises(RuntimeError, match="could not draw a clean random idempotent"):
            random_idempotent(toy, 2, np.random.default_rng(0), self_adjoint=self_adjoint)


def test_corner_projector_is_idempotent_and_corner_self_adjoint(toy):
    rng = np.random.default_rng(8)
    e = random_idempotent(toy, 2, rng, self_adjoint=True)
    conn = random_conn_form(toy, 2, rng, e)
    md = MoritaData(toy, 2, e, conn)
    p = corner_projector(md)
    assert approx_eq(p @ p, p, 1e-10)
    c = corner(md, twisted_dirac_left(md))
    assert approx_eq(c, adjoint(c), 1e-10)
    # the corner is the restriction of the full twist
    assert approx_eq(p @ twisted_dirac_left(md) @ p, c, 1e-12)


def test_hermitized_connection_represents_self_adjointly(toy, rng):
    n = 2
    raw = tuple(
        tuple(
            _form_from_pairs(toy.algebra, ((random_element(toy.algebra, rng),) * 2,))
            for _ in range(n)
        )
        for _ in range(n)
    )
    herm = _hermitize(toy.algebra, conn_coefficients(toy.algebra, raw))
    op = _rep_conn(toy, n, herm, _d_big(toy, n))
    assert approx_eq(op, adjoint(op), 1e-12)


def test_compress_connection_is_a_projection(toy, rng):
    e = random_idempotent(toy, 2, rng)
    raw = tuple(
        tuple(
            _form_from_pairs(toy.algebra, ((random_element(toy.algebra, rng),) * 2,))
            for _ in range(2)
        )
        for _ in range(2)
    )
    once = compress_connection(e, raw)
    twice = compress_connection(e, once)
    MoritaData(toy, 2, e, once)  # construction revalidates e B e = B
    base = _d_big(toy, 2)
    assert approx_eq(
        _rep_conn(toy, 2, conn_coefficients(toy.algebra, twice), base),
        _rep_conn(toy, 2, conn_coefficients(toy.algebra, once), base),
        1e-10,
    )


_TRIPLES = {
    "a_ev": lambda toy: toy,
    "a_f": lambda toy: dataclasses.replace(toy, algebra=a_f()),
    "multi": lambda toy: _multi_triple(),
}


def _check_action_against_the_pairwise_loop(t, n, hatted, compressed):
    spec, rng = t.algebra, np.random.default_rng(40 + n)
    grid = _raw_pairs(spec, n, rng)
    conn = _forms(spec, grid)
    if compressed:
        e = random_idempotent(t, n, rng, self_adjoint=False)
        conn = compress_connection(e, _hermitized(spec, conn))
        grid = _reference_compress(spec, e, _reference_hermitize(spec, grid))
    dim = n * n * t.dim_h
    base = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    got = _rep_conn(t, n, conn_coefficients(spec, conn), base, hatted)
    want = _reference_rep_conn(t, n, grid, base, hatted)
    assert _rel(got, want) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("hatted", [False, True])
@pytest.mark.parametrize("compressed", [False, True])
def test_coefficient_action_matches_the_pairwise_loop(toy, n, hatted, compressed):
    _check_action_against_the_pairwise_loop(toy, n, hatted, compressed)


@pytest.mark.parametrize("which, n, compressed", [
    (which, n, compressed)
    for which in ("a_f", "multi")
    for n in (1, 2, 3)
    for compressed in (False, True)
])
@pytest.mark.parametrize("hatted", [False, True])
def test_coefficient_action_matches_the_pairwise_loop_on_other_triples(
    toy, which, n, hatted, compressed
):
    _check_action_against_the_pairwise_loop(_TRIPLES[which](toy), n, hatted, compressed)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compress_coefficients_matches_universal_compression(toy, n):
    # the validation's e B e on coefficients is the universal e B e
    rng = np.random.default_rng(50 + n)
    e = random_idempotent(toy, n, rng, self_adjoint=False)
    grid = _raw_pairs(toy.algebra, n, rng)
    got = compress_coefficients(e, conn_coefficients(toy.algebra, _forms(toy.algebra, grid)))
    spec = toy.algebra
    want = conn_coefficients(spec, _forms(spec, _reference_compress(spec, e, grid)))
    assert frob_norm(got - want) < 1e-12 * max(1.0, frob_norm(want))


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(sorted(_TRIPLES)),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_hermitize_and_compress_match_the_leibniz_pair_formulas(toy, which, n, sa, seed):
    t = _TRIPLES[which](toy)
    spec, rng = t.algebra, np.random.default_rng(seed)
    e = random_idempotent(t, n, rng, self_adjoint=sa)
    grid = _raw_pairs(spec, n, rng, n_pairs=2)
    herm, ref = _hermitized(spec, _forms(spec, grid)), _reference_hermitize(spec, grid)
    assert _max_rel(herm, spec, ref) < 1e-12
    assert _max_rel(compress_connection(e, herm), spec, _reference_compress(spec, e, ref)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_conn_form_matches_the_reference_pair_path(toy, n):
    # the same draws, hermitized and compressed pair by pair
    spec = toy.algebra
    e = random_idempotent(toy, n, np.random.default_rng(80 + n), self_adjoint=False)
    conn = random_conn_form(toy, n, np.random.default_rng(90 + n), e)
    grid = _raw_pairs(spec, n, np.random.default_rng(90 + n))
    want = _reference_compress(spec, e, _reference_hermitize(spec, grid))
    assert _max_rel(conn, spec, want) < 1e-12


@pytest.mark.parametrize("which", sorted(_TRIPLES))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cell_form_twists_match_the_dense_formulas(toy, which, n):
    # _pi_big(e) base + _rep_conn per leg, on 1 (x) 1 (x) D, both orders, skewed e
    t = _TRIPLES[which](toy)
    rng = np.random.default_rng(110 + n)
    e = random_idempotent(t, n, rng, self_adjoint=False)
    for conn in (None, random_conn_form(t, n, rng, e)):
        md = MoritaData(t, n, e, conn)
        assert _rel(twisted_dirac_left(md), _dense_twist(md, hatted_first=False)) < 1e-12
        assert _rel(twisted_dirac_right(md), _dense_twist(md, hatted_first=True)) < 1e-12
        want = _pi_big(t, n, e) @ _pi_hat_big(t, n, e)
        assert _rel(corner_projector(md), want) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_pairs", [1, 2])
def test_random_draws_match_the_sequential_draws_bit_for_bit(toy, monkeypatch, n, n_pairs):
    spec = toy.algebra
    e = random_idempotent(toy, n, np.random.default_rng(120 + n), self_adjoint=False)
    rng, ref = np.random.default_rng(n), np.random.default_rng(n)
    # the pair draw of an n x n grid of forms of n_pairs pairs each, then random_conn_form's (one)
    omega = _random_pairs_form(spec, rng, n_pairs, (n, n))
    raw = _forms(spec, _raw_pairs(spec, n, ref, n_pairs))
    assert np.array_equal(omega, conn_coefficients(spec, raw))
    conn = random_conn_form(toy, n, rng, e)
    raw = _forms(spec, _raw_pairs(spec, n, ref))
    herm = [[UniversalOneForm(spec, 0.5 * (raw[j][k] + one_form_star(raw[k][j])).omega)
             for k in range(n)] for j in range(n)]
    want = compress_coefficients(e, conn_coefficients(spec, herm))
    assert np.array_equal(conn_coefficients(spec, conn), want)
    assert rng.bit_generator.state == ref.bit_generator.state
    # random_idempotent: each n x n grid as one draw, against entry-by-entry draws
    got = [random_idempotent(toy, n, rng, self_adjoint=sa) for sa in (True, False)]
    # the one draw lives in spectral_triple; random_idempotent reads morita's import of it,
    # and _sequential_coords reads random_element, which reads spectral_triple's
    assert morita._random_coords is spectral_triple._random_coords
    monkeypatch.setattr(morita, "_random_coords", _sequential_coords)
    for sa, x in zip((True, False), got):
        assert np.array_equal(random_idempotent(toy, n, ref, self_adjoint=sa).vec(), x.vec())
    assert rng.bit_generator.state == ref.bit_generator.state


def test_validation_rejects_non_finite_entries(toy):
    unit = toy.algebra.unit()
    nan_elem = float("nan") * unit
    with pytest.raises(ValueError, match="idempotent has non-finite"):
        MoritaData(toy, 1, nan_elem)
    # the pair reader refuses non-finite pairs, so build the coefficients directly
    for bad in (np.nan, np.inf):
        omega = np.zeros((8, 8), dtype=complex)
        omega[4, 0] = bad
        conn = ((UniversalOneForm(toy.algebra, omega),),)
        with pytest.raises(ValueError, match="connection has non-finite"):
            MoritaData(toy, 1, unit, conn)


def test_reducers_pass_nan_through(toy, monkeypatch):
    nan_elem = float("nan") * toy.algebra.unit()
    assert np.isnan(check_idempotent_identity(toy, 1, nan_elem))
    monkeypatch.setitem(globals(), "_on_leg", lambda cells, hatted: np.full(
        cells.shape[:-4] + (toy.dim_h, toy.dim_h), np.nan, dtype=complex))
    assert np.isnan(_zeroth_order_induced(toy, 1))


def test_morita_data_builds_its_projectors_once(toy, monkeypatch):
    # a bundle with a connection, both twists and both corners: e's entry coordinates are
    # gathered once for the bundle and once inside compress_coefficients (e^2 - e is gathered for
    # its own defect), each leg's cells are one product with the table, one corner projector
    rng = np.random.default_rng(9)
    e = random_idempotent(toy, 2, rng)
    conn = random_conn_form(toy, 2, rng, e)
    gathered, reps, projectors = [], [], []
    coords_of, rep, projector = morita._entry_coords, type(toy).rep, morita.corner_projector
    monkeypatch.setattr(morita, "_entry_coords", lambda x, n: gathered.append(x) or coords_of(x, n))
    monkeypatch.setattr(type(toy), "rep", lambda t, c, h=False: reps.append(c) or rep(t, c, h))
    monkeypatch.setattr(morita, "corner_projector",
                        lambda md: projectors.append(md) or projector(md))
    md = MoritaData(toy, 2, e, conn)
    left, right = twisted_dirac_left(md), twisted_dirac_right(md)
    assert approx_eq(corner(md, left), corner(md, right), 1e-12)
    assert _rel(left, right) < 1e-12
    assert [x is e for x in gathered] == [True, False, True]
    assert sum(c is md.coords for c in reps) == 2  # pi_big(e) and pi_hat_big(e), once each
    assert projectors == [md]


def _reference_idempotent_identity(t, n, e):
    """check_idempotent_identity with the commutator [1 (x) D, P] of the dense kron(1, D)."""
    dim = n * t.dim_h
    p = morita._cells(t, n, e, hatted=False).transpose(0, 2, 1, 3).reshape(dim, dim)
    big_d = np.kron(identity(n), t.d)
    acc = p @ (big_d @ p - p @ big_d) @ p
    norms = np.linalg.norm(acc.reshape(n, t.dim_h, n, t.dim_h), axis=(1, 3))
    return float(np.max(norms)), frob_norm(big_d @ p) * frob_norm(p) ** 2


def _reference_compress_coefficients(e, omega):
    """compress_coefficients with the maps of the entries from np.tensordot."""
    n, _, d, _ = omega.shape
    coords, summands = _entry_coords(e, n), tuple(len(b) // n for b in e.blocks)
    maps = (np.tensordot(coords, _mult_tensor(summands, side), 1) for side in (True, False))
    left, right = (m.transpose(0, 2, 1, 3).reshape(n * d, n * d) for m in maps)
    big = omega.transpose(0, 2, 1, 3).reshape(n * d, n * d)
    return (left @ big @ right).reshape(n, d, n, d).transpose(0, 2, 1, 3)


@pytest.mark.parametrize("which", ["toy", "multi", "bimodule"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_blockwise_products_match_the_kron_and_tensordot_formulas(toy, which, n):
    # the blockwise commutator rounds apart from the dense kron(1, D) one only at the scale of
    # its terms, |(1 (x) D) P| |P|^2; the compression maps are the tensordot maps
    t = {"toy": toy, "multi": _multi_triple(), "bimodule": _bimodule_triple(1)}[which]
    for sa in (True, False):
        rng = np.random.default_rng(130 + 2 * n + sa)
        e = random_idempotent(t, n, rng, self_adjoint=sa)
        want, scale = _reference_idempotent_identity(t, n, e)
        assert abs(check_idempotent_identity(t, n, e) - want) <= 1e-15 * scale
        omega = conn_coefficients(t.algebra, _forms(t.algebra, _raw_pairs(t.algebra, n, rng, 2)))
        want = _reference_compress_coefficients(e, omega)
        assert frob_norm(compress_coefficients(e, omega) - want) <= 1e-15 * frob_norm(want)


def test_mn_summands_are_the_block_sizes_of_an_integer_module_size(toy):
    spec = toy.algebra
    assert morita._mn_summands(spec, 2) == morita._mn_summands(spec, np.int64(2)) == (4, 4)
    for n in (0, True, 1.5):  # True is no module size, although it equals 1
        with pytest.raises(ValueError, match=f"^module size n must be an integer >= 1, got {n!r}$"):
            morita._mn_summands(spec, n)


def test_validation_rejects_non_idempotent(toy):
    unit = toy.algebra.unit()
    half = 0.5 * unit
    with pytest.raises(ValueError, match="idempotent"):
        MoritaData(toy, 1, half)


def test_idempotent_tolerance_scales_with_the_squared_entry_norm(toy):
    # e = [[1, -s], [0, 0]] times the unit is a skewed idempotent with entry norm 2s; entry
    # (1, 1) moved to delta stays in the algebra and makes |e^2 - e| = 2 s delta
    spec, s = toy.algebra, 100.0
    unit = spec.unit().vec()
    bound = 1e-8 * (2.0 * s) ** 2
    for ratio in (0.5, 2.0):
        delta = ratio * bound / (2.0 * s)
        coords = np.array([[unit, -s * unit], [0 * unit, delta * unit]])
        e = _from_entry_coords(spec.summands, coords)
        norm, defect = (np.linalg.norm(_entry_coords(x, 2), axis=-1).max() for x in (e, e * e - e))
        assert defect / (1e-8 * norm**2) == pytest.approx(ratio, rel=1e-3)
        if ratio < 1.0:
            MoritaData(toy, 2, e)
        else:
            with pytest.raises(ValueError, match="not idempotent"):
                MoritaData(toy, 2, e)


def test_validation_rejects_uncompressed_connection(toy, rng):
    e = random_idempotent(toy, 2, rng)
    raw = tuple(
        tuple(
            _form_from_pairs(toy.algebra, ((random_element(toy.algebra, rng),) * 2,))
            for _ in range(2)
        )
        for _ in range(2)
    )
    with pytest.raises(ValueError, match="compressed"):
        MoritaData(toy, 2, e, raw)


def test_induced_real_structure_swaps_legs_and_squares_to_plus_one(toy):
    assert np.array_equal(_induced_real_structure(toy, 1).m, toy.j.m)
    for n in (2, 3):
        jp = _induced_real_structure(toy, n)
        assert approx_eq(jp.square(), identity(n * n * 8), 1e-12)
        # swap (x) J: check one off-diagonal cell explicitly
        want = np.kron(
            sum(
                np.kron(_unit(n, i, j), _unit(n, j, i))
                for i in range(n)
                for j in range(n)
            ),
            toy.j.m,
        )
        assert np.array_equal(jp.m, want)


def test_induced_real_structure_commutes_with_the_twist(toy):
    # KO sign eps_d = +1 carries over to the module operator
    rng = np.random.default_rng(21)
    e = random_idempotent(toy, 2, rng, self_adjoint=True)
    md = MoritaData(toy, 2, e)
    o = twisted_dirac_left(md)
    assert frob_norm(o) > 0.1  # nondegenerate draw
    jp = _induced_real_structure(toy, 2)
    assert approx_eq(jp.conjugate(o), o, 1e-12)


def test_induced_zeroth_order(toy):
    assert _zeroth_order_induced(toy, 2) < 1e-12


def test_left_and_hatted_actions_commute_on_the_module(toy, rng):
    n = 2
    x = _random_mn(toy.algebra, n, rng)
    y = _random_mn(toy.algebra, n, rng)
    a, b = _pi_big(toy, n, x), _pi_hat_big(toy, n, y)
    assert frob_norm(a @ b - b @ a) < 1e-12


def _reference_pi_big(t, n, x, hatted):
    """sum_ik kron(E_ik, kron(1, pi(x_ik))), or kron(1, kron(E_ik, hat(pi(x_ik)))) when hatted."""
    out = np.zeros((n * n * t.dim_h,) * 2, dtype=complex)
    for i, row in enumerate(_entries(t.algebra, x, n)):
        for k, entry in enumerate(row):
            cell = _unit(n, i, k)
            if hatted:
                out += np.kron(identity(n), np.kron(cell, t.hat(represent(t, entry))))
            else:
                out += np.kron(cell, np.kron(identity(n), represent(t, entry)))
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pi_big_and_pi_hat_big_match_the_entrywise_sum(toy, n):
    rng = np.random.default_rng(60 + n)
    x = _random_mn(toy.algebra, n, rng)
    assert frob_norm(_pi_big(toy, n, x) - _reference_pi_big(toy, n, x, False)) < 1e-14
    assert frob_norm(_pi_hat_big(toy, n, x) - _reference_pi_big(toy, n, x, True)) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
def test_grid_constructor_and_entry_accessor_round_trip(toy, n):
    rng = np.random.default_rng(70 + n)
    spec = toy.algebra
    coords = _random_coords(spec, rng, (n, n))
    x = _from_entry_coords(spec.summands, coords)
    assert [len(b) for b in x.blocks] == [n * m for m in spec.summands]
    assert np.array_equal(_entry_coords(x, n), coords)
    again = _from_entry_coords(spec.summands, _entry_coords(x, n))
    assert all(np.array_equal(a, b) for a, b in zip(again.blocks, x.blocks))
    # products in M_n(A) are the matrix products of the entries
    y = _random_mn(spec, n, rng)
    grid, xy, ys = (_entries(spec, z, n) for z in (x, x * y, y))
    for i in range(n):
        for k in range(n):
            want = grid[i][0] * ys[0][k]
            for j in range(1, n):
                want = want + grid[i][j] * ys[j][k]
            assert np.linalg.norm((xy[i][k] - want).vec()) < 1e-12


def test_validation_rejects_an_idempotent_of_the_wrong_size(toy, rng):
    e = random_idempotent(toy, 2, rng)
    with pytest.raises(ValueError, match="must be an 3x3 matrix"):
        MoritaData(toy, 3, e)
    with pytest.raises(ValueError, match="does not match the triple's algebra"):
        _pi_big(toy, 3, e)
    # a module size that is not an integer >= 1, with one message
    for n in (0, -1, 1.5, True, "2"):
        for call in (lambda: random_idempotent(toy, n, rng), lambda: MoritaData(toy, n, e),
                     lambda: random_conn_form(toy, n, rng, e)):
            with pytest.raises(ValueError, match="module size n must be an integer >= 1"):
                call()


def test_validation_rejects_an_entry_outside_the_algebra(toy):
    # a self-adjoint projection in the first summand with off-diagonal entries:
    # idempotent, but outside the even subalgebra (diagonal first summand)
    proj = np.full((2, 2), 0.5, dtype=complex)
    outside = AlgebraElement((proj, np.zeros((2, 2), dtype=complex)))
    assert not toy.algebra.contains(outside)
    with pytest.raises(ValueError, match="idempotent entry is not in the algebra"):
        MoritaData(toy, 1, outside)
    coords = np.zeros((2, 2, toy.algebra.ambient_dim), dtype=complex)
    coords[0, 0], coords[1, 1] = toy.algebra.unit().vec(), outside.vec()
    with pytest.raises(ValueError, match="idempotent entry is not in the algebra"):
        MoritaData(toy, 2, _from_entry_coords(toy.algebra.summands, coords))

"""
Test triples other than the toy.

``_tiled_triple`` and ``_multi_triple`` have a generic D, a generic unitary matrix
part of J and gamma = 1, and are built with ``validate=False``: they break order
zero, so they check formulas against reference code, not the paper's theorems.
``_bimodule_triple`` is a real even triple that passes validation; the theorems
are checked on it.  ``spanning_set`` lists an algebra's spanning set as elements.
"""

from functools import lru_cache

import numpy as np

from spectriple import AlgebraSpec, AntilinearOp, FiniteSpectralTriple, KOSigns, RepBlock
from spectriple.matrix_core import adjoint, identity


def spanning_set(spec: AlgebraSpec) -> list:
    """The constraint basis of ``spec``, or else the matrix units of every summand in vec() order."""
    return list(spec.basis) if spec.basis is not None else spec.from_coords(identity(spec.ambient_dim))


def _tiled_triple(summands, tiles, order, seed=0):
    """
    A validate=False triple over the given summands: ``tiles`` are
    (summand, left, right) and are laid out on H in the order ``order``;
    D is a generic hermitian matrix and the matrix part of J the unitary Q
    of the QR factorization of a generic complex matrix.
    """
    spec = AlgebraSpec(summands)
    sizes = [left * spec.summands[s] * right for s, left, right in tiles]
    offsets, at = [0] * len(tiles), 0
    for idx in order:
        offsets[idx], at = at, at + sizes[idx]
    rng = np.random.default_rng(seed)
    x, m = (rng.standard_normal((at, at)) + 1j * rng.standard_normal((at, at)) for _ in range(2))
    blocks = tuple(RepBlock(*tile, offset=o) for tile, o in zip(tiles, offsets))
    signs = KOSigns(eps_j=+1, eps_d=+1, eps_gamma=+1)
    j = AntilinearOp(np.linalg.qr(m)[0])
    return FiniteSpectralTriple(
        spec, at, blocks, x + adjoint(x), j, identity(at), signs, validate=False
    )


def _multi_triple():
    """M1 + M3 + M2 with several tiles per summand, multiplicities above 1, shuffled offsets."""
    tiles = ((1, 1, 2), (0, 2, 1), (2, 2, 1), (1, 2, 1), (0, 1, 1), (2, 1, 3))
    return _tiled_triple((1, 3, 2), tiles, order=(3, 0, 5, 1, 4, 2))


@lru_cache(maxsize=None)
def _bimodule_triple(eps_d: int) -> FiniteSpectralTriple:
    """
    A Krajewski bimodule (arXiv:hep-th/9701081) over A = M1 + M3 + M2, validated.

    H = C^10 is the sum of the components C^{n_i} (x) C^{n_j} for (i, j) = (0, 1),
    (1, 0), (2, 2), with the tile RepBlock(i, 1, n_j) on each.  J maps (i, j) to
    (j, i) by swapping the factors, then conjugates: m is a permutation matrix, so
    J^2 = 1, and the right action works on the second factors, which gives order
    zero.  gamma is +1, +1, -1 on the components, so J gamma = gamma J, and
    D = (D0 + eps_d J D0 J^-1) / 2 for a random hermitian D0 odd for gamma.  A
    generic D0 breaks the first-order condition.
    """
    summands, comps = (1, 3, 2), ((0, 1), (1, 0), (2, 2))
    sizes = [summands[i] * summands[j] for i, j in comps]
    offsets = np.cumsum([0, *sizes])
    n = int(offsets[-1])
    m = np.zeros((n, n))
    for c, (i, j) in enumerate(comps):  # e_a (x) e_b in (i, j) goes to e_b (x) e_a in (j, i)
        a, b = np.divmod(np.arange(sizes[c]), summands[j])
        m[offsets[comps.index((j, i))] + b * summands[i] + a, offsets[c] + a * summands[j] + b] = 1
    gamma = np.diag(np.repeat([1.0, 1.0, -1.0], sizes)).astype(complex)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    d0 = x + adjoint(x)
    d0 = 0.5 * (d0 - gamma @ d0 @ gamma)
    d = 0.5 * (d0 + eps_d * m @ np.conj(d0) @ m.T)
    blocks = tuple(RepBlock(i, 1, summands[j], int(o)) for (i, j), o in zip(comps, offsets))
    return FiniteSpectralTriple(AlgebraSpec(summands), n, blocks, d, AntilinearOp(m), gamma,
                                KOSigns(eps_j=+1, eps_d=eps_d, eps_gamma=+1))

"""
Spectral action of the toy model, its closed form, and tools to explore it.

The potential is V(D') = -(f2/2 pi^2) L^2 Tr(D'^2) + (f0/8 pi^2) Tr(D'^4),
evaluated on fluctuated operators.  Because the fluctuation closes on the
field pair (x, v), V reduces to a polynomial in |x|^2 and |v|^2, which this
module exposes both through honest traces and through the closed form.
Its grid scan reads only the rows next to each column's vertex, O(n) of n^2 nodes.

Minimization works on the real chart

    coords = (x, s1, s2)  ->  FieldPoint(x, 1 + s1, s2),

so the origin of the chart is the unfluctuated point.  Objectives are
vectorized: ``fun`` maps chart points of shape (..., n) to values of shape
(...), and a single point of shape (n,) gives a float.  Every
finite-difference stencil is therefore one call.  The optimizer is scipy's
truncated-CG trust-region Newton method ("trust-ncg") on central-difference
derivatives of the objective's values alone, with a gradient-norm gate of 1e-10.
One cached table per number n of free coordinates holds every point of a trial
point z as unit offsets with each row's step: the 2n gradient rows (3e-6), then
the 1 + 2n + 2n(n - 1) rows of the Hessian stencil (1e-4), placed at
z + table * (steps * max(1, |z|)).  ``grad_hess`` reads the Hessian rows of the same table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matrix_core import _AXIOM_TOL, _within_each
from .spectral_triple import FiniteSpectralTriple, _integer, _number, _span_reps
from .toy_model import FieldPoint, ToyParams, closed_dirac

__all__ = [
    "ActionParams",
    "CriticalPoint",
    "MinimizeResult",
    "ScanResult",
    "classify_point",
    "field_point",
    "grad_hess",
    "grid_scan",
    "minimize",
    "multi_start_minimize",
    "potential_fn",
    "sigma_grid",
    "sigma_valley_radius",
    "stabilizer_dim",
    "v_closed",
    "v_reduced",
    "v_trace",
    "x_grid",
]

PI_SQ = math.pi ** 2
_DEGENERATE = 1e-6  # classify_point: a Hessian eigenvalue this small, relative, is zero
_RANK_CUT = 1e-8  # stabilizer_dim: a singular value this small, relative, is zero


@dataclass(frozen=True)
class ActionParams:
    """Moments of the cutoff function and the cutoff scale; all finite and positive."""

    f2: float = 1.0
    f0: float = 1.0
    lam: float = 1.0

    def __post_init__(self):
        for name in ("f2", "f0", "lam"):
            object.__setattr__(self, name, _number(name, getattr(self, name), positive=True))


def v_trace(tp: ToyParams, ap: ActionParams, fp: FieldPoint):
    """The potential from honest traces of D', read off D'^2 flat: a float, or a batch's array."""
    d = closed_dirac(tp, fp)
    d2 = (d @ d).reshape(d.shape[:-2] + (64,))  # every ninth entry is on the diagonal
    tr2 = d2[..., ::9].sum(axis=-1)
    # a trace that is not finite is left to the caller (minimize ends its run on it)
    if (np.isfinite(tr2) & ~_within_each(np.abs(tr2.imag), _AXIOM_TOL, np.abs(tr2))).any():
        raise ArithmeticError("trace of D'^2 acquired an imaginary part")
    # D'^2 is hermitian, so Tr(D'^4) is the sum of its squared moduli.
    tr4 = (d2.real ** 2 + d2.imag ** 2).sum(axis=-1)
    value = -ap.f2 / (2.0 * PI_SQ) * ap.lam ** 2 * tr2.real + ap.f0 / (8.0 * PI_SQ) * tr4
    return float(value) if value.ndim == 0 else value


def _coefficients(tp: ToyParams, ap: ActionParams):
    """|k_x|^2, |k_y|^2, a = -f2 lam^2 / pi^2 and b = f0 / (4 pi^2): the constants of V."""
    return abs(tp.k_x) ** 2, abs(tp.k_y) ** 2, -ap.f2 * ap.lam ** 2 / PI_SQ, ap.f0 / (4.0 * PI_SQ)


def v_reduced(tp: ToyParams, ap: ActionParams, x_sq, v_sq):
    """
    Closed form in u = |x|^2 and s = |v|^2 (broadcasts), in Horner form so the terms in s
    alone stay on s's axes: (a ky2 + b ky2^2 s^2) s^2 + u (4a kx2 + 4b kx2 ky2 s^2 + 4b kx2^2 u).
    """
    kx2, ky2, a, b = _coefficients(tp, ap)
    u = np.asarray(x_sq, dtype=float)
    s2 = np.asarray(v_sq, dtype=float) ** 2
    return (a * ky2 + b * ky2 ** 2 * s2) * s2 + u * (
        4.0 * a * kx2 + 4.0 * b * kx2 * ky2 * s2 + 4.0 * b * kx2 ** 2 * u
    )


def v_closed(tp: ToyParams, ap: ActionParams, fp: FieldPoint) -> float:
    """The same potential evaluated without building any operator."""
    return float(v_reduced(tp, ap, abs(fp.x) ** 2, abs(fp.v1) ** 2 + abs(fp.v2) ** 2))


def field_point(coords) -> FieldPoint:
    """Chart (x, s1, s2) -> FieldPoint(x, 1 + s1, s2) on the real slice; leading axes batch."""
    c = np.asarray(coords, dtype=float)
    if c.shape[-1:] != (3,):
        raise ValueError("coords must be real 3-vectors (last axis of length 3)")
    z = c.astype(complex)  # one array for the three fields and v
    z[..., 1] += 1.0
    return FieldPoint._from_array(z)


def potential_fn(tp: ToyParams, ap: ActionParams):
    """The vectorized objective on the real chart: v_trace of points (..., 3), shape (...)."""

    def fun(coords):
        return v_trace(tp, ap, field_point(coords))

    return fun


# ---------------------------------------------------------------------------
# Finite differences


@lru_cache(maxsize=None)
def _table(n: int):
    """
    The stencil table (module docstring): rows +e_i, -e_i, then 0, +e_i, -e_i, ±e_i ±e_j (++, +-,
    -+, -- over pairs i < j); each row's step; the pairs (i, j) and the Hessian's layout in them.
    """
    eye, (i, j) = np.eye(n), np.triu_indices(n, 1)
    corners = [a * eye[i] + b * eye[j] for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    table = np.concatenate([eye, -eye, np.zeros((1, n)), eye, -eye, *corners])
    steps = np.where(np.arange(len(table)) < 2 * n, 3e-6, 1e-4)[:, None]
    layout = np.diag(np.arange(n))
    layout[i, j] = layout[j, i] = n + np.arange(i.size)
    for t in (table, steps, i, j, layout):
        t.setflags(write=False)  # cached: every caller shares these arrays
    return table, steps, (i, j, layout)


def _values(fun, points, finite: bool = False) -> np.ndarray:
    """One call of the objective on a stack of points, its values checked."""
    values = np.asarray(fun(points), dtype=float)
    if finite and not np.isfinite(values).all():
        k = np.flatnonzero(~np.isfinite(values))[0]
        raise FloatingPointError(f"objective is {values.flat[k]} at {points[k]}")
    if values.shape != points.shape[:-1]:
        raise ValueError(f"objective gave values of shape {values.shape} at {points.shape} points")
    return values


def _central(values, h):
    """Central differences from the values at x + h_i e_i, then at x - h_i e_i."""
    return (values[:h.size] - values[h.size:2 * h.size]) / (2.0 * h)


def _hessian(values, h, pairs):
    """The Hessian from the values at the Hessian rows of ``_table`` with steps h, one gather."""
    (i, j, layout), n = pairs, h.size
    diag = (values[1:n + 1] - 2.0 * values[0] + values[n + 1:2 * n + 1]) / h ** 2
    fpp, fpm, fmp, fmm = values[2 * n + 1:].reshape(4, -1)
    return np.concatenate([diag, (fpp - fpm - fmp + fmm) / (4.0 * h[i] * h[j])])[layout]


def grad_hess(fun, point, step: float = 1e-5):
    """
    Central-difference gradient and Hessian of the vectorized ``fun`` at ``point`` (finite
    reals), from one call on the whole stencil.  Per-coordinate steps are
    ``step * max(1, |x_i|)`` for a finite step > 0; the Hessian uses the
    standard four-point stencil off the diagonal and is exactly symmetric.
    """
    x = np.array([_number(f"point[{i}]", c) for i, c in enumerate(point)], dtype=float)
    h = _number("step", step, positive=True) * np.maximum(1.0, np.abs(x))
    table, _, pairs = _table(x.size)
    values = _values(fun, x + table[2 * x.size:] * h)
    return _central(values[1:], h), _hessian(values, h, pairs)


# ---------------------------------------------------------------------------
# Minimization


@dataclass
class MinimizeResult:
    coords: np.ndarray
    value: float
    grad_norm: float
    converged: bool
    iterations: int
    message: str = ""


_GATE = 1e-10  # the gradient norm that counts as converged


def minimize(fun, start, fixed: dict | None = None) -> MinimizeResult:
    """
    Drive the gradient norm of the vectorized ``fun`` below 1e-10 from ``start``.

    ``fixed`` pins coordinates (index -> value) and optimizes the rest with scipy's
    truncated-CG trust-region Newton method ("trust-ncg").  Only values of ``fun`` are
    used, from one call per trial point: the 2n points of a central difference with
    relative step 3e-6 for the gradient (difference noise sits below the gate) and the
    ``grad_hess`` stencil with step 1e-4 for the value and the Hessian.  The gate is
    checked on the returned point, so a run that scipy ends early reports
    ``converged=False`` with scipy's message.  A non-finite value or a linear-algebra
    failure ends the run with ``converged=False`` and the reason in ``message``; start
    coordinates and fixed values that are not finite reals are refused before ``fun`` is called.
    """
    start = np.array([_number(f"start[{i}]", c) for i, c in enumerate(start)], dtype=float)
    name = f"a fixed index in range({start.size})"
    fixed = {_integer(name, k, 0): _number(f"fixed[{k}]", v) for k, v in (fixed or {}).items()}
    if any(k >= start.size for k in fixed):
        raise ValueError(f"{name} must be below {start.size}, got {list(fixed)}")
    start[list(fixed)] = list(fixed.values())
    free = [i for i in range(start.size) if i not in fixed]
    if not free:
        return MinimizeResult(start, float(fun(start)), 0.0, True, 0)

    def embed(z):
        full = np.broadcast_to(start, z.shape[:-1] + start.shape).copy()
        full[..., free] = z
        return full

    k, (table, steps, pairs) = 2 * len(free), _table(len(free))

    @lru_cache(maxsize=1)  # scipy asks for the value, gradient and Hessian of a point apart
    def evaluate(key: bytes):
        z = np.frombuffer(key)
        h = steps * np.maximum(1.0, np.abs(z))  # row r: the steps of row r's kind
        points = z + table * h
        values = _values(fun, embed(points) if fixed else points, True)
        return float(values[k]), _central(values, h[0]), _hessian(values[k:], h[k], pairs)

    # scipy.optimize costs about 0.2 s and 19 MB to import; only this needs it.
    from scipy.optimize import minimize as trust_region

    try:
        res = trust_region(lambda z: evaluate(z.tobytes())[0], start[free], method="trust-ncg",
                           jac=lambda z: evaluate(z.tobytes())[1],
                           hess=lambda z: evaluate(z.tobytes())[2], options={"gtol": _GATE})
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        return MinimizeResult(start, math.nan, math.nan, False, 0, str(exc))
    ng = float(np.linalg.norm(res.jac))
    return MinimizeResult(embed(res.x), float(res.fun), ng, ng <= _GATE, res.nit, res.message)


@dataclass
class CriticalPoint:
    coords: np.ndarray
    value: float
    grad_norm: float
    kind: str
    eigenvalues: np.ndarray
    hits: int = 1


def classify_point(fun, coords):
    """
    Label a critical point of the vectorized ``fun`` by its Hessian spectrum (step 1e-4);
    an eigenvalue below ``_DEGENERATE`` times the largest (at least 1) makes it degenerate.
    """
    eigs = np.linalg.eigvalsh(grad_hess(fun, coords, step=1e-4)[1])
    scale = max(1.0, float(np.max(np.abs(eigs))))
    if np.any(np.abs(eigs) < _DEGENERATE * scale):
        return "degenerate", eigs
    return ("minimum" if np.all(eigs > 0) else "maximum" if np.all(eigs < 0) else "saddle"), eigs


def _invariants(coords, value) -> np.ndarray:
    """(|x|^2, |v|^2, V) of a chart point: equal on one gauge class."""
    c0, c1, c2 = coords
    return np.array([c0 ** 2, (1.0 + c1) ** 2 + c2 ** 2, value])


def multi_start_minimize(fun, n_starts: int = 32, seed: int = 0) -> list:
    """
    Seeded multistart on the vectorized ``fun``: start i draws from
    default_rng(seed + i) uniformly in [-2.5, 2.5]^3.  Converged results are
    merged when their chart invariants (|x|^2, |v|^2) and values agree within
    1e-5, so each gauge class is one point, represented by its lowest value
    and classified once.  Returns CriticalPoint entries sorted by value.
    """
    found: list[CriticalPoint] = []
    for i in range(n_starts):
        res = minimize(fun, np.random.default_rng(seed + i).uniform(-2.5, 2.5, size=3))
        if not res.converged:
            continue
        key = _invariants(res.coords, res.value)
        for cp in found:
            if np.linalg.norm(_invariants(cp.coords, cp.value) - key) <= 1e-5:
                cp.hits += 1
                if res.value < cp.value:
                    cp.coords, cp.value, cp.grad_norm = res.coords, res.value, res.grad_norm
                break
        else:
            kind, eigs = classify_point(fun, res.coords)
            found.append(CriticalPoint(res.coords, res.value, res.grad_norm, kind, eigs))
    found.sort(key=lambda cp: cp.value)
    return found


# ---------------------------------------------------------------------------
# Symmetry diagnostics


def stabilizer_dim(t: FiniteSpectralTriple, d_op) -> int:
    """
    Real dimension of the unitary-gauge stabilizer of an operator: the
    anti-hermitian X in the algebra with [pi(X) + hat(pi(X)), d_op] = 0.
    """
    # the anti-hermitian parts e - e*, i(e + e*) of a spanning set span u(A), of real
    # dimension dim_C A; pi is a *-homomorphism, so pi(e*) = pi(e)^dagger
    reps = _span_reps(t, t.algebra)
    adj = reps.conj().swapaxes(1, 2)
    ops = np.stack([reps - adj, 1j * (reps + adj)], axis=1).reshape(-1, t.dim_h, t.dim_h)
    ops = ops + t.hat(ops)
    d_op = np.asarray(d_op, dtype=complex)
    k = (ops @ d_op - d_op @ ops).reshape(len(ops), -1)
    svals = np.linalg.svd(np.concatenate([k.real, k.imag], axis=1), compute_uv=False)
    return t.algebra.dim() - int(np.sum(svals > _RANK_CUT * svals.max(initial=0.0)))


# ---------------------------------------------------------------------------
# Scans


_SCAN_ROWS = 32  # rows per chunk of grid_scan's windows: about 5 MB of temporaries


@dataclass
class ScanResult:
    value: float
    x_sq: float
    v_sq: float


def _grid_axis(lo: float, hi: float, n) -> np.ndarray:
    """n evenly spaced points on [lo, hi], for an integer n >= 1."""
    return np.linspace(lo, hi, _integer("grid size", n, 1))


def grid_scan(tp: ToyParams, ap: ActionParams, n: int = 4001) -> ScanResult:
    """
    Minimum of the reduced potential over an n x n grid on [0, 4]^2 in (|x|^2, |v|^2), the
    first in row-major order on ties, read from the O(n) rows next to each column's vertex.

    In a column s = |v|^2, V = c0 + c1 u + c2 u^2 in u = |x|^2 with c2 = 4 b |k_x|^4 >= 0, so its
    exact minimum lies next to the vertex u* = -c1 / 2 c2 clipped to [0, 4]; at k_x = 0 row 0 wins
    an exact tie.  Rounding can tie rows of different exact value, so a column reads each row whose
    exact excess over its best row, at least c2 (u - u*)^2 or |V'(u*)| |u - u*| at a clipped u*,
    is within 64 eps times the sum of V's term moduli (a bound on ``v_reduced``'s rounding), plus
    one row each side, in chunks of ``_SCAN_ROWS``.  The result is the full grid's, bit for bit.
    """
    axis, h = _grid_axis(0.0, 4.0, n), 4.0 / max(n - 1, 1)
    (kx2, ky2, a, b), s2 = _coefficients(tp, ap), axis ** 2
    c1, c2 = 4.0 * a * kx2 + 4.0 * b * kx2 * ky2 * s2, 4.0 * b * kx2 ** 2
    terms = abs(a) * ky2 * s2 + b * (ky2 * s2) ** 2 + 16.0 * (abs(a) * kx2 + b * kx2 * ky2 * s2 + c2)
    tol = 64.0 * np.finfo(float).eps * terms + np.finfo(float).tiny
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vertex = np.fmin(np.fmax(-c1 / (2.0 * c2), 0.0), 4.0)  # 0 when c1 = c2 = 0
        slope = np.abs(2.0 * c2 * vertex + c1)  # 0 at an inner vertex
        reach = np.fmin(np.sqrt(tol / c2) + h / 2, (tol + c2 * h * h / 4) / slope)
    lo = np.fmax(np.floor((vertex - reach) / h) - 1, 0).astype(int)  # a NaN reach: all rows
    hi = np.fmin(np.ceil((vertex + reach) / h) + 1, n - 1).astype(int)
    width, best = (hi - lo + 1 if kx2 > 0.0 else np.ones(n, dtype=int)), (math.inf, 0, 0)
    for t in range(0, int(width.max()), _SCAN_ROWS):
        k = np.clip(width - t, 0, _SCAN_ROWS)
        col = np.repeat(np.arange(n), k)
        row = np.repeat(lo + t + k - np.cumsum(k), k) + np.arange(col.size)
        vals = v_reduced(tp, ap, axis[row], axis[col])
        i = np.argmin(np.where(vals == vals.min(), row * n + col, n * n))
        best = min(best, (float(vals[i]), int(row[i]), int(col[i])))  # (value, row, column)
    return ScanResult(best[0], float(axis[best[1]]), float(axis[best[2]]))


def sigma_grid(tp: ToyParams, ap: ActionParams, n: int = 201):
    """
    Potential at x = 0 over a real (s1, s2) grid on [-3, 3]^2; the fields there
    are v = (1 + s1, s2).  Returns (s1 axis, s2 axis, V matrix).
    """
    axis = _grid_axis(-3.0, 3.0, n)
    v_sq = (1.0 + axis[:, None]) ** 2 + axis[None, :] ** 2
    return axis, axis.copy(), v_reduced(tp, ap, 0.0, v_sq)


def sigma_valley_radius(tp: ToyParams, ap: ActionParams) -> float:
    """|v|^2 minimizing the potential on the x = 0 slice (0 when k_y = 0)."""
    ky2 = abs(tp.k_y) ** 2
    return 0.0 if ky2 == 0.0 else math.sqrt(2.0 * ap.f2 * ap.lam ** 2 / (ap.f0 * ky2))


def x_grid(tp: ToyParams, ap: ActionParams, n: int = 201):
    """
    Potential over complex x = a + ib on [-2.5, 2.5]^2 with v pinned on the sigma
    valley at (sqrt(w), 0), w the valley radius.  Returns (Re axis, Im axis, V matrix).
    """
    axis = _grid_axis(-2.5, 2.5, n)
    x_sq = axis[:, None] ** 2 + axis[None, :] ** 2
    return axis, axis.copy(), v_reduced(tp, ap, x_sq, sigma_valley_radius(tp, ap))

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spectriple
from spectriple import (
    ActionParams,
    FieldPoint,
    ToyParams,
    action,
    build_toy,
    closed_dirac,
    frob_norm,
    grad_hess,
    grid_scan,
    minimize,
    multi_start_minimize,
    represent,
    stabilizer_dim,
    v_closed,
    v_trace,
)
from spectriple.action import (
    PI_SQ,
    ScanResult,
    classify_point,
    field_point,
    potential_fn,
    sigma_grid,
    sigma_valley_radius,
    v_reduced,
    x_grid,
)
from spectriple.matrix_core import adjoint
from spectriple.spectral_triple import random_element, random_unitary
from spectriple.toy_model import _SLOTS, a_ev, a_f

UNIT_TP = ToyParams()
UNIT_AP = ActionParams()

# closed-form landmarks at k_x = k_y = lam = f2 = f0 = 1
V_BARE = -11.0 / (4.0 * PI_SQ)          # potential of the unfluctuated operator
V_SIGMA = -1.0 / PI_SQ                  # bottom of the x = 0 valley, |v|^2 = sqrt(2)
V_GLOBAL = -4.0 / PI_SQ                 # global minimum, v = 0, |x|^2 = 2
S1_SIGMA = -1.0 + 2.0 ** 0.25           # chart coordinate of the sigma valley at s2 = 0
UNFLUCTUATED = FieldPoint(1.0, 1.0, 0.0)  # the point where the fluctuated operator is D


def test_action_params_must_be_positive():
    with pytest.raises(ValueError, match="f2 must be a finite number > 0, got 0.0"):
        ActionParams(f2=0.0)
    with pytest.raises(ValueError, match="lam must be a finite number > 0, got -1.0"):
        ActionParams(lam=-1.0)
    ap = ActionParams(f2=np.float32(0.5), f0=2)  # numpy scalars and ints are numbers
    assert ap.f2 == 0.5 and type(ap.f2) is float and type(ap.f0) is float


@pytest.mark.parametrize("name", ["f2", "f0", "lam"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "2.5", None, 1j,
                                   [2.5], np.bool_(True), np.timedelta64(2)])
def test_action_params_reject_non_finite_values(name, value):
    # a bool, a string or a timedelta64 (an np.signedinteger, once read as 2.0) is no number
    with pytest.raises(ValueError, match=rf"{name} must be a finite number > 0, got "):
        ActionParams(**{name: value})


def test_bare_traces_and_potential():
    t = build_toy()
    d2 = t.d @ t.d
    assert np.trace(d2).real == pytest.approx(10.0, abs=1e-13)
    assert np.trace(d2 @ d2).real == pytest.approx(18.0, abs=1e-13)
    got = v_trace(UNIT_TP, UNIT_AP, UNFLUCTUATED)
    assert got == pytest.approx(V_BARE, abs=1e-15)


def test_trace_and_closed_form_agree_on_random_points(rng):
    tp = ToyParams(0.9 + 0.2j, 1.4 - 0.1j)
    ap = ActionParams(f2=0.7, f0=1.3, lam=1.1)
    for _ in range(25):
        fp = FieldPoint(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        a, b = v_trace(tp, ap, fp), v_closed(tp, ap, fp)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


@given(
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi, math.pi),
    st.floats(0.1, 2.0),
    st.floats(0.1, 2.0),
)
def test_potential_depends_only_on_the_moduli(alpha, beta, r_x, r_v):
    fp = FieldPoint(r_x * np.exp(1j * alpha), r_v * np.exp(1j * beta), 0.0)
    ref = FieldPoint(r_x, r_v, 0.0)
    a = v_closed(UNIT_TP, UNIT_AP, fp)
    b = v_closed(UNIT_TP, UNIT_AP, ref)
    assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_reduced_potential_closed_form_at_unit_couplings():
    for u, s in ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (0.3, 1.7)):
        want = (-(4.0 * u + s ** 2) + (4.0 * u ** 2 + 4.0 * u * s ** 2 + s ** 4) / 4.0) / PI_SQ
        assert v_reduced(UNIT_TP, UNIT_AP, u, s) == pytest.approx(want, abs=1e-15)


def test_reduced_potential_vectorizes():
    u = np.linspace(0, 2, 5)[:, None]
    s = np.linspace(0, 2, 7)[None, :]
    vals = v_reduced(UNIT_TP, UNIT_AP, u, s)
    assert vals.shape == (5, 7)
    assert vals[0, 0] == 0.0


def test_remaining_potential_on_the_sigma_valley():
    # once |v|^2 sits at its valley value sqrt(2), the leftover dependence on
    # u = |x|^2 is exactly u^2 - 2u (times 1/pi^2)
    w = math.sqrt(2.0)
    for u in (0.0, 0.5, 1.0, 2.0, 3.0):
        diff = v_reduced(UNIT_TP, UNIT_AP, u, w) - v_reduced(UNIT_TP, UNIT_AP, 0.0, w)
        assert PI_SQ * diff == pytest.approx(u * u - 2.0 * u, abs=1e-12)


def test_sigma_valley_radius_values():
    assert sigma_valley_radius(UNIT_TP, UNIT_AP) == pytest.approx(math.sqrt(2.0))
    assert sigma_valley_radius(ToyParams(1.0, 0.0), UNIT_AP) == 0.0
    assert sigma_valley_radius(UNIT_TP, ActionParams(f2=2.0)) == pytest.approx(2.0)


def test_field_point_chart():
    fp = field_point((0.3, -0.1, 0.2))
    assert (fp.x, fp.v1, fp.v2) == (0.3, 0.9, 0.2)
    with pytest.raises(ValueError):
        field_point((1.0, 2.0))
    batch = field_point(np.array([[0.3, -0.1, 0.2], [1.0, 0.0, -1.0]]))
    assert np.array_equal(batch.x, [0.3, 1.0]) and np.array_equal(batch.v1, [0.9, 1.0])


@pytest.mark.parametrize("shape", [(7,), (4, 5)])
def test_potential_fn_evaluates_a_batch_point_by_point(rng, shape):
    tp = ToyParams(0.9 + 0.2j, 1.4 - 0.1j)
    ap = ActionParams(f2=0.7, f0=1.3, lam=1.1)
    fun = potential_fn(tp, ap)
    coords = rng.uniform(-2.5, 2.5, size=shape + (3,))
    got = fun(coords)
    assert got.shape == shape
    for idx in np.ndindex(*shape):
        want = v_trace(tp, ap, field_point(coords[idx]))
        assert abs(got[idx] - want) <= 1e-13 * max(1.0, abs(want))
    assert isinstance(fun(coords.reshape(-1, 3)[0]), float)
    with pytest.raises(ValueError, match="last axis"):
        fun(coords[..., :2])


def _reference_potential(tp, ap, coords):
    """
    The objective written with one array per field: v by ``np.stack``, D' by four scatters
    into zeros, Tr D'^2 by ``trace`` and Tr D'^4 over the last two axes.
    """
    z = np.asarray(coords, dtype=float).astype(complex)
    z[..., 1] += 1.0
    v = np.stack([z[..., 1], z[..., 2]], axis=-1)
    x = (tp.k_x * z[..., 0])[..., None]
    y = tp.k_y * (v[..., :, None] * v[..., None, :])
    y = y.reshape(y.shape[:-2] + (4,))
    xs, ys, xs_bar, ys_bar = (8 * _SLOTS[0] + _SLOTS[1]).reshape(4, 4)
    d = np.zeros(np.broadcast(x, y).shape[:-1] + (64,), dtype=complex)
    d[..., xs], d[..., xs_bar], d[..., ys], d[..., ys_bar] = x, x.conj(), y, y.conj()
    d = d.reshape(d.shape[:-1] + (8, 8))
    d2 = d @ d
    tr2 = d2.trace(axis1=-2, axis2=-1)
    tr4 = (d2.real ** 2 + d2.imag ** 2).sum(axis=(-2, -1))
    return -ap.f2 / (2.0 * PI_SQ) * ap.lam ** 2 * tr2.real + ap.f0 / (8.0 * PI_SQ) * tr4


@pytest.mark.parametrize("tp", [ToyParams(1.3, 0.8), ToyParams(0.3 - 2j, 1.7 + 0.4j)],
                         ids=["real", "complex"])
@pytest.mark.parametrize("shape", [(), (25,), (4, 25)], ids=str)
def test_potential_fn_equals_the_one_array_per_field_reference(rng, tp, shape):
    ap = ActionParams(f2=0.7, f0=1.3, lam=1.1)
    coords = rng.uniform(-2.5, 2.5, size=shape + (3,))
    assert np.array_equal(potential_fn(tp, ap)(coords), _reference_potential(tp, ap, coords))


def test_field_point_v_is_the_stack_of_v1_and_v2(rng):
    chart = field_point(rng.uniform(-2.5, 2.5, size=(4, 25, 3)))
    user = FieldPoint(0.5, rng.standard_normal((2, 1)), 1j * rng.standard_normal(3))
    for fp in (chart, user, field_point((0.3, -0.1, 0.2)), FieldPoint(1.0, 2j, 3.0)):
        assert np.array_equal(fp.v, np.stack([fp.v1, fp.v2], axis=-1))
    assert chart.x.base is chart.v1.base is chart.v2.base is chart.v.base  # one array
    assert user.v.shape == (2, 3, 2)


def test_potential_fn_calls_each_traced_layer_once_per_stack(monkeypatch):
    calls = {"v_trace": 0, "closed_dirac": 0}
    for name in calls:
        def counted(*args, layer=getattr(action, name), name=name):
            calls[name] += 1
            return layer(*args)

        monkeypatch.setattr(action, name, counted)
    potential_fn(UNIT_TP, UNIT_AP)(np.zeros((25, 3)))
    assert calls == {"v_trace": 1, "closed_dirac": 1}


# ---------------------------------------------------------------------------
# Finite differences and minimization


def test_grad_hess_recovers_a_quadratic():
    a = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    b = np.array([1.0, -1.0, 2.0])

    def f(z):
        return 0.5 * np.einsum("...i,ij,...j->...", z, a, z) + z @ b

    z0 = np.array([0.3, -0.2, 0.1])
    g, h = grad_hess(f, z0)
    assert np.allclose(g, a @ z0 + b, atol=1e-9)
    assert np.allclose(h, a, atol=1e-5)
    assert np.array_equal(h, h.T)
    for step in (0.0, -1e-5, math.nan, math.inf, True, "1e-5"):  # a string once gave TypeError
        with pytest.raises(ValueError, match=f"step must be a finite number > 0, got {step!r}"):
            grad_hess(f, z0, step)
    for point, message in ((("0", 0, 0), r"point\[0\] must be a finite number, got '0'"),
                           ((0.3, True, 0.1), r"point\[1\] .*, got True")):
        with pytest.raises(ValueError, match=message):
            grad_hess(f, point)
    with pytest.raises(TypeError, match="complex"):  # a number, but the chart is real
        grad_hess(f, (0.3, -0.2, 1j))
    g32, _ = grad_hess(f, tuple(np.float32(c) for c in (0.5, -0.25, 0.125)))
    assert np.allclose(g32, a @ [0.5, -0.25, 0.125] + b, atol=1e-9)


def _reference_grad_hess(fun, x, step):
    """
    The stencil one point at a time: steps h_i = step * max(1, |x_i|), central
    differences on the diagonal and the four-point stencil off it.
    """
    h = step * np.maximum(1.0, np.abs(x))

    def at(*shifts):
        xp = x.copy()
        for i, delta in shifts:
            xp[i] += delta
        return fun(xp)

    f0, n = at(), x.size
    grad, hess = np.zeros(n), np.zeros((n, n))
    for i in range(n):
        plus, minus = at((i, h[i])), at((i, -h[i]))
        grad[i] = (plus - minus) / (2.0 * h[i])
        hess[i, i] = (plus - 2.0 * f0 + minus) / h[i] ** 2
        for j in range(i + 1, n):
            fpp, fpm = at((i, h[i]), (j, h[j])), at((i, h[i]), (j, -h[j]))
            fmp, fmm = at((i, -h[i]), (j, h[j])), at((i, -h[i]), (j, -h[j]))
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h[i] * h[j])
    return grad, hess


@pytest.mark.parametrize("step", [1e-5, 1e-4])
def test_grad_hess_matches_the_pointwise_stencil(rng, step):
    # a batch evaluates each point as a single call does, so the one-call
    # stencil reproduces the point-by-point one exactly
    fun = potential_fn(ToyParams(0.9 + 0.2j, 1.4 - 0.1j), ActionParams(f2=0.7))
    for x in rng.uniform(-2.0, 2.0, size=(5, 3)):
        got, want = grad_hess(fun, x, step), _reference_grad_hess(fun, x, step)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    with pytest.raises(ValueError, match="shape"):
        grad_hess(lambda z: float(np.sum(z)), np.zeros(3))


def test_minimize_on_a_convex_quadratic():
    a = np.diag([1.0, 4.0, 9.0])
    c = np.array([0.5, -1.5, 2.0])

    def f(z):
        return np.einsum("...i,ij,...j->...", z - c, a, z - c)

    res = minimize(f, np.zeros(3))
    assert res.converged
    assert res.grad_norm <= 1e-10
    assert np.allclose(res.coords, c, atol=1e-8)
    assert res.value == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("fixed, n_points", [(None, 25), ({0: 0.0}, 13)])
def test_minimize_makes_one_objective_call_per_trial_point(fixed, n_points):
    # each call holds the 2n gradient points and the 1 + 2n + 2n(n - 1) of the
    # Hessian stencil (n free coordinates)
    fun = potential_fn(UNIT_TP, UNIT_AP)
    shapes = []

    def counted(z):
        shapes.append(z.shape)
        return fun(z)

    res = minimize(counted, np.array([0.4, 0.2, 0.1]), fixed=fixed)
    assert res.converged
    assert len(shapes) <= res.iterations + 2
    assert set(shapes) == {(n_points, 3)}


def _two_stencil_points(z, step):
    """The stencil of the former layout: 0, +e_i, -e_i, then ±e_i ±e_j (++, +-, -+, -- over i < j)."""
    n, h = z.size, step * np.maximum(1.0, np.abs(z))
    eye, pairs = np.eye(n), [(i, j) for i in range(n) for j in range(i + 1, n)]
    corners = [a * eye[i] + b * eye[j] for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))
               for i, j in pairs]
    return h, z + np.array([np.zeros(n), *eye, *-eye, *corners]) * h


def _two_stencil_derivatives(fun, z):
    """
    A trial point of ``minimize`` the former way: the gradient rows x ± h e_i of one stencil
    (step 3e-6), then the whole stencil with step 1e-4, in one call; (value, gradient, Hessian).
    """
    n = z.size
    h_grad, grad_points = _two_stencil_points(z, 3e-6)
    h_hess, hess_points = _two_stencil_points(z, 1e-4)
    values = fun(np.concatenate([grad_points[1:2 * n + 1], hess_points]))
    grad = (values[:n] - values[n:2 * n]) / (2.0 * h_grad)
    f0, plus, minus = values[2 * n], values[2 * n + 1:3 * n + 1], values[3 * n + 1:4 * n + 1]
    hess = np.diag((plus - 2.0 * f0 + minus) / h_hess ** 2)
    fpp, fpm, fmp, fmm = values[4 * n + 1:].reshape(4, -1)
    i, j = np.triu_indices(n, 1)
    hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h_hess[i] * h_hess[j])
    return float(f0), grad, hess


@pytest.mark.parametrize("fixed", [None, {0: 0.0}])
def test_minimize_first_call_holds_the_two_stencil_points(fixed):
    # the single stencil table reproduces the former two-stencil layout, gradient rows first,
    # bit for bit; with coordinate 0 fixed the free points are embedded at x = 0
    fun = potential_fn(UNIT_TP, UNIT_AP)
    start, calls = np.array([0.4, 0.2, 0.1]), []
    minimize(lambda z: calls.append(z.copy()) or fun(z), start, fixed=fixed)
    free = [1, 2] if fixed else [0, 1, 2]
    _, grad_points = _two_stencil_points(start[free], 3e-6)
    _, hess_points = _two_stencil_points(start[free], 1e-4)
    want = np.concatenate([grad_points[1:2 * len(free) + 1], hess_points])
    if fixed:
        want = np.concatenate([np.zeros((len(want), 1)), want], axis=1)
    assert np.array_equal(calls[0], want)


@pytest.mark.parametrize("start", [(0.4, 0.2, 0.1), (-1.3, 0.7, 2.1), (2.2, -1.9, 0.05)])
def test_minimize_matches_the_two_stencil_formulation(start):
    from scipy.optimize import minimize as trust_region

    fun = potential_fn(UNIT_TP, UNIT_AP)  # scipy driven as ``minimize`` drives it: trust-ncg
    want = trust_region(lambda z: _two_stencil_derivatives(fun, z)[0], np.array(start),
                        method="trust-ncg", jac=lambda z: _two_stencil_derivatives(fun, z)[1],
                        hess=lambda z: _two_stencil_derivatives(fun, z)[2],
                        options={"gtol": 1e-10})
    got = minimize(fun, start)
    assert np.array_equal(got.coords, want.x) and got.value == want.fun
    assert got.grad_norm == np.linalg.norm(want.jac) and got.iterations == want.nit


def test_minimize_respects_fixed_coordinates():
    fun = potential_fn(UNIT_TP, UNIT_AP)
    res = minimize(fun, np.array([0.7, 0.2, 0.1]), fixed={0: np.float64(0.0)})
    assert res.converged
    assert res.coords[0] == 0.0
    calls = []
    # a string, a bool or a NaN is no coordinate: each is refused before any objective call,
    # where a string once ran and a NaN ran scipy until the objective reported it
    for start, fixed, message in (
        ((0.7, 0.2, 0.1), {0: "0.5"}, "fixed[0] must be a finite number, got '0.5'"),
        ((0.7, 0.2, 0.1), {0: True}, "fixed[0] must be a finite number, got True"),
        ((0.7, 0.2, 0.1), {2: math.nan}, "fixed[2] must be a finite number, got nan"),
        (("0", 0.2, 0.0), None, "start[0] must be a finite number, got '0'"),
        ((0.7, False, 0.1), None, "start[1] must be a finite number, got False"),
    ):
        with pytest.raises(ValueError) as exc:
            minimize(lambda z: calls.append(z) or fun(z), start, fixed)
        assert str(exc.value) == message
    assert calls == []


def test_minimize_with_everything_fixed_returns_immediately():
    fun = potential_fn(UNIT_TP, UNIT_AP)
    res = minimize(fun, np.zeros(3), fixed={0: 0.0, 1: 0.3, 2: -0.2})
    assert res.converged and res.iterations == 0
    assert res.value == pytest.approx(fun(np.array([0.0, 0.3, -0.2])))


def test_constrained_minimum_hits_the_sigma_valley():
    fun = potential_fn(UNIT_TP, UNIT_AP)
    res = minimize(fun, np.array([0.0, 0.2, 0.0]), fixed={0: 0.0})
    assert res.converged and res.grad_norm <= 1e-10
    fp = field_point(res.coords)
    v_sq = abs(fp.v1) ** 2 + abs(fp.v2) ** 2
    assert v_sq == pytest.approx(math.sqrt(2.0), abs=1e-8)
    assert res.value == pytest.approx(V_SIGMA, rel=1e-12)
    assert res.coords[1] == pytest.approx(S1_SIGMA, abs=1e-8)


@pytest.mark.parametrize("s1", [0.45, 0.48])
def test_constrained_minimum_from_former_stall_and_mirror_starts(s1):
    # a damped-Newton scheme stalled at |g| = 1.5e-9 from s1 = 0.45 and landed
    # on the mirror vacuum s1 = -1 - 2**0.25 from s1 = 0.48
    fun = potential_fn(UNIT_TP, UNIT_AP)
    res = minimize(fun, np.array([0.0, s1, 0.0]), fixed={0: 0.0})
    assert res.converged and res.grad_norm <= 1e-10
    assert res.coords[1] == pytest.approx(S1_SIGMA, abs=1e-8)


def _valley_miss(coords) -> float:
    """How far |v|^2 of a chart point lies from the x = 0 valley, |v|^2 = sqrt(2)."""
    return abs((1.0 + coords[1]) ** 2 + coords[2] ** 2 - math.sqrt(2.0))


def test_constrained_minimum_from_the_former_early_stop():
    # trust-exact stopped here after 5 iterations at |g| = 5.9e-9, short of the gate
    res = minimize(potential_fn(UNIT_TP, UNIT_AP), (0.0, 0.3, -0.2), fixed={0: 0.0})
    assert res.converged and res.grad_norm <= 1e-10
    assert _valley_miss(res.coords) <= 1e-8


def test_constrained_grid_starts_reach_the_valley_or_say_why_not():
    # 39 starts at x = 0: 32 converge (25 with trust-exact); the rest stop on the valley
    # at |g| <= 1e-8, short of the 1e-10 gate, and say why with scipy's message
    fun, converged = potential_fn(UNIT_TP, UNIT_AP), 0
    for s1 in np.linspace(-0.9, 0.9, 13):
        for s2 in (-0.3, 0.0, 0.3):
            res = minimize(fun, (0.0, s1, s2), fixed={0: 0.0})
            assert _valley_miss(res.coords) <= 1e-8, (s1, s2)
            converged += res.converged
            if not res.converged:
                assert res.grad_norm <= 1e-8, (s1, s2)
                assert res.message == "A bad approximation caused failure to predict improvement."
    assert converged >= 32


@pytest.mark.parametrize("index", [-1, 3, 5, 1.5, 1.0, "1", True])
def test_minimize_rejects_a_fixed_index_out_of_range(index):
    # -1 once pinned start[2] and then optimized all three coordinates anyway;
    # 1.5 once pinned coordinate 1 and returned converged=False, and True pinned coordinate 1
    with pytest.raises(ValueError, match=r"range\(3\)"):
        minimize(potential_fn(UNIT_TP, UNIT_AP), (0.5, 0.2, 0.3), fixed={index: 0.3})


def test_minimize_reports_a_nan_objective_as_not_converged():
    res = minimize(lambda z: float("nan"), np.zeros(3))
    assert not res.converged
    assert "nan" in res.message


def test_minimize_reports_a_stall_as_not_converged():
    # a linear objective has no critical point: the gate is never met
    res = minimize(lambda z: z[..., 0], np.zeros(3), fixed={1: 0.0, 2: 0.0})
    assert not res.converged
    assert res.grad_norm == pytest.approx(1.0)
    assert "iterations" in res.message


def test_importing_the_package_leaves_scipy_optimize_unloaded():
    # scipy.optimize is imported by minimize alone; at package import it
    # would add about 0.2 s to every start-up
    env = {**os.environ, "PYTHONPATH": str(Path(spectriple.__file__).parents[1])}
    code = "import spectriple, sys; assert 'scipy.optimize' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_hessian_spectrum_at_the_sigma_vev():
    fun = potential_fn(UNIT_TP, UNIT_AP)
    _, h = grad_hess(fun, np.array([0.0, S1_SIGMA, 0.0]), step=1e-4)
    want = np.diag([-4.0 / PI_SQ, 16.0 * math.sqrt(2.0) / PI_SQ, 0.0])
    assert abs(h[0, 0] - want[0, 0]) <= 1e-4 * abs(want[0, 0])
    assert abs(h[1, 1] - want[1, 1]) <= 1e-4 * abs(want[1, 1])
    assert abs(h[2, 2]) < 1e-6
    off = h - np.diag(np.diag(h))
    assert np.max(np.abs(off)) < 1e-6


def test_classify_point_kinds():
    assert classify_point(lambda z: np.sum(z * z, axis=-1), np.zeros(3))[0] == "minimum"
    assert classify_point(lambda z: -np.sum(z * z, axis=-1), np.zeros(3))[0] == "maximum"
    assert (
        classify_point(lambda z: z[..., 0] ** 2 - z[..., 1] ** 2 + z[..., 2] ** 2, np.zeros(3))[0]
        == "saddle"
    )
    assert (
        classify_point(lambda z: z[..., 0] ** 4 + z[..., 1] ** 2 + z[..., 2] ** 2, np.zeros(3))[0]
        == "degenerate"
    )


def test_multi_start_finds_the_global_minimum_quickly():
    fun = potential_fn(UNIT_TP, UNIT_AP)
    points = multi_start_minimize(fun, n_starts=6, seed=0)
    assert points, "no converged starts"
    best = points[0]
    assert best.value == pytest.approx(V_GLOBAL, rel=1e-9)
    fp = field_point(best.coords)
    assert abs(fp.x) ** 2 == pytest.approx(2.0, abs=1e-6)
    assert abs(fp.v1) ** 2 + abs(fp.v2) ** 2 == pytest.approx(0.0, abs=1e-6)


def test_multi_start_merges_one_gauge_class_into_one_point():
    # x = sqrt(2) and x = -sqrt(2) differ by the unitary (diag(1, -1), 1), so
    # starts that land on either sign count as hits of one point
    fun = potential_fn(UNIT_TP, UNIT_AP)
    starts = [np.random.default_rng(i).uniform(-2.5, 2.5, size=3) for i in range(4)]
    assert {np.sign(minimize(fun, z).coords[0]) for z in starts} == {-1.0, 1.0}
    points = multi_start_minimize(fun, n_starts=4, seed=0)
    assert [p.hits for p in points] == [4]


def test_multi_start_is_deterministic():
    fun = potential_fn(UNIT_TP, UNIT_AP)
    a = multi_start_minimize(fun, n_starts=4, seed=7)
    b = multi_start_minimize(fun, n_starts=4, seed=7)
    assert [p.value for p in a] == [p.value for p in b]
    assert all(np.array_equal(p.coords, q.coords) for p, q in zip(a, b))


@pytest.mark.parametrize("n_starts, seed, message", [
    (0, 0, "n_starts must be an integer >= 1, got 0"),
    (-3, 0, "n_starts must be an integer >= 1, got -3"),
    (True, 0, "n_starts must be an integer >= 1, got True"),
    (2.0, 0, "n_starts must be an integer >= 1, got 2.0"),
    (2, -1, "seed must be an integer >= 0, got -1"),
    (2, 1.5, "seed must be an integer >= 0, got 1.5"),
    (2, "7", "seed must be an integer >= 0, got '7'"),
])
def test_multi_start_refuses_a_bad_count_or_seed_before_any_start(n_starts, seed, message):
    calls = []
    with pytest.raises(ValueError) as exc:
        multi_start_minimize(lambda z: calls.append(z) or 0.0, n_starts=n_starts, seed=seed)
    assert str(exc.value) == message
    assert calls == []


# ---------------------------------------------------------------------------
# Symmetry diagnostics


def test_stabilizer_dimensions_along_the_breaking_chain(toy):
    zero = np.zeros((8, 8))
    assert stabilizer_dim(toy, zero) == 6
    d_sigma = closed_dirac(UNIT_TP, FieldPoint(0.0, 2.0 ** 0.25, 0.0))
    assert stabilizer_dim(toy, d_sigma) == 3
    d_both = closed_dirac(UNIT_TP, FieldPoint(math.sqrt(2.0), 2.0 ** 0.25, 0.0))
    assert stabilizer_dim(toy, d_both) == 2


def test_stabilizer_dim_is_scale_invariant(toy):
    d = closed_dirac(UNIT_TP, FieldPoint(0.0, 2.0 ** 0.25, 0.0))
    assert stabilizer_dim(toy, d) == stabilizer_dim(toy, 100.0 * d)


def test_stabilizer_dim_over_a_subalgebra(toy):
    # the first-order subalgebra has a 3-dimensional unitary Lie algebra,
    # all of which fixes the zero operator
    assert stabilizer_dim(dataclasses.replace(toy, algebra=a_f()), np.zeros((8, 8))) == 3


def _vev_transform_check(tp: ToyParams, fp: FieldPoint, u, tol: float = 1e-9) -> float:
    """
    Residual of the covariance law for a unitary u = (diag(r, l), m) of the
    even subalgebra: conjugating the fluctuated operator by pi(u) hat(pi(u))
    lands on the field point (r conj(l) x, conj(r) m v).
    """
    t = build_toy(tp)
    uu = (u * u.star()).vec()
    unit = t.algebra.unit().vec()
    if np.linalg.norm(uu - unit) > tol * max(1.0, float(np.linalg.norm(unit))):
        raise ValueError("element is not unitary")
    pu = represent(t, u)
    big = pu @ t.hat(pu)
    lhs = big @ closed_dirac(tp, fp) @ adjoint(big)
    (lam_r, lam_l), m = np.diag(u.blocks[0]), u.blocks[1]
    v_new = np.conj(lam_r) * (m @ fp.v)
    rhs = closed_dirac(tp, FieldPoint(lam_r * np.conj(lam_l) * fp.x, *v_new))
    return frob_norm(lhs - rhs) / max(1.0, frob_norm(rhs))


def test_vev_transform_matches_the_phase_prediction(rng):
    tp = ToyParams(1.1, 0.9 - 0.2j)
    fp = FieldPoint(0.4 + 0.2j, 1.2, -0.7j)
    for _ in range(5):
        u = random_unitary(a_ev(), rng)
        assert _vev_transform_check(tp, fp, u) < 1e-12


def test_vev_transform_rejects_non_unitaries(rng):
    h = random_element(a_ev(), rng)
    with pytest.raises(ValueError, match="unitary"):
        _vev_transform_check(UNIT_TP, UNFLUCTUATED, h + a_ev().unit())


# ---------------------------------------------------------------------------
# Scans


def _reference_grid_scan(tp, ap, n):
    """The full scan: every node of the grid, in blocks of 32 rows."""
    axis = np.linspace(0.0, 4.0, n)
    best = ScanResult(math.inf, 0.0, 0.0)
    for lo in range(0, n, 32):
        block = v_reduced(tp, ap, axis[lo:lo + 32, None], axis[None, :])
        i, j = np.unravel_index(np.argmin(block), block.shape)
        if block[i, j] < best.value:
            best = ScanResult(float(block[i, j]), float(axis[lo + i]), float(axis[j]))
    return best


SCAN_CASES = [
    (ToyParams(k_x, k_y), ap, n)
    for k_x, k_y in [(1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (0.5 + 0.5j, 2j),
                     (1e-3, 1.0), (3.0, 1e-7), (1e3, 50.0)]
    for ap in [UNIT_AP, ActionParams(5.0, 0.1, 3.0), ActionParams(0.2, 7.0, 0.5)]
    for n in [1, 2, 3, 41, 401]
] + [
    # the u-slope, 9e-14 a row, is below one ulp of V ~ -2052: rows 397-400 tie
    # after rounding, so the full scan returns row 397 (x_sq = 3.97), and a
    # window of the 4 rows at the vertex would return row 400
    (ToyParams(1e-6, 50.0), ActionParams(5.0, 0.1, 3.0), 401),
    (ToyParams(1e-9, 1.0), UNIT_AP, 401),
]


@pytest.mark.parametrize("tp, ap, n", SCAN_CASES)
def test_grid_scan_matches_the_full_scan_bit_for_bit(tp, ap, n):
    got, want = grid_scan(tp, ap, n), _reference_grid_scan(tp, ap, n)
    assert (got.value, got.x_sq, got.v_sq) == (want.value, want.x_sq, want.v_sq)


def test_grid_scan_evaluates_o_of_n_nodes(monkeypatch):
    nodes = []

    def counted(tp, ap, x_sq, v_sq):
        nodes.append(np.broadcast(np.asarray(x_sq), np.asarray(v_sq)).size)
        return v_reduced(tp, ap, x_sq, v_sq)

    monkeypatch.setattr(action, "v_reduced", counted)
    res = grid_scan(UNIT_TP, UNIT_AP, n=4001)
    assert sum(nodes) <= 8 * 4001
    assert (res.x_sq, res.v_sq) == (2.0, 0.0)


def test_grid_scan_breaks_a_planted_tie_in_row_major_order(monkeypatch):
    # two nodes next to their columns' vertices share the lowest value; the one
    # in the earlier row wins although its column comes later
    axis = np.linspace(0.0, 4.0, 401)

    def planted(tp, ap, x_sq, v_sq):
        tied = (x_sq == axis[200]) & (v_sq == axis[0])
        tied |= (x_sq == axis[188]) & (v_sq == axis[50])
        return np.where(tied, -10.0, v_reduced(tp, ap, x_sq, v_sq))

    monkeypatch.setattr(action, "v_reduced", planted)
    assert grid_scan(UNIT_TP, UNIT_AP, n=401) == ScanResult(-10.0, axis[188], axis[50])


@pytest.mark.parametrize("n", [0, -3, 5.5, 5.0, "41", None, True, np.timedelta64(41)])
def test_grid_scan_rejects_a_bad_size(n):
    with pytest.raises(ValueError, match="integer >= 1"):
        grid_scan(UNIT_TP, UNIT_AP, n=n)


@pytest.mark.parametrize("n", [0, -2, 5.5, "41", True])
@pytest.mark.parametrize("grid", [sigma_grid, x_grid])
def test_potential_grids_reject_a_bad_size(grid, n):
    # n = 0 once gave empty (0, 0) grids, 5.5 numpy's TypeError, True a 1 x 1 grid
    with pytest.raises(ValueError, match="integer >= 1"):
        grid(UNIT_TP, UNIT_AP, n=n)


def test_grid_scan_on_one_node_is_the_origin():
    assert grid_scan(UNIT_TP, UNIT_AP, n=1) == ScanResult(0.0, 0.0, 0.0)
    assert grid_scan(UNIT_TP, UNIT_AP, n=np.int64(41)) == grid_scan(UNIT_TP, UNIT_AP, n=41)


def test_grid_scan_hits_the_exact_node():
    res = grid_scan(UNIT_TP, UNIT_AP, n=41)
    assert res.value == pytest.approx(V_GLOBAL, rel=1e-12)
    assert res.x_sq == pytest.approx(2.0, abs=1e-12)
    assert res.v_sq == pytest.approx(0.0, abs=1e-12)


def test_grid_scan_keeps_the_first_minimum_in_row_major_order():
    # with k_x = 0 the potential ignores |x|^2, so every row ties; the first
    # row must win, though the scan reads no row but the first
    res = grid_scan(ToyParams(0.0, 1.0), UNIT_AP, n=101)
    assert res.x_sq == 0.0
    assert res.v_sq == pytest.approx(math.sqrt(2.0), abs=0.04)


def test_sigma_grid_values_and_symmetry():
    s1, s2, vals = sigma_grid(UNIT_TP, UNIT_AP, n=61)
    assert vals.shape == (61, 61)
    i, j = 17, 40
    want = v_reduced(UNIT_TP, UNIT_AP, 0.0, (1.0 + s1[i]) ** 2 + s2[j] ** 2)
    assert vals[i, j] == pytest.approx(float(want), rel=1e-13)
    # reflection symmetry in s2
    assert np.allclose(vals, vals[:, ::-1], atol=1e-13)
    # the grid minimum sits within one cell of the valley radius
    idx = np.unravel_index(np.argmin(vals), vals.shape)
    v_sq = (1.0 + s1[idx[0]]) ** 2 + s2[idx[1]] ** 2
    cell = s1[1] - s1[0]
    assert abs(v_sq - math.sqrt(2.0)) < 2.0 * cell


def test_x_grid_values_and_symmetry():
    re, im, vals = x_grid(UNIT_TP, UNIT_AP, n=41)
    assert vals.shape == (41, 41)
    w = sigma_valley_radius(UNIT_TP, UNIT_AP)
    want = v_reduced(UNIT_TP, UNIT_AP, re[5] ** 2 + im[30] ** 2, w)
    assert vals[5, 30] == pytest.approx(float(want), rel=1e-13)
    assert np.allclose(vals, vals.T, atol=1e-13)  # depends on re^2 + im^2 only

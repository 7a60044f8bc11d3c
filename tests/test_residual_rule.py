"""
The residual rule: every tolerance check in ``src/`` compares through ``matrix_core._within``
(or ``_within_each``, entry by entry), so a NaN or inf residual fails it and a scale that is
not finite is refused by name.  One test feeds a NaN to each converted check; the overflow
probes and the guard against bare tolerance literals live here too.
"""

import io
import math
import os
import pathlib
import subprocess
import sys
import tokenize
import warnings

import numpy as np
import pytest

from spectriple import (
    AlgebraElement,
    AlgebraSpec,
    AntilinearOp,
    FiniteSpectralTriple,
    MoritaData,
    PertElement,
    UniversalOneForm,
    approx_eq,
    fluctuate,
    from_unitary,
    matrix_core,
    minimize,
    morita,
    perturbation,
    spectral_triple,
    v_trace,
)
from spectriple.action import ActionParams, potential_fn
from spectriple.cli import main
from spectriple.matrix_core import _within, _within_each
from spectriple.model_io import matrix_to_json, save_json, triple_to_dict
from spectriple.spectral_triple import CheckReport, KOReport
from spectriple.toy_model import FieldPoint, ToyParams, a_ev

SRC = pathlib.Path(matrix_core.__file__).parent  # src/spectriple
NAN = float("nan")


def _nan_like(m):
    return np.full_like(np.asarray(m, dtype=complex), NAN)


def _triple(toy, d=None):
    d = toy.d if d is None else d
    return FiniteSpectralTriple(toy.algebra, toy.dim_h, toy.rep_blocks, d, toy.j, toy.gamma,
                                toy.signs)


def test_the_rule_is_relative_at_scale_and_fails_nan_and_inf():
    assert _within(1e-9, 1e-9) and not _within(2e-9, 1e-9)
    assert _within(1e-3, 1e-9, 1e6) and not _within(1e-3, 1e-9, 1e5)
    assert _within(1e-9, 1e-9, 1e-3)  # the floor: absolute below scale 1
    assert not _within(NAN, 1e-9) and not _within(math.inf, 1e-9, 1e300)
    with pytest.raises(ValueError, match="^D's norm overflows$"):
        _within(0.0, 1e-12, math.inf, "D's norm")
    with pytest.raises(ValueError, match="^the scale is not finite$"):
        _within(0.0, 1e-12, NAN)


def test_the_elementwise_rule_fails_each_entry_with_a_non_finite_scale():
    defects = np.array([0.5e-9, 2e-9, NAN, 0.0, 0.0, 1e-3])
    scales = np.array([1.0, 1.0, 1.0, math.inf, NAN, 1e6])
    assert _within_each(defects, 1e-9, scales).tolist() == [True, False, False, False, False,
                                                             True]


# Each case returns the check as a thunk and the refusal it must raise, or None when the
# check reports its verdict as a bool that must be False.  The NaN is put where the check
# reads its residual, past the finiteness checks that stand before most of them.


def _antiunitary(toy, monkeypatch):
    monkeypatch.setattr(matrix_core, "frob_norm", lambda a: NAN)
    return lambda: AntilinearOp(np.eye(2)), "J is not antiunitary"


def _d_self_adjoint(toy, monkeypatch):
    monkeypatch.setattr(spectral_triple, "adjoint", _nan_like)
    return lambda: _triple(toy), "^D is not self-adjoint$"


def _gamma_commutes(toy, monkeypatch):
    monkeypatch.setattr(spectral_triple, "_span_reps", lambda t, spec: _nan_like(np.eye(8))[None])
    return lambda: _triple(toy), "gamma does not commute with the represented algebra"


def _j_squared(toy, monkeypatch):
    monkeypatch.setattr(AntilinearOp, "square", lambda self: _nan_like(self.m))
    return lambda: _triple(toy), "J\\^2 does not match declared eps_j"


def _order_zero(toy, monkeypatch):
    monkeypatch.setattr(spectral_triple, "_worst_pair",
                        lambda t, spec, with_d: CheckReport(NAN, (0, 0)))
    return lambda: _triple(toy), "the order zero condition fails"


def _outside(toy, monkeypatch):
    spec = AlgebraSpec(a_ev().summands, a_ev().basis)  # a copy: a_ev() is cached
    object.__setattr__(spec, "_null", _nan_like(spec._null))
    return lambda: not spec.outside(spec.unit().vec()), None


def _ko_report(toy, monkeypatch):
    return lambda: KOReport(0.0, NAN, 0.0).passed(), None


def _approx_eq(toy, monkeypatch):
    return lambda: approx_eq(_nan_like(np.eye(2)), np.eye(2)), None


def _normalized(toy, monkeypatch):
    p = PertElement(toy.algebra, _nan_like(np.eye(toy.algebra.ambient_dim)))
    return lambda: perturbation._checked_pert(p), "^the norm of sum a_j b_j is not finite$"


def _flip_fixed(toy, monkeypatch):
    unit = toy.algebra.unit().vec()
    p = PertElement(toy.algebra, np.outer(unit, unit))
    monkeypatch.setattr(perturbation, "_flip", lambda summands, m: _nan_like(m))
    return lambda: perturbation._checked_pert(p), "not self-adjoint under the flip"


def _unitary(toy, monkeypatch):
    monkeypatch.setattr(perturbation, "_product_sum", lambda summands, m: _nan_like(m[0]))
    return lambda: from_unitary(toy.algebra, toy.algebra.unit()), "^element is not unitary$"


def _fluctuate(toy, monkeypatch):
    omega = np.zeros((toy.algebra.ambient_dim,) * 2, dtype=complex)
    omega[0, 3] = NAN  # one NaN coefficient of the one-form
    return (lambda: fluctuate(toy, UniversalOneForm(toy.algebra, omega)),
            "^A_1's norm is not finite$")


def _idempotent(toy, monkeypatch):
    monkeypatch.setattr(AlgebraElement, "__sub__", lambda a, b: NAN * a)  # e^2 - e
    return lambda: MoritaData(toy, 1, toy.algebra.unit()), "^matrix is not idempotent$"


def _compressed(toy, monkeypatch):
    rng = np.random.default_rng(0)
    e = morita.random_idempotent(toy, 2, rng)
    conn = morita.random_conn_form(toy, 2, rng, e)
    monkeypatch.setattr(morita, "compress_coefficients", lambda e, omega: _nan_like(omega))
    return lambda: MoritaData(toy, 2, e, conn), "^connection is not compressed"


@pytest.mark.parametrize("case", [
    _antiunitary, _d_self_adjoint, _gamma_commutes, _j_squared, _order_zero, _outside,
    _ko_report, _approx_eq, _normalized, _flip_fixed, _unitary, _fluctuate, _idempotent,
    _compressed,
], ids=lambda case: case.__name__.strip("_"))
def test_a_nan_residual_fails_each_check(toy, monkeypatch, case):
    check, refusal = case(toy, monkeypatch)
    if refusal is None:
        assert check() is False
    else:
        with pytest.raises(ValueError, match=refusal):
            check()


def _overflowing_d(toy, scale=1e308):
    """
    The toy's D (ten unit entries) scaled by ``scale``, off self-adjoint by scale / 1e5 at
    [0, 1]: at 1e308 its norm, about 3.2e308, overflows; at 1e200 it does not.
    """
    d = toy.d * scale
    d[0, 1] += scale / 1e5
    return d


def test_a_d_whose_norm_overflows_is_refused(toy):
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="^D's norm overflows$"):
            _triple(toy, _overflowing_d(toy))


def test_a_d_with_huge_entries_and_a_finite_norm_is_measured(toy):
    # the norm, about 3.2e200, is rescaled instead of overflowing, so the defect is measured
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^D is not self-adjoint$"):
            _triple(toy, _overflowing_d(toy, 1e200))
        # without the defect the triple is valid, and its first-order defect scales with D
        big = _triple(toy, toy.d * 1e200)
        want = spectral_triple.check_first_order(toy).max_defect * 1e200
        assert spectral_triple.check_first_order(big).max_defect == pytest.approx(want, rel=1e-14)


def test_check_refuses_a_model_whose_d_overflows_with_exit_2(toy, tmp_path, capsys):
    payload = triple_to_dict(toy)
    payload["d"] = matrix_to_json(_overflowing_d(toy))
    model = tmp_path / "model.json"
    save_json(str(model), payload)
    with np.errstate(over="ignore"):
        assert main(["check", "--model", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: D's norm overflows\n"
    assert captured.out == ""


def test_check_as_a_program_prints_only_the_refusal_when_d_overflows(toy, tmp_path):
    # no np.errstate here: the overflow that validation refuses leaves no warning on stderr
    payload = triple_to_dict(toy)
    payload["d"] = matrix_to_json(_overflowing_d(toy))
    model = tmp_path / "model.json"
    save_json(str(model), payload)
    env = {**os.environ, "PYTHONPATH": str(SRC.parent), "PYTHONWARNINGS": "default"}
    proc = subprocess.run([sys.executable, "-m", "spectriple", "check", "--model", str(model)],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: D's norm overflows\n")


def test_an_idempotent_whose_norm_overflows_is_refused(toy):
    # the scale, the square of the largest entry's norm, is refused by name and quietly
    # before the membership test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the squared norm of e's largest entry overflows$"):
            MoritaData(toy, 1, 1e200 * toy.algebra.unit())
        # the norm of the entry itself, about 1.4e200, is finite: the entry is in the algebra
        assert not toy.algebra.outside(1e200 * toy.algebra.unit().vec())[()]


def test_a_nan_trace_is_left_to_the_caller_and_minimize_reports_it():
    # v_trace's imaginary-part check fails only a finite trace: a NaN trace is returned, and
    # minimize's own finiteness check ends the run with converged=False instead of raising
    tp, ap = ToyParams(), ActionParams()
    assert math.isnan(v_trace(tp, ap, FieldPoint(NAN, 1.0, 0.0)))
    with np.errstate(over="ignore", invalid="ignore"):
        res = minimize(potential_fn(tp, ap), (1e160, 0.0, 0.0))
    assert res.converged is False
    assert res.message.startswith("objective is nan at ")


# Each residual-tolerance literal may appear in src/ only as the value of its named constant.
_TOLERANCES = {1e-12: {"_AXIOM_TOL"}, 1e-9: {"_SEMIGROUP_TOL"}, 1e-8: {"_MORITA_TOL", "_RANK_CUT"}}


def _literal_sites(text):
    """(line, value, the constant the line assigns or None) of each tolerance literal."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                                tokenize.DEDENT)]
    for k, tok in enumerate(tokens):
        if tok.type != tokenize.NUMBER or tok.string[-1] in "jJ":
            continue
        value = float(tok.string)
        if value not in _TOLERANCES:
            continue
        line = [t for t in tokens if t.start[0] == tok.start[0]]
        named = (len(line) == 3 and line[0].type == tokenize.NAME and line[0].start[1] == 0
                 and line[1].string == "=" and line[2] is tok)
        yield tok.start[0], value, line[0].string if named else None


def test_tolerance_literals_appear_only_in_their_named_constants():
    stray, named = [], set()
    for path in sorted(SRC.glob("*.py")):
        for line, value, name in _literal_sites(path.read_text(encoding="utf-8")):
            if name in _TOLERANCES[value]:
                named.add(name)
            else:
                stray.append(f"{path.name}:{line}: {value!r}")
    assert stray == []
    assert named == set().union(*_TOLERANCES.values())


def test_the_guard_sees_a_bare_literal():
    text = "_AXIOM_TOL = 1e-12\nok = defect <= 1E-9 * scale\nx = f(tol=0.00000001)\ny = 1e-9j\n"
    assert list(_literal_sites(text)) == [(1, 1e-12, "_AXIOM_TOL"), (2, 1e-9, None),
                                          (3, 1e-8, None)]

import csv
import json
import math

import numpy as np
import pytest

from spectriple import build_toy, perturbation, random_pert
from spectriple.action import (
    ActionParams,
    grad_hess,
    multi_start_minimize,
    potential_fn,
    sigma_grid,
    sigma_valley_radius,
)
from spectriple.cli import main
from spectriple.matrix_core import approx_eq
from spectriple.model_io import (
    complex_from_json,
    element_from_json,
    element_to_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    pert_from_dict,
    pert_to_dict,
    save_json,
    triple_from_dict,
    triple_to_dict,
)
from spectriple.perturbation import random_one_form
from spectriple.spectral_triple import AlgebraSpec, random_element
from spectriple.toy_model import ToyParams, a_ev
from test_perturbation import _form_from_pairs


def test_complex_codec():
    assert complex_from_json([1.5, -2.0]) == 1.5 - 2j
    assert complex_from_json(3) == 3.0 + 0j
    assert complex_from_json(0.25) == 0.25 + 0j
    with pytest.raises(ValueError):
        complex_from_json("nope")
    with pytest.raises(ValueError):
        complex_from_json([1.0])
    for obj in (True, [True, 0.5], [0.5, False]):  # a bool is not a number
        with pytest.raises(ValueError, match="cannot read complex number"):
            complex_from_json(obj)


def test_matrix_codec_is_bit_exact(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m[0, 0] = 1.0 / 3.0 + 0.1j  # non-dyadic values survive repr round-trips
    m[1, 2] = -0.0 - 0.0j
    assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)
    # entry by entry, the Python floats of the real and imaginary parts
    want = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    assert repr(matrix_to_json(m)) == repr(want)
    with pytest.raises(ValueError):
        matrix_from_json("garbage")
    with pytest.raises(ValueError):
        matrix_from_json([])


def _entrywise(obj):
    """The entry-by-entry reader: one complex_from_json call per entry."""
    return np.array([[complex_from_json(entry) for entry in row] for row in obj], dtype=complex)


def test_matrix_from_json_reads_pairs_in_one_conversion_and_bare_numbers_entrywise(rng):
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m[0, 1], m[2, 3] = complex(np.inf, -0.0), -0.0 + 1j
    payload = matrix_to_json(m)
    got = matrix_from_json(payload)
    assert got.dtype == complex and got.tobytes() == _entrywise(payload).tobytes() == m.tobytes()
    for obj in ([[1, 2], [3, 4]], [[[1, 2], 3]], [[1, [0.5, -1]]]):
        assert np.array_equal(matrix_from_json(obj), _entrywise(obj))


@pytest.mark.parametrize(
    "obj, message",
    [
        ([[[1, 0], [2, 0]], [[3, 0]]], "inhomogeneous shape"),  # ragged rows
        ([], "matrix payload must be a nested list"),  # empty
        ([[["a", "b"]]], r"cannot read complex number from \['a', 'b'\]"),  # non-numeric pair
        ([["x"]], "cannot read complex number from 'x'"),  # non-numeric entry
        ([[[1, 2, 3]]], r"cannot read complex number from \[1, 2, 3\]"),
        # a bool is not a number: alone, in a pair of bools, or beside a float
        ([[True, [0.5, -1]]], "cannot read complex number from True"),
        ([[[True, False]]], r"cannot read complex number from \[True, False\]"),
        ([[[0.5, 0.0], [1.0, True]]], r"cannot read complex number from \[1.0, True\]"),
        ([[["1", "2"]]], r"cannot read complex number from \['1', '2'\]"),  # nor is a string
    ],
)
def test_matrix_from_json_keeps_its_errors(obj, message):
    with pytest.raises(ValueError, match=message):
        matrix_from_json(obj)


def test_element_codec(rng):
    e = random_element(a_ev(), rng)
    back = element_from_json(element_to_json(e))
    assert np.array_equal(e.vec(), back.vec())


def test_triple_round_trip_through_a_file(tmp_path):
    t = build_toy(ToyParams(k_x=0.1 + 0.3j, k_y=1.0 / 3.0))
    path = tmp_path / "model.json"
    save_json(str(path), triple_to_dict(t))
    t2 = triple_from_dict(load_json(str(path)))
    assert np.array_equal(t.d, t2.d)
    assert np.array_equal(t.gamma, t2.gamma)
    assert np.array_equal(t.j.m, t2.j.m)
    assert t.rep_blocks == t2.rep_blocks
    assert t.signs == t2.signs
    assert t2.algebra.summands == (2, 2)
    assert len(t2.algebra.basis) == 6
    # a second dump of the reloaded triple is byte-identical
    path2 = tmp_path / "model2.json"
    save_json(str(path2), triple_to_dict(t2))
    assert path.read_bytes() == path2.read_bytes()


def test_triple_from_dict_revalidates(tmp_path):
    payload = triple_to_dict(build_toy())
    payload["d"][0][0] = [5.0, 0.0]  # diagonal entry breaks gamma-D anticommutation
    with pytest.raises(ValueError):
        triple_from_dict(payload)


def test_triple_file_keeps_the_plain_mode_key_and_rejects_others(tmp_path):
    payload = triple_to_dict(build_toy())
    assert [rb["mode"] for rb in payload["rep_blocks"]] == ["plain", "plain"]
    payload["rep_blocks"][0]["mode"] = "transpose"
    path = tmp_path / "model.json"
    save_json(str(path), payload)
    with pytest.raises(ValueError, match="'transpose'"):
        triple_from_dict(load_json(str(path)))


def _v1_payload(p) -> dict:
    """The format-1 file of p (no ``format`` key): its ``.pairs`` view as algebra elements."""
    return {"pairs": [[element_to_json(a), element_to_json(b)] for a, b in p.pairs]}


def _bad_v2_payloads() -> dict:
    """name -> (format-2 payload over a_ev, text of the ValueError that pert_from_dict raises)."""
    spec, rng = a_ev(), np.random.default_rng(5)
    coeffs, unit = random_pert(spec, rng).coeffs, spec.unit().vec()
    off = random_element(AlgebraSpec(spec.summands), rng).vec()  # not in a_ev
    nan = coeffs.copy()
    nan[2, 5] = np.nan
    twisted = coeffs + 1j * random_one_form(spec, rng).omega  # normalized, but flip gives -i
    with_bool = matrix_to_json(coeffs)
    with_bool[0][0][1] = False  # an imaginary part as a bool

    def v2(m):
        return {"format": 2, "coeffs": m if isinstance(m, list) else matrix_to_json(m)}

    return {
        "unknown_format": ({**v2(coeffs), "format": 3}, "format 3"),
        # a key other than format and coeffs is refused, after the format check
        "extra_key": ({**v2(coeffs), "extra": 5}, "unknown perturbation key: extra"),
        "pairs_beside_coeffs": ({**v2(coeffs), "pairs": "junk"}, "unknown perturbation key: pairs"),
        "unknown_format_and_key": ({**v2(coeffs), "format": 3, "extra": 5}, "format 3"),
        "float_format": ({**v2(coeffs), "format": 2.0}, "not format 2.0 with keys"),
        "no_coeffs": ({"format": 2}, "format 2 with keys"),
        "non_finite_entry": (v2(nan), "non-finite"),
        "wrong_shape": (v2(coeffs[:, :-1]), "must be 8x8"),
        # rows in A, columns not (only the test of P^T sees it), and the reverse
        "first_factor_outside": (v2(coeffs + np.outer(off, unit)), "not in the algebra"),
        "second_factor_outside": (v2(coeffs + np.outer(unit, off)), "not in the algebra"),
        "not_normalized": (v2(2.0 * coeffs), "not normalized"),
        "not_flip_invariant": (v2(twisted), "flip"),
        "bool_entry": (v2(with_bool), "cannot read complex number"),
    }


BAD_V2 = _bad_v2_payloads()

# name -> (format-1 payload whose pairs are no list of [a, b] lists, the ValueError's text);
# each once raised Python's bare unpacking error, which named neither the key nor the value.
# A format that equals 1 but is no JSON integer is refused too: it once loaded as format 1.
_UNIT = element_to_json(a_ev().unit())
_NOT_A_FORMAT = ("perturbation files hold 'pairs' (format 1) or 'coeffs' (format 2), "
                 "not format {} with keys ['format', 'pairs']")
BAD_V1 = {
    "format-true": ({"format": True, "pairs": [[_UNIT, _UNIT]]}, _NOT_A_FORMAT.format(True)),
    "format-1.0": ({"format": 1.0, "pairs": [[_UNIT, _UNIT]]}, _NOT_A_FORMAT.format(1.0)),
    "bare-pair": ({"pairs": [5]}, "pairs[0] must be a list [a, b] of two elements, got 5"),
    "three-item-pair": ({"pairs": [[5, 6, 7]]},
                        "pairs[0] must be a list [a, b] of two elements, got [5, 6, 7]"),
    "second-pair-bare": ({"pairs": [[_UNIT, _UNIT], 7]},
                         "pairs[1] must be a list [a, b] of two elements, got 7"),
    "bare-pairs": ({"pairs": 5}, "pairs must be a list, got 5"),
    "coeffs-beside-pairs": ({"format": 1, "pairs": [[_UNIT, _UNIT]], "coeffs": [[0]]},
                            "unknown perturbation key: coeffs"),
}


def test_pert_round_trip(rng):
    spec = a_ev()
    p = random_pert(spec, rng)
    payload = json.loads(json.dumps(pert_to_dict(p)))
    assert set(payload) == {"format", "coeffs"} and payload["format"] == 2
    assert np.array_equal(pert_from_dict(spec, payload).coeffs, p.coeffs)


def test_format_1_payloads_still_load(rng):
    spec = a_ev()
    p = random_pert(spec, rng)
    back = pert_from_dict(spec, _v1_payload(p))
    assert approx_eq(back.coeffs, p.coeffs, 1e-13)
    # "format": 1 names the same layout
    assert np.array_equal(pert_from_dict(spec, {"format": 1, **_v1_payload(p)}).coeffs, back.coeffs)


@pytest.mark.parametrize("case", sorted(BAD_V2))
def test_pert_from_dict_rejects_a_bad_format_2_payload(case):
    payload, message = BAD_V2[case]
    with pytest.raises(ValueError, match=message):
        pert_from_dict(a_ev(), json.loads(json.dumps(payload)))


@pytest.mark.parametrize("case", sorted(BAD_V1))
def test_pert_from_dict_names_a_malformed_format_1_pair(case):
    payload, message = BAD_V1[case]
    with pytest.raises(ValueError) as exc:
        pert_from_dict(a_ev(), json.loads(json.dumps(payload)))
    assert str(exc.value) == message


def test_pert_from_dict_validates(rng):
    spec = a_ev()
    bad = {"pairs": [[element_to_json(spec.unit()), element_to_json(2.0 * spec.unit())]]}
    with pytest.raises(ValueError, match="normalized"):
        pert_from_dict(spec, bad)


def test_pert_from_dict_rejects_pairs_outside_the_algebra(rng):
    full = AlgebraSpec((2, 2))
    outside = _form_from_pairs(full, ((random_element(full, rng),) * 2,))
    with pytest.raises(ValueError, match="not in the algebra"):
        pert_from_dict(a_ev(), _v1_payload(outside))


def test_save_json_appends_newline(tmp_path):
    path = tmp_path / "x.json"
    save_json(str(path), {"a": 1})
    text = path.read_text()
    assert text.endswith("\n")
    assert load_json(str(path)) == {"a": 1}


# ---------------------------------------------------------------------------
# Config files, read by the command line's load stage: each case runs ``main``


@pytest.fixture
def run(tmp_path, capsys, monkeypatch):
    """
    main(argv + ["--config", file]) with the file holding ``config``, JSON text or a value to
    dump, and with no SPECTRIPLE_* variable set: (exit code, stdout, stderr).
    """
    for name in ("MODEL", "CONFIG", "SEED", "TOL", "OUT"):
        monkeypatch.delenv(f"SPECTRIPLE_{name}", raising=False)
    path = tmp_path / "cfg.json"

    def run(argv, config=None):
        if config is not None:
            path.write_text(config if isinstance(config, str) else json.dumps(config))
            argv = [*argv, "--config", str(path)]
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_config_defaults(run, tmp_path, monkeypatch):
    out = str(tmp_path / "out")
    tp, ap = ToyParams(1.0, 1.0), ActionParams(1.0, 1.0, 1.0)
    assert run(["hessian", "--out", out])[0] == 0  # at the sigma vacuum of tp and ap
    want = grad_hess(potential_fn(tp, ap), (0.0, math.sqrt(sigma_valley_radius(tp, ap)) - 1, 0.0))
    assert load_json(out)["hessian"] == want[1].tolist()
    # claim 11 in tests/test_acceptance.py finds the minimum from 32 starts, at seed 0
    assert run(["minimize", "--out", out])[0] == 0
    points = multi_start_minimize(potential_fn(tp, ap), n_starts=32, seed=0)
    assert [p["hits"] for p in load_json(out)["critical_points"]] == [cp.hits for cp in points]
    assert run(["potential-scan", "--out", out])[0] == 0
    assert len(_csv_rows(out)) == 1 + 201 * 201
    # a residual passes at the tolerance 1e-9 and fails above it
    for residual, code in ((1e-9, 0), (1.01e-9, 1)):
        monkeypatch.setattr(perturbation, "check_transitivity", lambda t, p, q: residual)
        assert run(["semigroup-verify"])[0] == code


def test_config_file_parsing(run, tmp_path):
    config = {"k_x": [0.5, -0.25], "k_y": 2, "f2": 0.75, "seed": 9, "n_starts": 4, "grid_n": 11,
              "point": [0.0, 0.2, 0.0]}
    tp, ap = ToyParams(0.5 - 0.25j, 2.0), ActionParams(f2=0.75)  # f0 and lam at their defaults
    out = str(tmp_path / "out")
    code, stdout, _ = run(["hessian", "--out", out], config)
    assert code == 0 and "point     : [0.0, 0.2, 0.0]" in stdout
    assert load_json(out)["hessian"] == grad_hess(potential_fn(tp, ap), (0.0, 0.2, 0.0))[1].tolist()
    assert run(["minimize", "--out", out], config)[0] == 0
    points = multi_start_minimize(potential_fn(tp, ap), n_starts=4, seed=9)
    assert [p["coords"] for p in load_json(out)["critical_points"]] == [
        cp.coords.tolist() for cp in points]
    assert run(["potential-scan", "--out", out], config)[0] == 0
    values = sigma_grid(tp, ap, n=11)[2]
    assert [float(row[2]) for row in _csv_rows(out)[1:]] == values.ravel().tolist()


def test_config_rejects_unknown_keys(run):
    code, _, err = run(["check"], {"k_q": 1.0})
    assert code == 2 and err == "error: unknown config key: k_q\n"


@pytest.mark.parametrize("key, value", [
    ("n_starts", -3), ("n_starts", 0), ("n_starts", 2.7), ("n_starts", True),
    ("grid_n", 0), ("grid_n", 1), ("grid_n", 5.0), ("grid_n", "11"),
    ("tol", -1.0), ("tol", 0.0), ("tol", float("nan")), ("tol", float("inf")),
    ("seed", 1.5), ("seed", True), ("seed", -1), ("seed", "3"),
])
def test_config_rejects_bad_counts_and_tolerances(run, tmp_path, key, value):
    out = tmp_path / "out"
    code, stdout, err = run(["check", "--out", str(out)], {key: value})
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith(f"error: {key} must be ")


def test_config_rejects_bad_point(run):
    for point, message in (("[1.0, 2.0]", "point must be a list of three numbers, got [1.0, 2.0]"),
                           ("[NaN, 0, 0]", "point[0] must be a finite number, got nan"),
                           ("[1e400, 0, 0]", "point[0] must be a finite number, got inf"),
                           ("[0, -Infinity, 0]", "point[1] must be a finite number, got -inf")):
        code, _, err = run(["hessian"], f'{{"point": {point}}}\n')
        assert code == 2 and err == f"error: {message}\n"


def test_config_missing_file(run):
    code, _, err = run(["check", "--config", "/nonexistent/config.json"])
    assert code == 2 and err == "error: config file not found: /nonexistent/config.json\n"


def test_config_must_be_an_object(run):
    code, _, err = run(["check"], "[1, 2, 3]\n")
    assert code == 2 and err == "error: config file must hold a JSON object\n"

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectriple
from spectriple import (
    AlgebraElement,
    action,
    build_toy,
    cli,
    fluctuate_combined,
    morita,
    perturbation,
    random_pert,
)
from spectriple.action import PI_SQ
from spectriple.cli import main
from spectriple.model_io import (
    element_to_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    pert_from_dict,
    pert_to_dict,
    save_json,
)
from spectriple.spectral_triple import KOReport
from spectriple.toy_model import a_ev
from test_model_io import BAD_V1, BAD_V2, _v1_payload


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in ("MODEL", "CONFIG", "SEED", "TOL", "OUT"):
        monkeypatch.delenv(f"SPECTRIPLE_{name}", raising=False)


def test_check_passes_on_the_builtin_model(capsys, tmp_path):
    out = tmp_path / "report.json"
    assert main(["check", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "status: ok" in text
    assert "first-order max defect" in text
    payload = load_json(str(out))
    assert payload["passed"] is True
    assert payload["zeroth_order"] < 1e-12
    assert payload["first_order"] == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_check_model_file_round_trip(capsys, tmp_path):
    model = tmp_path / "toy.json"
    assert main(["export-toy", "--out", str(model)]) == 0
    assert main(["check", "--model", str(model)]) == 0
    # exporting is stable: a second export of the loaded model is identical
    model2 = tmp_path / "toy2.json"
    assert main(["export-toy", "--out", str(model2)]) == 0
    assert model.read_bytes() == model2.read_bytes()
    capsys.readouterr()
    # and printed without --out, it is the same bytes
    assert main(["export-toy"]) == 0
    assert capsys.readouterr().out.encode() == model.read_bytes()


def test_check_rejects_a_corrupt_model_file(tmp_path, capsys):
    model = tmp_path / "toy.json"
    assert main(["export-toy", "--out", str(model)]) == 0
    payload = load_json(str(model))
    payload["d"][0][0] = [5.0, 0.0]  # diagonal entry breaks the grading
    save_json(str(model), payload)
    assert main(["check", "--model", str(model)]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err


def _summand_out_of_range(payload):
    payload["rep_blocks"][1]["summand"] = 5


def _overlapping_tiles(payload):
    payload["rep_blocks"][1]["offset"] = 0  # onto the first tile


def _nan_in_d(payload):
    payload["d"][0][2] = payload["d"][2][0] = [math.nan, 0.0]


def _float_dim_h(payload):
    payload["dim_h"] = 8.9  # once read as 8


def _string_dim_h(payload):
    payload["dim_h"] = "8"


def _bool_sign(payload):
    payload["signs"]["eps_j"] = True  # once read as +1


def _float_summand(payload):
    payload["summands"] = [2, 2.0]


def _j_without_its_permutation(payload):
    # complex conjugation alone: J^2 = 1 still, but the order zero condition fails
    payload["j_m"] = matrix_to_json(np.eye(8))


def _j_not_unitary(payload):
    # 2m: J^2 = 4 eps_j as well, but the antiunitary check comes first, in AntilinearOp
    payload["j_m"] = [[[2 * x for x in entry] for entry in row] for row in payload["j_m"]]


@pytest.mark.parametrize("corrupt", [_summand_out_of_range, _overlapping_tiles, _nan_in_d,
                                     _float_dim_h, _string_dim_h, _bool_sign, _float_summand,
                                     _j_without_its_permutation, _j_not_unitary])
def test_check_rejects_bad_tilings_and_non_finite_models(tmp_path, capsys, corrupt):
    model = tmp_path / "toy.json"
    assert main(["export-toy", "--out", str(model)]) == 0
    payload = load_json(str(model))
    corrupt(payload)
    save_json(str(model), payload)
    assert main(["check", "--model", str(model)]) == 2
    assert "error:" in capsys.readouterr().err


def _tile_without_left(payload):
    del payload["rep_blocks"][1]["left"]


def _bare_summands(payload):
    payload["summands"] = 2


def _signs_without_eps_d(payload):
    del payload["signs"]["eps_d"]


def _bare_basis(payload):
    payload["basis"] = 5


def _bare_basis_element(payload):
    payload["basis"] = [5]  # once 'int' object is not iterable


@pytest.mark.parametrize("corrupt, message", [
    (_tile_without_left, "error: missing key 'left'\n"),
    (_bare_summands, "error: summands must be a list, got 2\n"),
    (_signs_without_eps_d, "error: missing key 'eps_d'\n"),
    (_bare_basis, "error: basis must be a list, got 5\n"),
    (_bare_basis_element, "error: an algebra element must be a list of matrices, got 5\n"),
], ids=["tile-without-left", "bare-summands", "signs-without-eps-d", "bare-basis",
        "bare-basis-element"])
def test_model_files_with_a_missing_key_or_a_bare_number_name_it(tmp_path, capsys, corrupt,
                                                                  message):
    model = tmp_path / "toy.json"
    assert main(["export-toy", "--out", str(model)]) == 0
    payload = load_json(str(model))
    corrupt(payload)
    save_json(str(model), payload)
    assert main(["check", "--model", str(model)]) == 2
    assert capsys.readouterr().err == message


def test_fluctuate_prints_fields_and_writes_the_operator(capsys, tmp_path, rng):
    t = build_toy()
    p = random_pert(a_ev(), rng)
    pfile = tmp_path / "pert.json"
    save_json(str(pfile), pert_to_dict(p))
    out = tmp_path / "dprime.json"
    assert main(["fluctuate", "--pert", str(pfile), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "fluctuated operator norm" in text
    assert "x  =" in text and "v1 =" in text
    got = matrix_from_json(load_json(str(out))["matrix"])
    # JSON floats round-trip exactly, so this is the same matrix bit for bit
    want = fluctuate_combined(t, pert_from_dict(t.algebra, pert_to_dict(p)))
    assert np.array_equal(got, want)


def test_fluctuate_rejects_malformed_pert_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["fluctuate", "--pert", str(bad)]) == 2
    bad.write_text('{"wrong_key": []}\n')
    assert main(["fluctuate", "--pert", str(bad)]) == 2
    # structurally fine but not normalized -> input error as well
    payload = _v1_payload(random_pert(a_ev(), np.random.default_rng(3)))
    payload["pairs"] = payload["pairs"] + payload["pairs"]
    bad.write_text(json.dumps(payload))
    assert main(["fluctuate", "--pert", str(bad)]) == 2
    capsys.readouterr()
    # format 2: an unknown format is named, a list is no payload, twice the rows is
    # the wrong shape
    payload = pert_to_dict(random_pert(a_ev(), np.random.default_rng(3)))
    for text, message in (
        (json.dumps({**payload, "format": "2"}), "format '2'"),
        ("[[1.0, 0.0]]", "JSON object"),
        (json.dumps({**payload, "coeffs": payload["coeffs"] * 2}), "must be 8x8"),
    ):
        bad.write_text(text)
        assert main(["fluctuate", "--pert", str(bad)]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(BAD_V2))
def test_fluctuate_exits_2_on_a_bad_format_2_file(case, tmp_path, capsys):
    payload, message = BAD_V2[case]
    path = tmp_path / "pert.json"
    path.write_text(json.dumps(payload))
    assert main(["fluctuate", "--pert", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(BAD_V1))
def test_fluctuate_exits_2_naming_a_malformed_format_1_pair(case, tmp_path, capsys):
    payload, message = BAD_V1[case]
    path = tmp_path / "pert.json"
    path.write_text(json.dumps(payload))
    assert main(["fluctuate", "--pert", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("seed", [0, 3])
def test_a_format_1_file_and_its_format_2_rewrite_fluctuate_alike(seed, tmp_path, capsys):
    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    save_json(str(v1), _v1_payload(random_pert(a_ev(), np.random.default_rng(seed))))
    save_json(str(v2), pert_to_dict(pert_from_dict(a_ev(), load_json(str(v1)))))
    assert load_json(str(v2))["format"] == 2
    runs = []
    for path in (v1, v2):
        out = tmp_path / f"{path.stem}-dprime.json"
        assert main(["fluctuate", "--pert", str(path), "--out", str(out)]) == 0
        runs.append((capsys.readouterr().out, out.read_bytes()))
    assert runs[0] == runs[1]


def test_missing_config_file_is_an_input_error(capsys):
    assert main(["check", "--config", "/no/such/file.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_is_an_input_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bogus": 1}\n')
    assert main(["check", "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_potential_scan_csv_shape_and_valley(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    save_json(str(cfg), {"grid_n": 41})
    out = tmp_path / "scan.csv"
    assert main(["potential-scan", "--figure", "1", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["coord1", "coord2", "V"]
    assert len(rows) == 1 + 41 * 41
    # the grid argmin must sit within one cell of the valley radius sqrt(2)
    data = [(float(a), float(b), float(v)) for a, b, v in rows[1:]]
    s1, s2, v = min(data, key=lambda r: r[2])
    v_sq = (1.0 + s1) ** 2 + s2 ** 2
    cell = 6.0 / 40.0
    assert abs(v_sq - math.sqrt(2.0)) < 2.0 * cell
    assert v == pytest.approx(-1.0 / PI_SQ, abs=2.0 * cell)
    capsys.readouterr()


def test_potential_scan_figure_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    save_json(str(cfg), {"grid_n": 21})
    out = tmp_path / "scan2.csv"
    assert main(["potential-scan", "--figure", "2", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["coord1", "coord2", "V"]
    assert len(rows) == 1 + 21 * 21
    capsys.readouterr()


@pytest.mark.parametrize("command, key, ceiling, builder", [
    ("potential-scan", "grid_n", 1001, "sigma_grid"),
    ("minimize", "n_starts", 1024, "multi_start_minimize"),
])
def test_the_load_stage_refuses_a_count_above_its_ceiling(tmp_path, capsys, monkeypatch, command,
                                                          key, ceiling, builder):
    # the builders are stubs that record what they are asked for: no grid is allocated
    asked = []

    def stub(*args, **kwargs):
        asked.append(kwargs)
        return ([], [], np.zeros((0, 0))) if builder == "sigma_grid" else []

    monkeypatch.setattr(action, builder, stub)
    cfg = tmp_path / "cfg.json"
    save_json(str(cfg), {key: 10**9})
    assert main([command, "--config", str(cfg)]) == 2
    low = 2 if key == "grid_n" else 1
    assert capsys.readouterr().err == (
        f"error: {key} must be an integer in [{low}, {ceiling}], got {10**9}\n")
    assert asked == []
    save_json(str(cfg), {key: ceiling})  # the ceiling itself is allowed
    main([command, "--config", str(cfg)])
    assert ceiling in asked[0].values()


def test_minimize_finds_the_global_minimum(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    save_json(str(cfg), {"n_starts": 6})
    out = tmp_path / "crit.json"
    assert main(["minimize", "--config", str(cfg), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "V = " in text
    points = load_json(str(out))["critical_points"]
    # all six starts reach the one gauge class of global minima
    assert [p["hits"] for p in points] == [6]
    assert text.count("V = ") == 1
    assert points[0]["value"] == pytest.approx(-4.0 / PI_SQ, rel=1e-9)
    coords = points[0]["coords"]
    assert coords[0] ** 2 == pytest.approx(2.0, abs=1e-6)


def test_minimize_is_deterministic(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    save_json(str(cfg), {"n_starts": 3})
    assert main(["minimize", "--config", str(cfg), "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["minimize", "--config", str(cfg), "--seed", "5"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_hessian_at_the_default_vacuum(tmp_path, capsys):
    out = tmp_path / "hess.json"
    assert main(["hessian", "--out", str(out)]) == 0
    capsys.readouterr()
    payload = load_json(str(out))
    hess = np.array(payload["hessian"])
    assert hess.shape == (3, 3)
    assert hess[0, 0] == pytest.approx(-4.0 / PI_SQ, rel=1e-4)
    assert hess[1, 1] == pytest.approx(16.0 * math.sqrt(2.0) / PI_SQ, rel=1e-4)
    assert abs(hess[2, 2]) < 1e-6
    assert max(abs(g) for g in payload["gradient"]) < 1e-7


def test_hessian_honours_a_configured_point(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    save_json(str(cfg), {"point": [0.5, 0.0, 0.0]})
    assert main(["hessian", "--config", str(cfg)]) == 0
    assert "[0.5, 0.0, 0.0]" in capsys.readouterr().out


def test_stabilizer_chain(tmp_path, capsys):
    out = tmp_path / "stab.json"
    assert main(["stabilizer", "--out", str(out)]) == 0
    assert load_json(str(out)) == {"zero": 6, "sigma_valley": 3, "both_fields": 2}
    capsys.readouterr()


def test_morita_check_passes(capsys):
    assert main(["morita-check"]) == 0
    assert "status: ok" in capsys.readouterr().out


def test_morita_check_fails_on_a_nan_residual(capsys, monkeypatch):
    monkeypatch.setattr(morita, "check_idempotent_identity", lambda t, n, e: math.nan)
    assert main(["morita-check"]) == 1
    assert "status: FAILED" in capsys.readouterr().out


def test_morita_check_reports_a_failed_idempotent_draw(capsys, monkeypatch):
    # no clean draw is a failed computation on valid input: exit 1, not the input error 2
    def no_draw(*args, **kwargs):
        raise RuntimeError("could not draw a clean random idempotent")

    monkeypatch.setattr(morita, "random_idempotent", no_draw)
    assert main(["morita-check"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: could not draw a clean random idempotent\n"
    assert "status:" not in captured.out


@pytest.mark.parametrize("command, name", [
    ("minimize", "v_trace"),
    ("hessian", "v_trace"),
    ("potential-scan", "v_reduced"),  # the scan evaluates the closed form, not the trace
])
def test_a_failed_potential_evaluation_exits_1_with_a_message(capsys, monkeypatch, command, name):
    # v_trace's ArithmeticError is a failed computation on valid input: exit 1, no traceback
    def imaginary(*args, **kwargs):
        raise ArithmeticError("trace of D'^2 acquired an imaginary part")

    monkeypatch.setattr(action, name, imaginary)
    assert main([command]) == 1
    assert capsys.readouterr().err == "error: trace of D'^2 acquired an imaginary part\n"


@pytest.mark.parametrize(
    "args", [["check"], ["semigroup-verify", "--seed", "0"]], ids=["check", "semigroup"]
)
def test_python_m_spectriple_runs_without_importing_scipy(args):
    # scipy.linalg alone is most of a start-up; only minimize imports scipy (scipy.optimize)
    env = {**os.environ, "PYTHONPATH": str(Path(spectriple.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "spectriple", *args],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("status: ok\n")
    loaded = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")]
    assert "spectriple.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_semigroup_verify_fails_on_a_nan_residual(capsys, monkeypatch):
    monkeypatch.setattr(perturbation, "check_transitivity", lambda t, p, q: math.nan)
    assert main(["semigroup-verify"]) == 1
    text = capsys.readouterr().out
    assert "transitivity : nan" in text
    assert "status: FAILED" in text


def test_check_fails_on_a_nan_ko_residual(capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_ko_signs", lambda t: KOReport(0.0, math.nan, 0.0))
    assert main(["check"]) == 1
    text = capsys.readouterr().out
    assert "KO sign residual        : nan" in text
    assert "status: FAILED" in text


def test_semigroup_verify_passes_and_fails_by_tolerance(capsys):
    assert main(["semigroup-verify"]) == 0
    assert "status: ok" in capsys.readouterr().out
    # residuals are ~1e-15: an absurdly tight tolerance must flip the gate
    assert main(["semigroup-verify", "--tol", "1e-30"]) == 1
    assert "status: FAILED" in capsys.readouterr().out


def test_env_variables_fill_in_for_flags(tmp_path, capsys, monkeypatch):
    env_out = tmp_path / "env.json"
    monkeypatch.setenv("SPECTRIPLE_OUT", str(env_out))
    assert main(["export-toy"]) == 0
    assert env_out.exists()
    # a flag beats the environment
    flag_out = tmp_path / "flag.json"
    assert main(["export-toy", "--out", str(flag_out)]) == 0
    assert flag_out.exists()
    assert env_out.read_bytes() == flag_out.read_bytes()
    capsys.readouterr()


def test_env_seed_matches_flag_seed(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    save_json(str(cfg), {"n_starts": 2})
    assert main(["minimize", "--config", str(cfg), "--seed", "42"]) == 0
    by_flag = capsys.readouterr().out
    monkeypatch.setenv("SPECTRIPLE_SEED", "42")
    assert main(["minimize", "--config", str(cfg)]) == 0
    by_env = capsys.readouterr().out
    assert by_flag == by_env


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_bad_tolerance_flag_is_an_input_error(capsys, tol):
    assert main(["check", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert "tol must be a finite number > 0" in captured.err
    assert "status:" not in captured.out


def test_bad_tolerance_in_the_environment_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setenv("SPECTRIPLE_TOL", "inf")
    assert main(["morita-check"]) == 2
    captured = capsys.readouterr()
    assert "tol must be a finite number > 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, key, value", [
    ("minimize", "n_starts", -3),
    ("minimize", "n_starts", 2.7),
    ("minimize", "n_starts", True),
    ("potential-scan", "grid_n", 0),
    ("potential-scan", "grid_n", 1),
    ("check", "tol", -1.0),
    ("semigroup-verify", "seed", 1.5),
    ("check", "seed", True),
    # a bool or a string is not a number: each of these once ran
    ("check", "tol", True),
    ("check", "tol", "0.1"),
    ("hessian", "f2", True),
    ("hessian", "lam", "2.5"),
])
def test_bad_config_settings_are_input_errors(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "cfg.json"
    save_json(str(cfg), {key: value})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{key} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("coord", ["NaN", "1e400", '"0.2"', "false"])
def test_a_non_finite_config_point_is_an_input_error(tmp_path, capsys, coord):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"point": [{coord}, 0, 0]}}\n')
    assert main(["hessian", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: point[0] must be a finite number, got ")


@pytest.mark.parametrize(
    "key, value", [("k_x", math.nan), ("k_y", math.inf), ("f2", math.nan), ("lam", math.inf)]
)
def test_non_finite_couplings_are_input_errors(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    save_json(str(cfg), {key: value})
    out = tmp_path / "out"
    assert main(["minimize", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} must be a finite number")
    assert not out.exists()


@pytest.mark.parametrize("error", [ValueError, KeyError, TypeError])
def test_a_fault_inside_a_computation_raises_instead_of_exiting_2(monkeypatch, capsys, error):
    # exit 2 is for settings and input files; a fault in a computation keeps its traceback
    def broken(t, p, q):
        raise error("a fault inside the computation")

    monkeypatch.setattr(perturbation, "check_transitivity", broken)
    with pytest.raises(error, match="a fault inside the computation"):
        main(["semigroup-verify"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", [
    "check", "fluctuate", "potential-scan", "minimize", "hessian", "stabilizer", "morita-check",
    "semigroup-verify", "export-toy",
])
def test_every_subcommand_refuses_a_non_positive_coupling(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    save_json(str(cfg), {"f2": -1})
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "fluctuate":
        argv += ["--pert", str(tmp_path / "none.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: f2 must be a finite number > 0, got -1\n"
    assert captured.out == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["no-such-dir/out.json", "."])
def test_an_out_path_that_cannot_be_a_file_is_an_input_error(tmp_path, capsys, monkeypatch, where):
    monkeypatch.chdir(tmp_path)
    assert main(["check", "--out", where]) == 2
    captured = capsys.readouterr()
    message = f"--out must name a file in an existing directory, got {where!r}"
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_a_seed_flag_beats_a_malformed_seed_in_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("SPECTRIPLE_SEED", "not a number")
    assert main(["semigroup-verify", "--seed", "0"]) == 0
    capsys.readouterr()
    assert main(["semigroup-verify"]) == 2
    assert "invalid literal for int()" in capsys.readouterr().err


@pytest.mark.parametrize("argv, env", [
    (["semigroup-verify", "--seed", "-1"], {}),
    (["minimize"], {"SPECTRIPLE_SEED": "-1"}),
], ids=["flag", "environment"])
def test_a_negative_seed_from_a_flag_or_the_environment_is_an_input_error(
        capsys, monkeypatch, argv, env):
    # the one check of a config seed: this once reached numpy and raised
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be an integer >= 0, got -1\n"
    assert captured.out == ""


@pytest.mark.parametrize("source", ["flag", "environment"])
def test_a_config_entry_is_checked_when_a_flag_or_the_environment_overrides_it(
        tmp_path, capsys, monkeypatch, source):
    cfg = tmp_path / "cfg.json"
    save_json(str(cfg), {"seed": -1})
    argv = ["semigroup-verify", "--config", str(cfg)]
    if source == "flag":
        argv += ["--seed", "0"]
    else:
        monkeypatch.setenv("SPECTRIPLE_SEED", "0")
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"


@pytest.mark.parametrize("key, value, message", [
    ("k_x", True, "cannot read complex number from True"),  # a bool is not a number
    ("k_y", [0.5, True], "cannot read complex number from [0.5, True]"),
    ("f0", 10 ** 400, "int too large to convert to float"),  # once a traceback
], ids=["k_x-bool", "k_y-bool", "f0-10**400"])
def test_a_coupling_that_is_not_a_float_is_an_input_error(tmp_path, capsys, key, value, message):
    cfg = tmp_path / "cfg.json"
    save_json(str(cfg), {key: value})
    out = tmp_path / "out"
    assert main(["hessian", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not out.exists()


def test_a_model_whose_constraint_basis_misses_the_unit_is_an_input_error(tmp_path, capsys):
    model = tmp_path / "toy.json"
    assert main(["export-toy", "--out", str(model)]) == 0
    payload = load_json(str(model))
    e11 = AlgebraElement((np.diag([1.0, 0.0]), np.zeros((2, 2))))
    payload["basis"] = [element_to_json(e11)]  # closed under products and adjoints, not unital
    save_json(str(model), payload)
    for command in ("check", "semigroup-verify"):
        assert main([command, "--model", str(model)]) == 2
        assert capsys.readouterr().err == "error: constraint basis does not span the unit\n"


def test_missing_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2

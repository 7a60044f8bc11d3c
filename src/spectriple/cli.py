"""
Command-line front end.

Every subcommand accepts --model/--config/--seed/--tol/--out; when a flag is
absent the environment variables SPECTRIPLE_MODEL, SPECTRIPLE_CONFIG,
SPECTRIPLE_SEED, SPECTRIPLE_TOL and SPECTRIPLE_OUT are consulted, then the
config file, then the defaults of the settings table.  One load stage runs
before any computation: it puts every value a setting is given, whatever its
source, through that setting's one check, builds the couplings (ToyParams and
ActionParams check them) and reads the model and --pert files.  Exit codes: 0
on success, 1 when a computation failed on valid input or an expectation
failed (residual above tolerance, no converged minimum), 2 when the load stage
refuses a setting or an input file, and only then: a fault inside a
computation raises with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import action as act
from . import model_io as mio
from . import morita as mor
from . import perturbation as pert
from . import toy_model as toy
from .spectral_triple import (
    FiniteSpectralTriple,
    _integer,
    _number,
    check_first_order,
    check_ko_signs,
    check_zeroth_order,
    random_unitary,
    represent,
)
from .matrix_core import _SEMIGROUP_TOL, _relative_defect, _within, adjoint, frob_norm

__all__ = ["main"]


def _point(name, value):
    if value is not None and not (isinstance(value, list) and len(value) == 3):
        raise ValueError(f"{name} must be a list of three numbers, got {value!r}")
    return None if value is None else tuple(_number(f"{name}[{i}]", c) for i, c in enumerate(value))


# setting: (default, check), one per config key; a check takes the name and a value and
# returns it or raises.  Counts, tol and (in ToyParams and ActionParams) the couplings follow
# the library's integer and number rules, ``_integer`` and ``_number``.  seed and tol also have
# a flag and a SPECTRIPLE_* variable, read as the type of the default, as argparse does.  The
# counts have a ceiling: grid_n 1001, five times the figures' 201, and n_starts 1024.
_SETTINGS = {
    **dict.fromkeys(("k_x", "k_y"), (1.0, lambda name, value: mio.complex_from_json(value))),
    **dict.fromkeys(("f2", "f0", "lam"), (1.0, lambda name, value: value)),
    "seed": (0, partial(_integer, low=0)),
    "tol": (_SEMIGROUP_TOL, partial(_number, positive=True)),
    "n_starts": (32, partial(_integer, low=1, high=1024)),
    "grid_n": (201, partial(_integer, low=2, high=1001)),
    "point": (None, _point),
}


@dataclass(frozen=True)
class _Run:
    """What the load stage read: the settings, the couplings and the input files."""

    settings: dict  # setting of _SETTINGS -> its checked value
    out: str | None
    model: str | None
    tp: toy.ToyParams
    ap: act.ActionParams
    triple: FiniteSpectralTriple | None  # --model, or the toy, for the commands that read one
    perturbation: pert.PertElement | None  # fluctuate's --pert
    figure: int  # potential-scan's --figure


def _load(args) -> _Run:
    """Each setting once, flag > environment > config file > default, every source checked."""
    given = {name: os.environ.get(f"SPECTRIPLE_{name.upper()}") if getattr(args, name) is None
             else getattr(args, name) for name in ("config", "seed", "tol", "out", "model")}
    config, out, model = given["config"], given["out"], given["model"]
    if config is not None and not os.path.exists(config):
        raise FileNotFoundError(f"config file not found: {config}")
    entries = {} if config is None else mio.load_json(config)
    if not isinstance(entries, dict):
        raise ValueError("config file must hold a JSON object")
    for key in entries:
        if key not in _SETTINGS:
            raise ValueError(f"unknown config key: {key}")
    settings = {}
    for name, (default, check) in _SETTINGS.items():
        settings[name] = check(name, entries.get(name, default))  # checked even when overridden
        if given.get(name) is not None:
            settings[name] = check(name, type(default)(given[name]))
    if out is not None and (os.path.isdir(out)
                            or not os.path.isdir(os.path.dirname(os.path.abspath(out)))):
        raise ValueError(f"--out must name a file in an existing directory, got {out!r}")
    tp = toy.ToyParams(settings["k_x"], settings["k_y"])
    ap = act.ActionParams(settings["f2"], settings["f0"], settings["lam"])
    triple = p = None
    if _COMMANDS[args.command][2]:
        triple = toy.build_toy(tp) if model is None else mio.triple_from_dict(mio.load_json(model))
        if args.command == "fluctuate":
            p = mio.pert_from_dict(triple.algebra, mio.load_json(args.pert))
    return _Run(settings, out, model, tp, ap, triple, p, getattr(args, "figure", 1))


def _emit_json(out, payload) -> None:
    if out is None:
        json.dump(payload, sys.stdout, indent=1)
        sys.stdout.write("\n")
    else:
        mio.save_json(out, payload)


def _verdict(run: _Run, ok: bool, record: dict) -> int:
    """Write the --out record with "passed", print the status line, and return 0 or 1."""
    if run.out is not None:
        mio.save_json(run.out, {**record, "passed": ok})
    print("status: ok" if ok else "status: FAILED")
    return 0 if ok else 1


def _cmd_check(run: _Run) -> int:
    zeroth = check_zeroth_order(run.triple)
    first = check_first_order(run.triple)
    ko = check_ko_signs(run.triple)
    print(f"zeroth-order max defect : {zeroth.max_defect:.3e}")
    print(f"first-order max defect  : {first.max_defect:.3e}")
    print(f"KO sign residual        : {ko.worst:.3e}")
    tol = run.settings["tol"]
    return _verdict(run, _within(zeroth.max_defect, tol) and ko.passed(tol), {
        "zeroth_order": zeroth.max_defect,
        "first_order": first.max_defect,
        "ko_signs": [ko.res_j_squared, ko.res_jd, ko.res_jgamma],
    })


def _cmd_fluctuate(run: _Run) -> int:
    d_prime = pert.fluctuate_combined(run.triple, run.perturbation)
    print(f"fluctuated operator norm: {frob_norm(d_prime):.12g}")
    if run.model is None:
        fp = toy.extract_fields(pert.eta_one_form(run.perturbation))
        for name in ("x", "v1", "v2"):
            print(f"{name:2} = {getattr(fp, name):.12g}")
    _emit_json(run.out, {"matrix": mio.matrix_to_json(d_prime)})
    return 0


def _cmd_potential_scan(run: _Run) -> int:
    if run.figure == 1:
        ax1, ax2, values = act.sigma_grid(run.tp, run.ap, n=run.settings["grid_n"])
    else:
        ax1, ax2, values = act.x_grid(run.tp, run.ap, n=run.settings["grid_n"])
    rows = [[repr(float(a)), repr(float(b)), repr(float(values[i, j]))]
            for i, a in enumerate(ax1) for j, b in enumerate(ax2)]
    if run.out is None:
        csv.writer(sys.stdout).writerows([["coord1", "coord2", "V"], *rows])
    else:
        with open(run.out, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([["coord1", "coord2", "V"], *rows])
    return 0


def _cmd_minimize(run: _Run) -> int:
    fun = act.potential_fn(run.tp, run.ap)
    points = act.multi_start_minimize(fun, n_starts=run.settings["n_starts"],
                                      seed=run.settings["seed"])
    for cp in points:
        coords = ", ".join(f"{c: .10f}" for c in cp.coords)
        print(
            f"V = {cp.value: .12f}  at ({coords})  [{cp.kind}, hits={cp.hits}, |g|={cp.grad_norm:.2e}]"
        )
    if run.out is not None:
        mio.save_json(run.out, {"critical_points": [
            {"coords": [float(c) for c in cp.coords], "value": cp.value,
             "grad_norm": cp.grad_norm, "kind": cp.kind,
             "eigenvalues": [float(e) for e in cp.eigenvalues], "hits": cp.hits}
            for cp in points
        ]})
    if not points:
        print("no converged critical points")
        return 1
    return 0


def _cmd_hessian(run: _Run) -> int:
    fun = act.potential_fn(run.tp, run.ap)
    point = run.settings["point"]
    if point is None:  # the sigma vacuum
        w = act.sigma_valley_radius(run.tp, run.ap)
        point = (0.0, math.sqrt(w) - 1.0 if w > 0 else 0.0, 0.0)
    grad, hess = act.grad_hess(fun, point)
    eigs = np.linalg.eigvalsh(hess)
    print(f"point     : {list(point)}")
    print(f"gradient  : {[float(g) for g in grad]}")
    for row in hess:
        print("hessian   : " + "  ".join(f"{v: .10e}" for v in row))
    print(f"eigenvalues: {[float(e) for e in eigs]}")
    if run.out is not None:
        mio.save_json(run.out, {"point": list(point), "gradient": [float(g) for g in grad],
                                "hessian": [[float(v) for v in row] for row in hess],
                                "eigenvalues": [float(e) for e in eigs]})
    return 0


def _cmd_stabilizer(run: _Run) -> int:
    tp, ap = run.tp, run.ap
    t = toy.build_toy(tp)
    w = act.sigma_valley_radius(tp, ap)
    kx2 = abs(tp.k_x) ** 2
    x_star = math.sqrt(ap.f2 * ap.lam ** 2 / (ap.f0 * kx2)) if kx2 > 0 else 0.0
    vacua = {
        "zero": np.zeros((8, 8), dtype=complex),
        "sigma_valley": toy.closed_dirac(tp, toy.FieldPoint(0.0, math.sqrt(w), 0.0)),
        "both_fields": toy.closed_dirac(tp, toy.FieldPoint(x_star, math.sqrt(w), 0.0)),
    }
    dims = {}
    for name, d_op in vacua.items():
        dims[name] = act.stabilizer_dim(t, d_op)
        print(f"stabilizer dim ({name}): {dims[name]}")
    if run.out is not None:
        mio.save_json(run.out, dims)
    return 0


def _cmd_morita_check(run: _Run) -> int:
    t, rng = run.triple, np.random.default_rng(run.settings["seed"])
    rows, residuals = [], []
    for n in (1, 2, 3):
        for self_adjoint in (True, False):
            try:
                e = mor.random_idempotent(t, n, rng, self_adjoint=self_adjoint)
            except RuntimeError as exc:  # the draw failed on valid input: exit 1, not 2
                sys.stderr.write(f"error: {exc}\n")
                return 1
            md = mor.MoritaData(t, n, e, mor.random_conn_form(t, n, rng, e))
            assoc = _relative_defect(mor.twisted_dirac_left(md), mor.twisted_dirac_right(md))
            idem_res = mor.check_idempotent_identity(t, n, e)
            residuals += [assoc, idem_res]
            rows.append({"n": n, "self_adjoint": self_adjoint,
                         "assoc": assoc, "idempotent_identity": idem_res})
            print(
                f"n={n} sa={int(self_adjoint)}  order defect {assoc:.3e}  e de e {idem_res:.3e}"
            )
    return _verdict(run, _within(np.max(residuals), run.settings["tol"]), {"rows": rows})


def _cmd_semigroup_verify(run: _Run) -> int:
    t, rng = run.triple, np.random.default_rng(run.settings["seed"])
    runs = {"transitivity": [], "gauge": [], "combined": [], "cf_mult": []}
    for _ in range(10):
        p = pert.random_pert(t.algebra, rng)
        q = pert.random_pert(t.algebra, rng)
        runs["transitivity"].append(pert.check_transitivity(t, p, q))

        u = random_unitary(t.algebra, rng)
        lhs = pert.fluctuate_combined(t, pert.gauge_transform(p, u))
        ru = represent(t, u)
        big = ru @ t.hat(ru)
        rhs = big @ pert.fluctuate_combined(t, p) @ adjoint(big)
        runs["gauge"].append(_relative_defect(lhs, rhs))

        runs["combined"].append(_relative_defect(pert.fluctuate(t, pert.eta_one_form(p)),
                                                 pert.fluctuate_combined(t, p)))

        cf_prod = pert.mu(t, pert.pert_mul(q, p)).canonical_form()
        cf_sep = pert.mu(t, q).canonical_form() @ pert.mu(t, p).canonical_form()
        runs["cf_mult"].append(_relative_defect(cf_prod, cf_sep))
    worst = {name: float(np.max(values)) for name, values in runs.items()}  # NaN comes through
    for name, value in worst.items():
        print(f"{name:13s}: {value:.3e}")
    return _verdict(run, _within(np.max(list(worst.values())), run.settings["tol"]), worst)


def _cmd_export_toy(run: _Run) -> int:
    _emit_json(run.out, mio.triple_to_dict(toy.build_toy(run.tp)))
    return 0


# name: (handler, help, reads a triple: --model, or the toy)
_COMMANDS = {
    "check": (_cmd_check, "axiom and sign residuals", True),
    "fluctuate": (_cmd_fluctuate, "apply a perturbation to D", True),
    "potential-scan": (_cmd_potential_scan, "potential on a grid, as CSV", False),
    "minimize": (_cmd_minimize, "multistart search for critical points", False),
    "hessian": (_cmd_hessian, "gradient and Hessian at a point", False),
    "stabilizer": (_cmd_stabilizer, "gauge stabilizer dimensions at the vacua", False),
    "morita-check": (_cmd_morita_check, "module twist order independence", True),
    "semigroup-verify": (_cmd_semigroup_verify, "semigroup action identities", True),
    "export-toy": (_cmd_export_toy, "write the toy model as JSON", False),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", help="JSON model file (default: built-in toy model)")
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--seed", type=int, help="seed for all random draws")
    common.add_argument("--tol", type=float, help="tolerance for pass/fail residuals")
    common.add_argument("--out", help="output file (JSON, or CSV for scans)")

    parser = argparse.ArgumentParser(
        prog="spectriple",
        description="Finite spectral triples with generalized inner fluctuations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {name: sub.add_parser(name, parents=[common], help=text)
            for name, (_, text, _) in _COMMANDS.items()}
    subs["fluctuate"].add_argument("--pert", required=True,
                                   help="JSON perturbation file (format 2 or 1)")
    subs["potential-scan"].add_argument(
        "--figure", type=int, choices=(1, 2), default=1,
        help="1: sigma plane at x=0; 2: complex x at the sigma valley")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run = _load(args)
    except (OSError, json.JSONDecodeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        return _COMMANDS[args.command][0](run)
    except ArithmeticError as exc:  # e.g. v_trace's imaginary trace: exit 1, not 2
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

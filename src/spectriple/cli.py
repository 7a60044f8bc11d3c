"""
Command-line front end.

Every subcommand accepts --model/--config/--seed/--tol/--out; when a flag is
absent the environment variables SPECTRIPLE_MODEL, SPECTRIPLE_CONFIG,
SPECTRIPLE_SEED, SPECTRIPLE_TOL and SPECTRIPLE_OUT are consulted, then the
config file, then built-in defaults.  Exit codes: 0 on success, 1 when a
computation failed on valid input or an expectation failed (residual above
tolerance, no converged minimum), 2 on input errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import action as act
from . import model_io as mio
from . import morita as mor
from . import perturbation as pert
from . import toy_model as toy
from .spectral_triple import (
    check_first_order,
    check_ko_signs,
    check_zeroth_order,
    random_unitary,
    represent,
)
from .matrix_core import adjoint, frob_norm

__all__ = ["main"]


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
    sub.add_parser("check", parents=[common], help="axiom and sign residuals")
    fl = sub.add_parser("fluctuate", parents=[common], help="apply a perturbation to D")
    fl.add_argument("--pert", required=True, help="JSON perturbation file (format 2 or 1)")
    ps = sub.add_parser("potential-scan", parents=[common], help="potential on a grid, as CSV")
    ps.add_argument("--figure", type=int, choices=(1, 2), default=1,
                    help="1: sigma plane at x=0; 2: complex x at the sigma valley")
    sub.add_parser("minimize", parents=[common], help="multistart search for critical points")
    sub.add_parser("hessian", parents=[common], help="gradient and Hessian at a point")
    sub.add_parser("stabilizer", parents=[common], help="gauge stabilizer dimensions at the vacua")
    sub.add_parser("morita-check", parents=[common], help="module twist order independence")
    sub.add_parser("semigroup-verify", parents=[common], help="semigroup action identities")
    sub.add_parser("export-toy", parents=[common], help="write the toy model as JSON")
    return parser


def _first(*values):
    for v in values:
        if v is not None:
            return v
    return None


def _resolve(args):
    """Flag > environment > config file > defaults."""
    model = _first(args.model, os.environ.get("SPECTRIPLE_MODEL"))
    config = _first(args.config, os.environ.get("SPECTRIPLE_CONFIG"))
    cfg = mio.load_config(config)
    env_seed = os.environ.get("SPECTRIPLE_SEED")
    seed = _first(args.seed, int(env_seed) if env_seed is not None else None, cfg.seed)
    tol = mio.valid_tol(_first(args.tol, os.environ.get("SPECTRIPLE_TOL"), cfg.tol))
    out = _first(args.out, os.environ.get("SPECTRIPLE_OUT"))
    return model, cfg, int(seed), tol, out


def _triple(model_path, cfg):
    if model_path is not None:
        return mio.triple_from_dict(mio.load_json(model_path))
    return toy.build_toy(cfg.toy_params())


def _emit_json(out, payload) -> None:
    if out is None:
        json.dump(payload, sys.stdout, indent=1)
        sys.stdout.write("\n")
    else:
        mio.save_json(out, payload)


def _emit_text(text: str) -> None:
    sys.stdout.write(text + "\n")


def _cmd_check(args) -> int:
    model, cfg, _seed, tol, out = _resolve(args)
    t = _triple(model, cfg)
    zeroth = check_zeroth_order(t)
    first = check_first_order(t)
    ko = check_ko_signs(t)
    _emit_text(f"zeroth-order max defect : {zeroth.max_defect:.3e}")
    _emit_text(f"first-order max defect  : {first.max_defect:.3e}")
    _emit_text(f"KO sign residual        : {ko.worst:.3e}")
    ok = zeroth.max_defect <= tol and ko.passed(tol)
    if out is not None:
        _emit_json(out, {
            "zeroth_order": zeroth.max_defect,
            "first_order": first.max_defect,
            "ko_signs": [ko.res_j_squared, ko.res_jd, ko.res_jgamma],
            "passed": ok,
        })
    _emit_text("status: ok" if ok else "status: FAILED")
    return 0 if ok else 1


def _cmd_fluctuate(args) -> int:
    model, cfg, _seed, _tol, out = _resolve(args)
    t = _triple(model, cfg)
    p = mio.pert_from_dict(t.algebra, mio.load_json(args.pert))
    d_prime = pert.fluctuate_combined(t, p)
    _emit_text(f"fluctuated operator norm: {frob_norm(d_prime):.12g}")
    if model is None:
        fp = toy.extract_fields(pert.eta_one_form(p))
        _emit_text(f"x  = {fp.x:.12g}")
        _emit_text(f"v1 = {fp.v1:.12g}")
        _emit_text(f"v2 = {fp.v2:.12g}")
    _emit_json(out, {"matrix": mio.matrix_to_json(d_prime)})
    return 0


def _cmd_potential_scan(args) -> int:
    _model, cfg, _seed, _tol, out = _resolve(args)
    tp, ap = cfg.toy_params(), cfg.action_params()
    if args.figure == 1:
        ax1, ax2, values = act.sigma_grid(tp, ap, n=cfg.grid_n)
    else:
        ax1, ax2, values = act.x_grid(tp, ap, n=cfg.grid_n)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["coord1", "coord2", "V"])
    for i, a in enumerate(ax1):
        for j, b in enumerate(ax2):
            writer.writerow([repr(float(a)), repr(float(b)), repr(float(values[i, j]))])
    if out is None:
        sys.stdout.write(buf.getvalue())
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    return 0


def _cmd_minimize(args) -> int:
    _model, cfg, seed, _tol, out = _resolve(args)
    tp, ap = cfg.toy_params(), cfg.action_params()
    fun = act.potential_fn(tp, ap)
    points = act.multi_start_minimize(fun, n_starts=cfg.n_starts, seed=seed)
    for cp in points:
        coords = ", ".join(f"{c: .10f}" for c in cp.coords)
        _emit_text(
            f"V = {cp.value: .12f}  at ({coords})  [{cp.kind}, hits={cp.hits}, |g|={cp.grad_norm:.2e}]"
        )
    if out is not None:
        _emit_json(out, {
            "critical_points": [
                {
                    "coords": [float(c) for c in cp.coords],
                    "value": cp.value,
                    "grad_norm": cp.grad_norm,
                    "kind": cp.kind,
                    "eigenvalues": [float(e) for e in cp.eigenvalues],
                    "hits": cp.hits,
                }
                for cp in points
            ]
        })
    if not points:
        _emit_text("no converged critical points")
        return 1
    return 0


def _default_point(tp, ap):
    w = act.sigma_valley_radius(tp, ap)
    return (0.0, math.sqrt(w) - 1.0 if w > 0 else 0.0, 0.0)


def _cmd_hessian(args) -> int:
    _model, cfg, _seed, _tol, out = _resolve(args)
    tp, ap = cfg.toy_params(), cfg.action_params()
    fun = act.potential_fn(tp, ap)
    point = cfg.point if cfg.point is not None else _default_point(tp, ap)
    grad, hess = act.grad_hess(fun, point)
    eigs = np.linalg.eigvalsh(hess)
    _emit_text(f"point     : {list(point)}")
    _emit_text(f"gradient  : {[float(g) for g in grad]}")
    for row in hess:
        _emit_text("hessian   : " + "  ".join(f"{v: .10e}" for v in row))
    _emit_text(f"eigenvalues: {[float(e) for e in eigs]}")
    if out is not None:
        _emit_json(out, {
            "point": list(point),
            "gradient": [float(g) for g in grad],
            "hessian": [[float(v) for v in row] for row in hess],
            "eigenvalues": [float(e) for e in eigs],
        })
    return 0


def _cmd_stabilizer(args) -> int:
    _model, cfg, _seed, _tol, out = _resolve(args)
    tp, ap = cfg.toy_params(), cfg.action_params()
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
        _emit_text(f"stabilizer dim ({name}): {dims[name]}")
    if out is not None:
        _emit_json(out, dims)
    return 0


def _cmd_morita(args) -> int:
    model, cfg, seed, tol, out = _resolve(args)
    t = _triple(model, cfg)
    rng = np.random.default_rng(seed)
    rows = []
    residuals = []
    for n in (1, 2, 3):
        for self_adjoint in (True, False):
            try:
                e = mor.random_idempotent(t, n, rng, self_adjoint=self_adjoint)
            except RuntimeError as exc:  # the draw failed on valid input: exit 1, not 2
                sys.stderr.write(f"error: {exc}\n")
                return 1
            conn = mor.random_conn_form(t, n, rng, e)
            md = mor.MoritaData(t, n, e, conn)
            left = mor.twisted_dirac_left(md)
            right = mor.twisted_dirac_right(md)
            assoc = frob_norm(left - right) / max(1.0, frob_norm(right))
            idem_res = mor.check_idempotent_identity(t, n, e)
            residuals += [assoc, idem_res]
            rows.append({"n": n, "self_adjoint": self_adjoint,
                         "assoc": assoc, "idempotent_identity": idem_res})
            _emit_text(
                f"n={n} sa={int(self_adjoint)}  order defect {assoc:.3e}  e de e {idem_res:.3e}"
            )
    ok = bool(np.max(residuals) <= tol)  # NaN fails
    if out is not None:
        _emit_json(out, {"rows": rows, "passed": ok})
    _emit_text("status: ok" if ok else "status: FAILED")
    return 0 if ok else 1


def _cmd_semigroup(args) -> int:
    model, cfg, seed, tol, out = _resolve(args)
    t = _triple(model, cfg)
    rng = np.random.default_rng(seed)
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
        runs["gauge"].append(frob_norm(lhs - rhs) / max(1.0, frob_norm(rhs)))

        closed = pert.fluctuate(t, pert.eta_one_form(p))
        combined = pert.fluctuate_combined(t, p)
        runs["combined"].append(frob_norm(closed - combined) / max(1.0, frob_norm(combined)))

        cf_prod = pert.mu(t, pert.pert_mul(q, p)).canonical_form()
        cf_sep = pert.mu(t, q).canonical_form() @ pert.mu(t, p).canonical_form()
        runs["cf_mult"].append(frob_norm(cf_prod - cf_sep) / max(1.0, frob_norm(cf_sep)))
    worst = {name: float(np.max(values)) for name, values in runs.items()}  # NaN comes through
    for name, value in worst.items():
        _emit_text(f"{name:13s}: {value:.3e}")
    ok = bool(np.max(list(worst.values())) <= tol)
    if out is not None:
        _emit_json(out, {**worst, "passed": ok})
    _emit_text("status: ok" if ok else "status: FAILED")
    return 0 if ok else 1


def _cmd_export_toy(args) -> int:
    _model, cfg, _seed, _tol, out = _resolve(args)
    t = toy.build_toy(cfg.toy_params())
    _emit_json(out, mio.triple_to_dict(t))
    return 0


_DISPATCH = {
    "check": _cmd_check,
    "fluctuate": _cmd_fluctuate,
    "potential-scan": _cmd_potential_scan,
    "minimize": _cmd_minimize,
    "hessian": _cmd_hessian,
    "stabilizer": _cmd_stabilizer,
    "morita-check": _cmd_morita,
    "semigroup-verify": _cmd_semigroup,
    "export-toy": _cmd_export_toy,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ArithmeticError as exc:  # e.g. v_trace's imaginary trace: exit 1, not 2
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

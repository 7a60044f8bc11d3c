"""
Benchmark of spectriple: one workload in one process, a closed loop with a
single caller.

    python3 perfbench/run.py --workload {semigroup,morita,potential} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` beside this
directory.  ``--trace 0`` measures the end-to-end metrics, with step times
scaled to a reference machine speed (speed.py).  ``--trace 1``
runs the same loop untraced for S/4 seconds, then traced for S/4 seconds,
then the workload's CLI subcommands, and reports the per-layer metrics; the
quarters keep a traced run about as long as an untraced one.
Every line but the last names a metric, its value and unit; the last line
is one JSON object.  Exit code 0: every output checked out; 1: some step or
subcommand failed (the JSON still prints); 2: no usable package (nothing
prints).  A record of the run goes to ``perfbench/out/``.
"""

import os

# One BLAS thread, so that the step rate does not depend on how many CPUs
# happen to be idle; the setting is recorded with every run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

from speed import NoSampler, SpeedSampler
from stage import SetupError, set_up

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 7

# Per-layer metrics: spans reported by call count, by self time per step,
# by self time per morita draw of size n, and by the total size of their results.
CALLS = (
    "spectral_triple.represent", "spectral_triple.contains", "perturbation.pert_mul",
    "perturbation.mu", "perturbation.one_form_cf", "toy_model.closed_dirac",
    "action.v_trace", "action.minimize", "action.grad_hess",
)
SELF_MS = (
    "spectral_triple.represent", "spectral_triple.contains",
    "spectral_triple.random_element", "perturbation.pert_mul", "perturbation.mu",
    "perturbation.fluctuate_combined", "perturbation.fluctuate",
    "perturbation.canonical_form", "perturbation.random_pert", "perturbation.one_form_cf",
    "perturbation.one_form_module", "toy_model.closed_dirac", "toy_model.extract_fields",
    "morita.random_idempotent", "morita.random_conn_form", "morita.compress_connection",
    "morita.check_idempotent_identity", "action.v_trace", "action.minimize",
    "action.grad_hess", "action.multi_start_minimize", "action.grid_scan",
    "action.stabilizer_dim", "model_io.pert_roundtrip",
)
SELF_MS_BY_N = ("morita.MoritaData", "morita.twisted_dirac")
MORITA_SIZES = (1, 2, 3)
RESULT_SIZES = {
    "perturbation.pert_mul.pairs_out": "perturbation.pert_mul",
    "perturbation.mu.terms": "perturbation.mu",
}
# Printed beside the metrics but left out of the JSON line (see README.md).
PRINTED_ONLY = (
    "failed_frac", "step_tail_ms", "step_tail_ms.percentile", "steps",
    "action.converged_starts.base", "trace.spans_per_step", "speed.scale",
)
CLI_NAMES = (
    "cli.semigroup-verify.ms", "cli.fluctuate.ms", "cli.morita-check.ms",
    "cli.minimize.ms", "cli.hessian.ms", "cli.stabilizer.ms",
    "cli.potential-scan.fig1.ms", "cli.potential-scan.fig2.ms", "cli.check.ms",
    "cli.export-toy.ms",
)


@dataclass
class Phase:
    """The steps of one timed loop; ``times`` are CPU seconds per step."""

    indices: list = field(default_factory=list)
    times: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    walls: list = field(default_factory=list)
    results: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r is None or not r.passed)

    @property
    def rate(self) -> float:
        """Steps per CPU second, unscaled."""
        return len(self.times) / sum(self.times)


def timed_loop(workload, tracer, first: int, seconds: float, sampler=NoSampler()) -> Phase:
    """
    Run steps until ``seconds`` of wall time have passed.  A step's time is
    the process CPU time it took, less the reference kernel's time inside
    it: CPU time leaves out the time a shared host gave to other machines.
    """
    phase = Phase()
    i = first
    deadline = perf_counter() + seconds
    while True:
        tracer.step_id = i
        t0, c0, k0 = perf_counter(), process_time(), sampler.spent
        try:
            with tracer.span("step"):
                result = workload.step(i)
        except Exception:  # a failed step is counted, the loop goes on
            sys.stderr.write(f"step {i} raised:\n{traceback.format_exc()}")
            result = None
        c1, t1 = process_time(), perf_counter()
        phase.indices.append(i)
        phase.times.append(c1 - c0 - (sampler.spent - k0))
        phase.starts.append(t0)
        phase.walls.append(t1 - t0)
        phase.results.append(result)
        i += 1
        if t1 >= deadline:
            return phase


def probe_setup() -> tuple:
    """Set-up wall time of each fresh process, and the median of each part."""
    totals, parts = [], {}
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py")],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        totals.append(report["ready"] - spawned)
        for key, value in report["parts"].items():
            parts.setdefault(key, []).append(value)
    return totals, {k: statistics.median(v) for k, v in parts.items()}


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def end_to_end(phase: Phase, setup_s: float, sampler: SpeedSampler) -> dict:
    """
    The end-to-end metrics as {name: (value, unit)}, times at reference
    speed (see speed.py); a tail needs 20 steps.
    """
    scales = [sampler.scale(t0, t0 + wall) for t0, wall in zip(phase.starts, phase.walls)]
    times = sorted(t * k for t, k in zip(phase.times, scales))
    n = len(times)
    out = {
        "setup_s": (setup_s * sampler.scale(), "s"),
        "steps_per_s": (n / sum(times), "1/s"),
        "step_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (phase.failed / n, "1"),
    }
    if n >= 20:
        k = n - 11  # the highest rank with ten steps beyond it
        out["step_tail_ms"] = (times[k] * 1e3, "ms")
        out["step_tail_ms.percentile"] = (100.0 * (k + 1) / n, "%")
    out["steps"] = (n, "count")
    out["speed.scale"] = (statistics.median(scales), "1")
    return out


def size_summary(results) -> dict:
    """Per size key: the values seen, or None if absent."""
    seen = {}
    for r in results:
        if r is None:
            continue
        for key, value in r.sizes.items():
            seen.setdefault(key, set()).add(value)
    return {k: None if None in v else sorted(v) for k, v in sorted(seen.items())}


def worst_residuals(results) -> dict:
    """The largest residual of each check, NaN above all, with its tolerance."""
    worst = {}
    for r in results:
        if r is None:
            continue
        for name, value, tol in r.residuals:
            if name not in worst or math.isnan(value) or value > worst[name][0]:
                worst[name] = (value, tol)
    return worst


def per_layer(arr: dict, phase: Phase, untraced: Phase, parts: dict, cli_ms: dict) -> dict:
    """The per-layer metrics as {name: (value, unit)}, from the traced phase's spans."""
    import numpy as np

    names = list(arr["names"])
    in_phase = np.isin(arr["step"], phase.indices)
    n_steps = len(phase.indices)

    def mask(name):
        if name not in names:
            return np.zeros_like(in_phase)
        return in_phase & (arr["name_id"] == names.index(name))

    # The n of the morita draw each span runs in (-1 outside a draw).  A
    # parent opens before its children, so one pass in span order suffices.
    draws = mask("morita.draw")
    draw_n = np.where(draws, arr["size"], -1.0).tolist()
    for idx, parent in enumerate(arr["parent"].tolist()):
        if parent >= 0 and draw_n[idx] < 0:
            draw_n[idx] = draw_n[parent]
    draw_n = np.array(draw_n)

    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = (mask(name).sum() / n_steps, "count")
    for name in SELF_MS:
        out[f"{name}.self_ms"] = (arr["self"][mask(name)].sum() * 1e3 / n_steps, "ms")
    for name in SELF_MS_BY_N:
        for n in MORITA_SIZES:
            count = int((draws & (draw_n == n)).sum())
            total = arr["self"][mask(name) & (draw_n == n)].sum() * 1e3
            out[f"{name}.self_ms.n{n}"] = (total / count if count else 0.0, "ms")
    for metric, name in RESULT_SIZES.items():
        sizes = arr["size"][mask(name)]
        value = None if np.isnan(sizes).any() else float(sizes.sum()) / n_steps
        out[metric] = (value, "count")

    sizes = size_summary(phase.results)
    for n in MORITA_SIZES:
        values = sizes.get(f"conn_pairs_per_entry.n{n}", [0])
        out[f"morita.conn_pairs.n{n}"] = (None if values is None else max(values), "count")
    found = [r.sizes for r in phase.results if r is not None and "starts" in r.sizes]
    starts = sum(s["starts"] for s in found)
    out["action.converged_starts"] = (
        sum(s["converged_starts"] for s in found) / starts if starts else 0.0, "ratio")
    out["action.evals_per_start"] = (
        sum(s["objective_evals"] for s in found) / starts if starts else 0.0, "count")
    out["action.points_reported"] = (
        sum(s["points_reported"] for s in found) / len(found) if found else 0.0, "count")
    out["action.converged_starts.base"] = (starts, "count")

    out["spectral_triple.axiom_checks.ms"] = (parts["axiom_checks_s"] * 1e3, "ms")
    out["model_io.triple_from_dict.ms"] = (parts["triple_from_dict_s"] * 1e3, "ms")
    for name in CLI_NAMES:
        out[name] = (cli_ms.get(name, 0.0), "ms")
    out["trace.overhead"] = (phase.rate / untraced.rate, "ratio")
    out["trace.spans_per_step"] = (int(in_phase.sum()) / n_steps, "count")
    return out


def run_cli(sp, workload, seed: int) -> tuple:
    """Each sibling subcommand in-process; returns ({metric: ms}, failures)."""
    times, failures = {}, 0
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for metric, argv in workload.cli_runs(Path(tmp), seed):
            sink = io.StringIO()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = sp.cli.main(argv)
            except Exception:  # a subcommand that raises is a failure, not a crash
                sink.write(traceback.format_exc())
                code = None
            times[metric] = (perf_counter() - t0) * 1e3
            if code != 0:
                failures += 1
                sys.stderr.write(f"spectriple {' '.join(argv)} exited {code}:\n{sink.getvalue()}")
    return times, failures


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        triple, _ = set_up()
        setup_walls, parts = probe_setup()
    except SetupError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    import numpy as np
    import spectriple as sp
    from spans import NullTracer, Tracer

    workload = WORKLOADS[args.workload](sp, triple, args.seed, NullTracer())
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_facts(),
              "setup_walls_s": setup_walls, "setup_parts_s": parts}
    OUT.mkdir(exist_ok=True)
    if args.trace == 0:
        with SpeedSampler() as sampler:
            phase = timed_loop(workload, workload.tracer, 0, args.seconds, sampler)
        metrics = end_to_end(phase, statistics.median(setup_walls), sampler)
        origin = phase.starts[0]
        record["kernel_s"] = list(sampler.samples)
        record["kernel_at_s"] = [t - origin for t in sampler.stamps]
        record["step_start_s"] = [t - origin for t in phase.starts]
        results = phase.results
        attempted, failed = len(phase.times), phase.failed
    else:
        untraced = timed_loop(workload, workload.tracer, 0, args.seconds / 4)
        tracer = Tracer()
        workload.tracer = tracer
        tracer.install()
        try:
            phase = timed_loop(workload, tracer, untraced.indices[-1] + 1, args.seconds / 4)
        finally:
            tracer.uninstall()
        cli_ms, cli_failed = run_cli(sp, workload, args.seed)
        arr = tracer.arrays()
        np.savez(OUT / f"{args.workload}-seed{args.seed}-spans.npz", **arr)
        metrics = per_layer(arr, phase, untraced, parts, cli_ms)
        results = untraced.results + phase.results
        attempted = len(untraced.times) + len(phase.times) + len(cli_ms)
        failed = untraced.failed + phase.failed + cli_failed

    sizes = size_summary(results)
    residuals = worst_residuals(results)
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name}: {shown} {unit}")
    for name, values in sizes.items():
        print(f"size {name}: {'absent' if values is None else values}")
    for name, (value, tol) in residuals.items():
        print(f"residual {name}: {value:.3e} (tol {tol:.0e})")
    for key, value in record["machine"].items():
        print(f"machine {key}: {value}")

    record.update(metrics={k: v[0] for k, v in metrics.items()}, sizes=sizes,
                  worst_residuals=residuals, attempted=attempted, failed=failed,
                  step_cpu_s=phase.times, step_walls_s=phase.walls)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()
                    if k not in PRINTED_ONLY},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

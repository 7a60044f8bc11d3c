"""
Golden transcripts of the command line.  Each case under ``tests/golden/`` records one
``spectriple`` run: ``<case>.json`` holds its arguments, the input files it reads, its exit
code, stdout and stderr, and a fingerprint of each random draw it makes; ``<case>.out`` holds
the bytes of its ``--out`` file when it wrote one.

Text and integers must match exactly.  A float matches to a relative 1e-6 with an absolute
floor of 1e-8, so that residuals at round-off and the last digits of another BLAS do not
fail the test; the whitespace before a number belongs to the number, so a minus sign may
take the place of a padding space.  Most residuals that ``morita-check`` and
``semigroup-verify`` print sit under that floor, so the draws behind them are compared
instead: the Frobenius norms of the real and imaginary parts of each idempotent,
perturbation and unitary drawn, in order, to a relative 1e-9.  The perturbations that
``check_transitivity`` receives are fingerprinted the same way, in argument order, so that
a command which swaps the roles of two draws fails too.
``python tests/golden/regenerate.py`` rewrites the records; a change that alters the
output regenerates them and says why.
"""

import contextlib
import io
import json
import pathlib
import re
from unittest import mock

import numpy as np
import pytest

from spectriple import PertElement, cli, morita, perturbation
from spectriple.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
REL, ABS = 1e-6, 1e-8
DRAW_REL = 1e-9
# the random draws of the commands, by the module attribute the command calls
DRAWS = ((morita, "random_idempotent"), (perturbation, "random_pert"), (cli, "random_unitary"))
# the calls whose perturbation arguments are fingerprinted, in argument order
CALLS = ((perturbation, "check_transitivity"),)
_NUMBER = re.compile(r"\s*-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


def _fingerprint(x):
    """Frobenius norms of the real and imaginary parts of a drawn element's coordinates."""
    m = x.coeffs if isinstance(x, PertElement) else x.vec()
    return [float(np.linalg.norm(m.real)), float(np.linalg.norm(m.imag))]


def run_case(argv, inputs):
    """
    (exit code, stdout, stderr, --out bytes or None, draws) of one run in the working
    directory; draws lists [function name, *fingerprint] of each random draw and of each
    perturbation argument of a watched call, in order.
    """
    for name, payload in inputs.items():
        pathlib.Path(name).write_text(json.dumps(payload), encoding="utf-8")
    out, err, draws = io.StringIO(), io.StringIO(), []

    def recorded(draw):
        def wrapper(*args, **kwargs):
            x = draw(*args, **kwargs)
            draws.append([draw.__name__, *_fingerprint(x)])
            return x
        return wrapper

    def watched(call):
        def wrapper(*args, **kwargs):
            draws.extend([call.__name__, *_fingerprint(a)] for a in args
                         if isinstance(a, PertElement))
            return call(*args, **kwargs)
        return wrapper

    with contextlib.ExitStack() as stack:
        patches = [(m, n, recorded) for m, n in DRAWS] + [(m, n, watched) for m, n in CALLS]
        for module, name, wrap in patches:
            stack.enter_context(mock.patch.object(module, name, wrap(getattr(module, name))))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = main(argv)
    target = pathlib.Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    written = target.read_bytes() if target is not None and target.exists() else None
    return code, out.getvalue(), err.getvalue(), written, draws


def _is_float(token):
    return any(c in token for c in ".eE")


def _same_number(got, want):
    if _is_float(got) != _is_float(want):
        return False
    if not _is_float(want):
        return int(got) == int(want)
    x, y = float(got), float(want)
    return abs(x - y) <= max(REL * max(abs(x), abs(y)), ABS)


def assert_matches(got: str, want: str, what: str):
    assert _NUMBER.split(got) == _NUMBER.split(want), f"{what}: the text differs"
    numbers = zip(_NUMBER.findall(got), _NUMBER.findall(want))
    bad = [(g.strip(), w.strip()) for g, w in numbers if not _same_number(g.strip(), w.strip())]
    assert bad == [], f"{what}: numbers differ (got, want)"


def assert_same_draws(got, want):
    assert [d[0] for d in got] == [d[0] for d in want], "the draws differ in kind or number"
    got_norms, want_norms = np.array([d[1:] for d in got]), np.array([d[1:] for d in want])
    assert np.allclose(got_norms, want_norms, rtol=DRAW_REL, atol=0.0), "a draw moved"


@pytest.mark.parametrize("case", sorted(p.stem for p in GOLDEN.glob("*.json")))
def test_cli_output_matches_the_golden_transcript(case, tmp_path, monkeypatch):
    for name in ("MODEL", "CONFIG", "SEED", "TOL", "OUT"):
        monkeypatch.delenv(f"SPECTRIPLE_{name}", raising=False)
    monkeypatch.chdir(tmp_path)
    record = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    code, stdout, stderr, written, draws = run_case(record["argv"], record["inputs"])
    assert code == record["exit"]
    assert_same_draws(draws, record["draws"])
    assert_matches(stdout, record["stdout"], "stdout")
    assert_matches(stderr, record["stderr"], "stderr")
    golden_out = GOLDEN / f"{case}.out"
    assert (written is not None) == golden_out.exists()
    if written is not None:
        assert_matches(written.decode(), golden_out.read_bytes().decode(), "--out file")


def test_the_comparison_tolerates_round_off_and_nothing_else():
    assert_matches("x = 1.0000001e-3, r = 2e-16\n", "x = 1.0000002e-3, r = -3e-16\n", "close")
    assert_matches("a = 0.0000000000", "a = -0.0000000000", "signed zero")
    for got, want in (("n=2", "n=3"), ("x = 1.0", "x = 1.01"), ("x = 1", "x = 1.0"),
                      ("status: ok", "status: FAILED"), ("r = 1e-7", "r = 1e-9")):
        with pytest.raises(AssertionError):
            assert_matches(got, want, "differs")

"""
Golden transcripts of the command line.  Each case under ``tests/golden/`` records one
``spectriple`` run: ``<case>.json`` holds its arguments, the input files it reads, its exit
code, stdout and stderr, and ``<case>.out`` the bytes of its ``--out`` file when it wrote one.

Text and integers must match exactly.  A float matches to a relative 1e-6 with an absolute
floor of 1e-8, so that residuals at round-off and the last digits of another BLAS do not
fail the test; the whitespace before a number belongs to the number, so a minus sign may
take the place of a padding space.  ``python tests/golden/regenerate.py`` rewrites the
records; a change that alters the output regenerates them and says why.
"""

import contextlib
import io
import json
import pathlib
import re

import pytest

from spectriple.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
REL, ABS = 1e-6, 1e-8
_NUMBER = re.compile(r"\s*-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


def run_case(argv, inputs):
    """(exit code, stdout, stderr, --out bytes or None) of one run in the working directory."""
    for name, payload in inputs.items():
        pathlib.Path(name).write_text(json.dumps(payload), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    target = pathlib.Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    written = target.read_bytes() if target is not None and target.exists() else None
    return code, out.getvalue(), err.getvalue(), written


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


@pytest.mark.parametrize("case", sorted(p.stem for p in GOLDEN.glob("*.json")))
def test_cli_output_matches_the_golden_transcript(case, tmp_path, monkeypatch):
    for name in ("MODEL", "CONFIG", "SEED", "TOL", "OUT"):
        monkeypatch.delenv(f"SPECTRIPLE_{name}", raising=False)
    monkeypatch.chdir(tmp_path)
    record = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    code, stdout, stderr, written = run_case(record["argv"], record["inputs"])
    assert code == record["exit"]
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

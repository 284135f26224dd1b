"""Golden outputs of every README command and of the CLI's edge cases.

Each command in tests/golden/ is two files: NAME.json holds its argv, exit
status and stderr, and NAME.out its exact stdout.  COMMANDS is the one
table of them, and each entry names how its stdout is compared:

- BYTES, exact bytes.  The README states that `bound`, `classify` and
  `jack --check threshold` print the same bytes on every BLAS and SIMD
  kernel; the `extremal` commands compared so build the Koebe member to a
  small order, whose coefficients are small integers; and a usage error,
  a refusal or a failure prints nothing on stdout.
- PARSED, parsed JSON: structure, strings, booleans and integers
  (`passed` among them) exactly, floats within REL_TOL with an ABS_TOL
  floor, the tolerances of the benchmark's reference check.  Their last
  digits move between kernels: an FFT, a BLAS band division or a blocked
  recurrence at order 512 (by at most 1.3e-10 relative where measured),
  the seeded sums of `verify` and `report`.  Tied samples trade places
  too (README, Determinism), so `argmax_index` and `argmax_seed` are
  checked for consistency, not value: `argmax_seed` is
  `[seed, argmax_index]` with the golden seed, or both are null as in
  the golden.  Under OPENBLAS_CORETYPE=Prescott with numpy's
  X86_V3/X86_V4/AVX512 loops disabled, the README's `verify` moves
  `argmax_index` 28 -> 105 on rows n = 5..8.

Every command runs in tests/golden/inputs/, so an `--input series.json`
reads there as the README writes it; series.json is the series that the
README's growth extremal prints.  A usage error exits through SystemExit,
whose code is its status.  COLUMNS is 80, since argparse wraps its usage
lines to the terminal width.  The stderr is argparse's text on Python
3.11, which CI runs; later versions word some messages otherwise.

A change that means to move these outputs rewrites the files with

    PYTHONPATH=src python tests/test_golden.py

and the diff shows every moved byte.
"""

import contextlib
import io
import json
import math
import os
import re
import shlex
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from schlicht.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
README = Path(__file__).parent.parent / "README.md"

BYTES, PARSED = "bytes", "parsed"


class Case(NamedTuple):
    """A golden command: its argv, and how its stdout is compared."""
    argv: list
    compare: str = BYTES


STARLIKE = ["--gamma", "1,0", "--lambda", "0", "--A", "1", "--B", "-1"]
KOEBE = ["--class", "S", *STARLIKE]
CASE_I = ["--gamma=-0.5,0", "--lambda", "0", "--A", "1", "--B", "-1"]
CASE_II = ["--gamma", "0.8,0.3", "--lambda", "0.5", "--A", "0.6", "--B", "-1"]
# crossover k = 3 from n = 5 on
CASE_III = ["--gamma", "0,2", "--lambda", "0", "--A", "1", "--B", "0"]
# crossover k = 7 from n = 9 on, so a range from 20 starts past it
CASE_III_LATE = ["--gamma", "0,6", "--lambda", "0.5", "--A", "0.8", "--B", "-0.2"]
K = ["--class", "K", "--gamma", "1,0", "--lambda", "0", "--A", "1", "--B", "-1",
     "--m", "3", "--mu", "0.5"]
# gamma*(A-B) = 2e308 is already inf: refused, exit 2, naming the modulus
OVERFLOW = ["--gamma=1e308,0", "--A", "1", "--B", "-1", "--n", "2:4"]

SPIRAL_CHECK = ["jack", "--check", "spiral"]
# spiral checks whose every sample must pass
ALL_PASS = ("jack-spiral-alpha0-order2048", "jack-spiral-degree1-order64")
REL_TOL, ABS_TOL = 1e-9, 1e-12
# checked for consistency, not value
ARGMAX = ("argmax_index", "argmax_seed")
# the golden whose series is inputs/series.json
SERIES_SOURCE = "jack-growth-extremal"

COMMANDS = {
    **{f"bound-{case}-{fmt}": Case(["bound", *args, "--n", "2:40", "--format", fmt])
       for case, args in (("i", CASE_I), ("ii", CASE_II), ("iii", CASE_III))
       for fmt in ("json", "csv", "table")},
    **{f"bound-iii-late-{fmt}": Case(["bound", *CASE_III_LATE, "--n", "20:40", "--format", fmt])
       for fmt in ("csv", "table")},
    **{f"bound-K-{fmt}": Case(["bound", *K, "--n", "2:40", "--format", fmt])
       for fmt in ("json", "csv", "table")},
    # a 149-row sweep times one Cauchy-Euler factor column
    "bound-K150-csv": Case(["bound", *K, "--n", "2:150", "--format", "csv"]),
    **{f"bound-koebe-{fmt}": Case(["bound", *KOEBE, "--n", "2:10", "--format", fmt])
       for fmt in ("csv", "table")},
    **{f"bound-n7-{fmt}": Case(["bound", *CASE_III, "--n", "7", "--format", fmt])
       for fmt in ("json", "csv", "table")},
    **{f"classify-{case}-{fmt}": Case(["classify", *args, "--n", "2:20", "--format", fmt])
       for case, args in (("i", CASE_I), ("iii", CASE_III), ("iii-late", CASE_III_LATE))
       for fmt in ("json", "table")},
    **{f"classify-iii-12-{fmt}": Case(["classify", *CASE_III, "--n", "2:12", "--format", fmt])
       for fmt in ("json", "table")},
    "classify-iii-12": Case(["classify", *CASE_III, "--n", "2:12"]),
    **{f"{command}-overflow-{fmt}": Case([command, *OVERFLOW, "--format", fmt])
       for command in ("bound", "classify") for fmt in ("json", "table")},
    # the case-II product leaves the double range at n = 220: refused, exit 2
    **{f"bound-inf-{fmt}": Case(["bound", "--gamma", "1000,0", "--A", "1", "--B", "-1",
                                 "--n", "2:300", "--format", fmt])
       for fmt in ("json", "csv", "table")},
    # at n = 687 an infinite product meets a transfer factor that underflowed
    # to 0.0: the first non-finite cell is nan
    **{f"bound-nan-{fmt}": Case(["bound", "--class", "K", "--gamma", "200,0", "--lambda", "0",
                                 "--A", "1", "--B", "-1", "--m", "600", "--mu", "0",
                                 "--n", "2:700", "--format", fmt])
       for fmt in ("json", "csv", "table")},
    # inf from n = 533 on, and nan once the factor underflows: inf is named
    **{f"bound-inf-nan-{fmt}": Case(["bound", "--class", "K", "--gamma", "250,0",
                                     "--lambda", "0", "--A", "1", "--B", "-1", "--m", "600",
                                     "--mu", "0", "--n", "2:900", "--format", fmt])
       for fmt in ("json", "csv", "table")},
    # the order-2 transfer of class B
    **{f"bound-B-{fmt}": Case(["bound", "--class", "B", "--gamma", "1,0", "--lambda", "0.5",
                               "--beta", "0.3", "--mu", "1", "--n", "2:20", "--format", fmt])
       for fmt in ("json", "csv", "table")},
    # the Koebe member, whose coefficients a_k = k are exact
    **{f"extremal-ii-{fmt}": Case(["extremal", *STARLIKE, "--kind", "case-ii", "--n", "2:10",
                                   "--order", "10", "--format", fmt])
       for fmt in ("json", "csv")},
    "extremal-ii-order32": Case(["extremal", *STARLIKE, "--kind", "case-ii", "--n", "2:10",
                                 "--order", "32"]),
    "extremal-ii-order32-csv": Case(["extremal", *STARLIKE, "--kind", "case-ii", "--n",
                                     "2:10", "--order", "32", "--format", "csv"]),
    # the one-row recurrences at order 512, certified at every n to 50
    "extremal-ii-order512": Case(["extremal", *STARLIKE, "--kind", "case-ii", "--n", "2:50",
                                  "--order", "512"], PARSED),
    # the README's cross-kernel example: 302 of its 1178 floats move under
    # OPENBLAS_CORETYPE=Prescott, by at most 3.4e-12 relative
    "extremal-ii-complex-order512": Case(["extremal", "--gamma", "1,0.5", "--lambda", "0.3",
                                          "--A", "1", "--B", "-0.5", "--n", "2:50",
                                          "--order", "512"], PARSED),
    "verify-seed7": Case(["verify", *STARLIKE, "--samples", "1000", "--seed", "7",
                          "--n-max", "10"], PARSED),
    # below seed 2^64 one SeedSequence pass seeds both streams of a sample,
    # here at 4 entropy words; 2^64 + 1 takes one pass per stream
    **{f"verify-seed{seed}": Case(["verify", *STARLIKE, "--samples", "200", "--seed", seed],
                                  PARSED)
       for seed in ("4294967296", "18446744073709551617")},
    "report": Case(["report", *STARLIKE, "--n", "2:10", "--samples", "500", "--seed", "11"],
                   PARSED),
    # A - B = 1e-15: the inversion's pivot is 1 whatever A - B is, so the
    # omega = z member is in the class with margin 1 - 0.99
    "report-A-B-1e-15": Case(["report", "--gamma", "1,0", "--lambda", "0", "--A", "1",
                              "--B", "0.999999999999999", "--seed", "1", "--samples", "10"],
                             PARSED),
    "jack-threshold": Case(["jack", "--check", "threshold", "--alpha", "0.5"]),
    SERIES_SOURCE: Case(["jack", "--check", "growth-extremal", "--beta", "1"], PARSED),
    "jack-growth-extremal-beta0.8": Case(["jack", "--check", "growth-extremal", "--beta", "0.8",
                                          "--order", "512"], PARSED),
    # the beta = 1 extremal z/(1+z) is not in gb at b = 0.5, is at b = 1,
    # and its growth holds at alpha = 0.25
    **{f"jack-gb-b{b}": Case(["jack", "--check", "gb", "--b", b, "--input", "series.json"],
                             PARSED)
       for b in ("0.5", "1")},
    "jack-growth": Case(["jack", "--check", "growth", "--alpha", "0.25", "--input",
                         "series.json"], PARSED),
    # the README's command: 200 samples at order 512, so several blocks
    "jack-spiral": Case([*SPIRAL_CHECK, "--alpha", "0.4", "--samples", "200", "--seed", "3"],
                        PARSED),
    # the divisor (1 + A*omega)^2 has 2*degree + 1 columns; at these orders it
    # is wider than the row, which the source's full-width division takes
    "jack-spiral-order2": Case([*SPIRAL_CHECK, "--alpha", "0.4", "--samples", "3", "--seed",
                                "1", "--order", "2"], PARSED),
    "jack-spiral-order3-degree9": Case([*SPIRAL_CHECK, "--alpha", "0.4", "--samples", "3",
                                        "--seed", "1", "--order", "3", "--degree", "9"],
                                       PARSED),
    # the README's truncated S that fails 2 of its 3 samples, and still exits 0
    "jack-spiral-order2-degree1": Case([*SPIRAL_CHECK, "--alpha", "0.4", "--samples", "3",
                                        "--seed", "1", "--order", "2", "--degree", "1"],
                                       PARSED),
    # --degree 1 draws only omega = rho*e^{i*theta}*z, rho in (0, 1], where
    # nothing decays
    "jack-spiral-degree1": Case([*SPIRAL_CHECK, "--alpha", "0.4", "--samples", "64", "--seed",
                                 "0", "--degree", "1"], PARSED),
    # the band division and the circle evaluation of 1 - S at 2048 columns on
    # the sampler's degree-4 rows, as many columns as the grid has angles
    "jack-spiral-order2048": Case([*SPIRAL_CHECK, "--alpha", "0.4", "--samples", "10",
                                   "--seed", "3", "--order", "2048"], PARSED),
    # the growing worst case: the alpha = 0 sources of degree-1 rows have
    # |s_k| = 2*k*rho^k, at the Rogosinski bound 2*k as rho nears 1; all pass
    "jack-spiral-alpha0-order2048": Case([*SPIRAL_CHECK, "--alpha", "0", "--samples", "64",
                                          "--seed", "0", "--degree", "1", "--order", "2048"],
                                         PARSED),
    # S truncated at z^63 holds the criterion for all 5 degree-1 rows, where
    # members truncated at order 64 failed one
    "jack-spiral-degree1-order64": Case([*SPIRAL_CHECK, "--alpha", "0.4", "--samples", "5",
                                         "--seed", "1", "--degree", "1", "--order", "64"],
                                        PARSED),
    # usage errors: argparse's usage line and message on stderr, exit 1
    "usage-empty": Case([]),
    "usage-bogus": Case(["bogus"]),
    "usage-bound-unknown-option": Case(["bound", "--no-such-option"]),
    "usage-bound-extra": Case(["bound", *KOEBE, "--n", "2:3", "extra"]),
    "usage-bound-n-no-value": Case(["bound", "--n"]),
    "usage-verify-no-seed": Case(["verify", "--samples", "10"]),
    "usage-jack-check-nope": Case(["jack", "--check", "nope"]),
    "usage-bound-dashdash": Case(["bound", "--", "--n", "2:3"]),
}


def _status(argv) -> int:
    """main's return value, or the code of the SystemExit of a usage error."""
    try:
        return main(argv)
    except SystemExit as exit_:
        return exit_.code


def _run(argv, capsys) -> tuple[int, str, str]:
    status = _status(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def _assert_close(actual, expected, path="$"):
    """Parsed JSON equal in structure, strings, booleans and integers, and
    in floats within REL_TOL (ABS_TOL near zero); an argmax consistent."""
    if type(expected) is float:
        assert type(actual) is float, path
        assert math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL), path
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), path
        for key in expected:
            if key not in ARGMAX:
                _assert_close(actual[key], expected[key], f"{path}.{key}")
        if ARGMAX[0] in expected:
            _assert_argmax(actual, expected, path)
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_close(a, e, f"{path}[{i}]")
    else:  # int, bool, str, None: the type too, so True is not 1
        assert type(actual) is type(expected) and actual == expected, path


def _assert_argmax(actual, expected, path):
    """argmax_seed is [seed, argmax_index] with the golden's seed, or both
    are null where the golden's are."""
    index, seed = (actual[key] for key in ARGMAX)
    if expected["argmax_seed"] is None:
        assert (index, seed) == (None, None), path
    else:
        assert type(index) is int and seed == [expected["argmax_seed"][0], index], path


def _golden_run(name, capsys) -> tuple[str, bytes]:
    """The stdout of the golden command name, after checking its status and
    stderr, and the golden stdout."""
    expected = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    status, out, err = _run(expected["argv"], capsys)
    assert (status, err) == (expected["status"], expected["stderr"])
    return out, (GOLDEN / f"{name}.out").read_bytes()


def _names(compare) -> list:
    return sorted(name for name, case in COMMANDS.items() if case.compare == compare)


@pytest.fixture(autouse=True)
def _golden_environment(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(INPUTS)


@pytest.mark.parametrize("name", _names(BYTES))
def test_output_is_byte_identical_to_golden(name, capsys):
    out, golden = _golden_run(name, capsys)
    assert out.encode() == golden


# the parsed compare, first written for the spiral checks
@pytest.mark.parametrize("name", _names(PARSED))
def test_spiral_output_matches_golden(name, capsys):
    out, golden = _golden_run(name, capsys)
    doc = json.loads(out)
    _assert_close(doc, json.loads(golden))
    if name in ALL_PASS:
        assert doc["passed"] == doc["samples"]


def test_every_command_has_a_golden_file():
    records = {path.stem: json.loads(path.read_text(encoding="utf-8"))
               for path in GOLDEN.glob("*.json")}
    assert {name: record["argv"] for name, record in records.items()} == {
        name: case.argv for name, case in COMMANDS.items()}


def test_series_input_is_the_growth_extremal_series():
    golden = json.loads((GOLDEN / f"{SERIES_SOURCE}.out").read_bytes())
    assert json.loads((INPUTS / "series.json").read_bytes()) == golden["series"]


def _readme_commands() -> list:
    """The argv of every `schlicht` line in the README's sh blocks."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    return [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
            if line.startswith("schlicht ")]


def test_every_readme_command_is_a_golden_case():
    commands = _readme_commands()
    assert len(commands) == 10
    assert [argv for argv in commands
            if argv not in [case.argv for case in COMMANDS.values()]] == []


def _write_golden() -> None:
    """Run every command of COMMANDS and rewrite tests/golden/ from its output,
    inputs/series.json first."""
    os.environ["COLUMNS"] = "80"
    os.chdir(INPUTS)
    for path in [*GOLDEN.glob("*.json"), *GOLDEN.glob("*.out")]:
        path.unlink()
    for name in sorted(COMMANDS, key=lambda name: name != SERIES_SOURCE):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = _status(COMMANDS[name].argv)
        record = {"argv": COMMANDS[name].argv, "status": status, "stderr": err.getvalue()}
        (GOLDEN / f"{name}.json").write_text(json.dumps(record) + "\n",
                                             encoding="utf-8")
        (GOLDEN / f"{name}.out").write_text(out.getvalue(), encoding="utf-8", newline="")
        if name == SERIES_SOURCE:
            series = json.loads(out.getvalue())["series"]
            (INPUTS / "series.json").write_text(json.dumps(series) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write_golden()
    sys.exit(0)

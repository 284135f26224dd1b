"""Golden outputs of the sweeps and writers, compared byte for byte.

Each command in tests/golden/ is two files: NAME.json holds its argv, exit
status and stderr, and NAME.out its exact stdout.  The README states that
`bound`, `classify` and `jack --check threshold` print the same bytes on
every BLAS and SIMD kernel, and the `extremal` commands here build the
Koebe member, whose coefficients are small integers, so the test compares
exact bytes and runs unchanged under a second kernel.

A change that means to move these outputs rewrites the files with

    PYTHONPATH=src python tests/test_golden.py

and the diff shows every moved byte.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from schlicht.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASE_I = ["--gamma=-0.5,0", "--lambda", "0", "--A", "1", "--B", "-1"]
CASE_II = ["--gamma", "0.8,0.3", "--lambda", "0.5", "--A", "0.6", "--B", "-1"]
# crossover k = 3 from n = 5 on
CASE_III = ["--gamma", "0,2", "--lambda", "0", "--A", "1", "--B", "0"]
# crossover k = 7 from n = 9 on, so a range from 20 starts past it
CASE_III_LATE = ["--gamma", "0,6", "--lambda", "0.5", "--A", "0.8", "--B", "-0.2"]
K = ["--class", "K", "--gamma", "1,0", "--lambda", "0", "--A", "1", "--B", "-1",
     "--m", "3", "--mu", "0.5"]

COMMANDS = {
    **{f"bound-{case}-{fmt}": ["bound", *args, "--n", "2:40", "--format", fmt]
       for case, args in (("i", CASE_I), ("ii", CASE_II), ("iii", CASE_III))
       for fmt in ("json", "csv", "table")},
    **{f"bound-iii-late-{fmt}": ["bound", *CASE_III_LATE, "--n", "20:40", "--format", fmt]
       for fmt in ("csv", "table")},
    **{f"bound-K-{fmt}": ["bound", *K, "--n", "2:40", "--format", fmt]
       for fmt in ("json", "csv", "table")},
    **{f"bound-n7-{fmt}": ["bound", *CASE_III, "--n", "7", "--format", fmt]
       for fmt in ("json", "csv", "table")},
    **{f"classify-{case}-{fmt}": ["classify", *args, "--n", "2:20", "--format", fmt]
       for case, args in (("i", CASE_I), ("iii", CASE_III), ("iii-late", CASE_III_LATE))
       for fmt in ("json", "table")},
    # the case-II product leaves the double range at n = 220: refused, exit 2
    **{f"bound-inf-{fmt}": ["bound", "--gamma", "1000,0", "--A", "1", "--B", "-1",
                            "--n", "2:300", "--format", fmt]
       for fmt in ("json", "csv", "table")},
    # at n = 687 an infinite product meets a transfer factor that underflowed
    # to 0.0: the first non-finite cell is nan
    **{f"bound-nan-{fmt}": ["bound", "--class", "K", "--gamma", "200,0", "--lambda", "0",
                            "--A", "1", "--B", "-1", "--m", "600", "--mu", "0",
                            "--n", "2:700", "--format", fmt]
       for fmt in ("json", "csv", "table")},
    # inf from n = 533 on, and nan once the factor underflows: inf is named
    **{f"bound-inf-nan-{fmt}": ["bound", "--class", "K", "--gamma", "250,0", "--lambda", "0",
                                "--A", "1", "--B", "-1", "--m", "600", "--mu", "0",
                                "--n", "2:900", "--format", fmt]
       for fmt in ("json", "csv", "table")},
    # the order-2 transfer of class B
    **{f"bound-B-{fmt}": ["bound", "--class", "B", "--gamma", "1,0", "--lambda", "0.5",
                          "--beta", "0.3", "--mu", "1", "--n", "2:20", "--format", fmt]
       for fmt in ("csv", "table")},
    # the Koebe member, whose coefficients a_k = k are exact
    **{f"extremal-ii-{fmt}": ["extremal", "--gamma", "1,0", "--lambda", "0", "--A", "1",
                              "--B", "-1", "--kind", "case-ii", "--n", "2:10", "--order", "10",
                              "--format", fmt]
       for fmt in ("json", "csv")},
    "jack-threshold": ["jack", "--check", "threshold", "--alpha", "0.5"],
}


def _run(argv, capsys) -> tuple[int, str, str]:
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(path.stem for path in GOLDEN.glob("*.json")))
def test_output_is_byte_identical_to_golden(name, capsys):
    expected = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    status, out, err = _run(expected["argv"], capsys)
    assert (status, err) == (expected["status"], expected["stderr"])
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def test_every_command_has_a_golden_file():
    assert sorted(path.stem for path in GOLDEN.glob("*.json")) == sorted(COMMANDS)


def _write_golden() -> None:
    """Run every command of COMMANDS and rewrite tests/golden/ from its output."""
    GOLDEN.mkdir(exist_ok=True)
    for path in [*GOLDEN.glob("*.json"), *GOLDEN.glob("*.out")]:
        path.unlink()
    for name, argv in COMMANDS.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        record = {"argv": argv, "status": status, "stderr": err.getvalue()}
        (GOLDEN / f"{name}.json").write_text(json.dumps(record) + "\n",
                                             encoding="utf-8")
        (GOLDEN / f"{name}.out").write_text(out.getvalue(), encoding="utf-8", newline="")


if __name__ == "__main__":
    _write_golden()
    sys.exit(0)

"""CLI behavior: formats, exit codes, determinism."""

import cmath
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schlicht import ClassParams, ComplexSeries, cli, extremal_case_i, extremals
from schlicht.cli import main, parse_index_range
from schlicht.errors import NonFiniteOutput, ParameterDomainError
from schlicht.extremals import EXTREMAL_KINDS, SharpnessRecord
from schlicht.output import (
    Column,
    Table,
    fixed_json_dumps,
    format_float,
    parse_complex_pair,
)
from schlicht.params import SUBCLASS_NAMES

from conftest import reference_div, reference_draw, reference_json

STARLIKE_ARGS = ["--gamma", "1,0", "--lambda", "0", "--A", "1", "--B", "-1"]
# classes whose index range 2:9 reaches case I, II and III respectively
CASE_ARGS = {
    "I": ["--gamma=-0.5,0", "--lambda", "0", "--A", "1", "--B", "-1"],
    "II": STARLIKE_ARGS,
    "III": ["--gamma", "0,2", "--lambda", "0", "--A", "1", "--B", "0"],
}


@pytest.fixture(scope="module")
def series_file(tmp_path_factory):
    """z/(1-z) at order 24, a starlike function of order 1/2."""
    from schlicht import ClassParams, identity, member_from_schwarz

    f = member_from_schwarz(identity(1), ClassParams(0.5, 0, 1, -1), 24)
    path = tmp_path_factory.mktemp("jack") / "series.json"
    path.write_text(fixed_json_dumps(f.to_json_dict()))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def extremal_builds(monkeypatch):
    """Kinds of the extremals built, in order, by any caller of build_extremal."""
    kinds = []
    build = extremals.build_extremal

    def counted(spec):
        kinds.append(spec.kind)
        return build(spec)

    monkeypatch.setattr(cli, "build_extremal", counted)
    monkeypatch.setattr(extremals, "build_extremal", counted)
    return kinds


class TestBoundCommand:
    def test_csv_koebe_anchor(self, capsys):
        code, out, err = run_cli(
            ["bound", "--class", "S", *STARLIKE_ARGS, "--n", "2:10", "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,case,crossover_k,bound,sharp"
        assert len(lines) == 10
        for row in lines[1:]:
            n, case, _, bound, sharp = row.split(",")
            assert case == "II" and sharp == "true"
            assert float(bound) == pytest.approx(float(n), abs=1e-12)

    def test_json_document(self, capsys):
        code, out, _ = run_cli(
            ["bound", *STARLIKE_ARGS, "--n", "5", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["A"] == 1.0
        assert doc["results"][0]["n"] == 5
        assert doc["results"][0]["bound"] == pytest.approx(5.0)

    def test_domain_error_exit_code(self, capsys):
        code, out, err = run_cli(
            ["bound", "--gamma", "1,0", "--A", "-0.5", "--B", "0.5", "--n", "3"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "parameter error" in err

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_non_finite_bound_is_refused(self, fmt, capsys):
        # the case-II product overflows a double long before n = 300; 2:300
        # is the benchmark's bound-inf op, whose earlier rows are finite
        for n in ("300", "2:300"):
            code, out, err = run_cli(
                ["bound", "--gamma", "1000,0", "--A", "1", "--B", "-1", "--n", n,
                 "--format", fmt],
                capsys,
            )
            assert code == 2
            assert out == ""
            assert "non-finite" in err

    def test_long_case_i_sweep(self, capsys):
        # the sweep is linear in hi; per-index evaluation was quadratic
        code, out, _ = run_cli(
            ["bound", "--gamma=-0.5,0", "--lambda", "0", "--A", "1", "--B", "-1",
             "--n", "2:10000", "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 9999
        assert rows[0].startswith("2,II,")
        assert all(row.split(",")[1] == "I" for row in rows[1:])
        assert rows[-1].startswith("10000,I,")

    def test_subclass_via_name(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--class", "M", "--beta", "2", "--n", "3", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"][0]["bound"] == pytest.approx(1.0)

    def test_table_format(self, capsys):
        code, out, _ = run_cli(
            ["bound", *STARLIKE_ARGS, "--n", "2:3", "--format", "table"], capsys
        )
        assert code == 0
        assert "bound" in out.splitlines()[0]
        assert len(out.strip().splitlines()) == 3

    @pytest.mark.parametrize("case", sorted(CASE_ARGS))
    def test_csv_and_table_carry_the_same_cells(self, case, capsys):
        argv = ["bound", *CASE_ARGS[case], "--n", "2:9", "--format"]
        code, csv_out, _ = run_cli([*argv, "csv"], capsys)
        assert code == 0
        code, table_out, _ = run_cli([*argv, "table"], capsys)
        assert code == 0
        csv_lines = [line.split(",") for line in csv_out.splitlines()]
        table_lines = [line.split() for line in table_out.splitlines()]
        assert csv_lines[0] == ["n", "case", "crossover_k", "bound", "sharp"]
        assert table_lines[0] == ["n", "case", "k", "bound", "sharp"]
        assert len(csv_lines) == len(table_lines) == 9
        for csv_row, table_row in zip(csv_lines[1:], table_lines[1:]):
            # a crossover index only in case III; none is "" in CSV, "-" in a table
            k = csv_row[2]
            assert (k != "") == (csv_row[1] == "III")
            assert table_row == [*csv_row[:2], k or "-", *csv_row[3:]]
        assert case in {row[1] for row in csv_lines[1:]}

    def test_class_option_outside_the_class_is_refused(self, capsys):
        code, out, err = run_cli(
            ["bound", "--class", "Sstar", "--gamma", "1,0", "--A", "0.3", "--n", "2:3"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("parameter error: subclass 'Sstar' does not take 'a'")


class TestClassifyCommand:
    def test_case_iii_classification(self, capsys):
        code, out, _ = run_cli(
            ["classify", "--gamma", "0,2", "--lambda", "0", "--A", "1", "--B", "0",
             "--n", "6"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        row = doc["classification"][0]
        assert row["case"] == "III" and row["crossover_k"] == 3

    @pytest.mark.parametrize("case", sorted(CASE_ARGS))
    def test_table_rows_match_json_rows(self, case, capsys):
        argv = ["classify", *CASE_ARGS[case], "--n", "2:9", "--format"]
        code, out, _ = run_cli([*argv, "json"], capsys)
        assert code == 0
        rows = json.loads(out)["classification"]
        code, out, _ = run_cli([*argv, "table"], capsys)
        assert code == 0
        lines = [line.split() for line in out.splitlines()]
        assert lines[0] == ["n", "case", "k"]
        expected = [
            [str(row["n"]), row["case"],
             "-" if row["crossover_k"] is None else str(row["crossover_k"])]
            for row in rows
        ]
        assert lines[1:] == expected
        assert len(expected) == 8


class TestExtremalCommand:
    def test_json_includes_certification(self, capsys):
        code, out, _ = run_cli(
            ["extremal", *STARLIKE_ARGS, "--kind", "case-ii", "--n", "2:6",
             "--order", "16"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["series"]["order"] == 16
        assert len(doc["certification"]) == 5
        assert all(entry["attained"] for entry in doc["certification"])

    def test_extremal_is_built_once(self, extremal_builds, capsys):
        code, out, _ = run_cli(
            ["extremal", *STARLIKE_ARGS, "--kind", "case-ii", "--n", "2:50",
             "--order", "64"],
            capsys,
        )
        assert code == 0
        assert len(json.loads(out)["certification"]) == 49
        assert extremal_builds == ["case-ii"]

    def test_gamma_only_kind(self, capsys):
        # gamma = -1/2 keeps the class in the single-index regime, where
        # the starlike-n member attains 2|gamma|/(n-1) = 1/3
        code, out, _ = run_cli(
            ["extremal", "--gamma=-0.5,0", "--kind", "starlike-n", "--n", "4",
             "--order", "8"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        re4, im4 = doc["series"]["coeffs"][4]
        assert abs(complex(re4, im4)) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert doc["certification"][0]["attained"]

    def test_gamma_only_kind_wrong_regime_reports_gap(self, capsys):
        # with gamma = 1/2 the class classifies II at n=4; the single-index
        # member undershoots the product bound and certification says so
        code, out, _ = run_cli(
            ["extremal", "--gamma", "0.5,0", "--kind", "starlike-n", "--n", "4",
             "--order", "8"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert not doc["certification"][0]["attained"]
        assert doc["certification"][0]["gap"] > 0.0

    @pytest.mark.parametrize("kind", ["koebe-gamma", "convex-gamma", "starlike-n"])
    def test_prints_the_params_it_built_with(self, kind, capsys):
        # these kinds fix (lambda, A, B) and print them
        code, out, _ = run_cli(["extremal", "--kind", kind, "--gamma", "1,0"], capsys)
        assert code == 0
        params = json.loads(out)["params"]
        lam = 1.0 if kind == "convex-gamma" else 0.0
        assert (params["lambda"], params["A"], params["B"]) == (lam, 1.0, -1.0)

    @pytest.mark.parametrize("kind", ["koebe-gamma", "convex-gamma", "starlike-n"])
    def test_refuses_class_options_it_would_ignore(self, kind, capsys):
        # the kind builds in its subclass, which takes gamma alone
        subclass = "C" if kind == "convex-gamma" else "Sstar"
        base = ["extremal", "--kind", kind, "--gamma", "1,0"]
        code, _, _ = run_cli([*base, "--class", "S"], capsys)
        assert code == 0
        for extra, refusal in (
            (["--lambda", "0.2"], f"subclass '{subclass}' does not take 'lam'"),
            (["--A", "0.5"], f"subclass '{subclass}' does not take 'a'"),
            (["--B=-0.5"], f"subclass '{subclass}' does not take 'b'"),
            (["--beta", "2"], f"subclass '{subclass}' does not take 'beta'"),
            (["--alpha", "0.5"], f"subclass '{subclass}' does not take 'alpha'"),
            (["--m", "3"], f"subclass '{subclass}' does not take 'm'"),
            (["--mu", "0.5"], f"subclass '{subclass}' does not take 'mu'"),
            (["--class", "M", "--beta", "2"],
             f"--kind {kind} builds in class {subclass}, got --class M"),
            (["--class", "Sstar"],
             f"--kind {kind} builds in class {subclass}, got --class Sstar"),
        ):
            code, out, err = run_cli([*base, *extra], capsys)
            assert code == 1, extra
            assert out == ""
            assert refusal in err

    def test_csv_coefficients(self, capsys):
        code, out, _ = run_cli(
            ["extremal", *STARLIKE_ARGS, "--kind", "case-ii", "--n", "4",
             "--order", "6", "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,re,im"
        assert len(lines) == 8
        assert float(lines[4].split(",")[1]) == pytest.approx(3.0, abs=1e-10)


@pytest.mark.parametrize("command", ["bound", "classify", "extremal", "report"])
@pytest.mark.parametrize("n", ["a:b", "x", "3:", ":2", "2:1.5", "1", "0:1", "1:9"])
def test_malformed_index_range_exits_one(command, n, capsys):
    extra = ["--seed", "1", "--samples", "2"] if command == "report" else []
    code, out, err = run_cli([command, *STARLIKE_ARGS, f"--n={n}", *extra], capsys)
    assert code == 1
    assert out == ""
    # "1", "0:1" and "1:9" parse, but index 1 has no bound to certify
    parses = n in ("1", "0:1", "1:9")
    assert err.startswith(
        "parameter error: index n must be >= 2" if parses else "parameter error: --n"
    )


# a valid series document whose a_2 = 1e308*(1+i) overflows the circle values
OVERFLOWING_SERIES = '{"order": 2, "coeffs": [[0, 0], [1, 0], [1e308, 1e308]]}'


@pytest.mark.parametrize("command", [["verify", "--seed", "0"], ["report", "--seed", "0"],
                                     ["extremal"],
                                     ["jack", "--check", "growth-extremal", "--beta", "1e-300"],
                                     ["report", "--gamma=1e-320,0", "--A", "1", "--B", "-1",
                                      "--seed", "1", "--samples", "3"],
                                     ["jack", "--check", "gb", "--b", "0.5", "--input"],
                                     ["jack", "--check", "growth", "--alpha", "0", "--input"],
                                     ["verify", "--gamma=1e80,0", "--A", "1", "--B", "-1",
                                      "--seed", "0", "--samples", "5", "--n-max", "3"],
                                     ["jack", "--check", "growth-extremal", "--beta", "3e-309",
                                      "--order", "4"]])
def test_overflowing_member_exits_two(command, tmp_path, capsys):
    # gamma = 1e200 overflows the member recurrences, beta = 1e-300 the
    # growth extremal, and the subnormal gamma = 1e-320 the reciprocal that
    # report's Moebius inversion divides by: one error line naming the
    # parameter that drives the coefficients out of the double range.  At
    # beta = 3e-309, 0.5/beta is finite, so the beta check passes it, and
    # |gamma*(A-B)| = 1/beta is the overflow named.  An
    # overflow past the builders, in the circle values of OVERFLOWING_SERIES
    # or in the quadratic slacks of gamma = 1e80, is one error line in
    # numpy's words.  Never a numpy warning
    cause = None
    if command[0] == "jack" and command[2] == "growth-extremal":
        cause = ("member coefficients leave the double range, "
                 f"|gamma*(A-B)| = {1.0 / float(command[4]):g}")
    elif "--gamma=1e-320,0" in command:
        cause = f"the Moebius inversion leaves the double range, |gamma| = {1e-320:g}, A-B = 2"
    elif command[-1] == "--input":
        path = tmp_path / "series.json"
        path.write_text(OVERFLOWING_SERIES)
        command = [*command, str(path)]
    elif "--gamma=1e80,0" not in command:
        command = [*command, "--gamma=1e200,0", "--A", "1", "--B", "-1"]
        cause = "member coefficients leave the double range, |gamma*(A-B)| = 2e+200"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(command, capsys)
    assert code == 2
    assert out == ""
    if cause is None:
        assert err.startswith("error: overflow") and err.count("\n") == 1
    else:
        assert err == f"error: overflow: {cause}\n"
    assert "Warning" not in err and not caught


@pytest.mark.parametrize("command", ["bound", "classify"])
def test_overflowing_modulus_names_its_parameter(command, capsys):
    # both parts of gamma*(A-B) = 1.5e308*(1+i) are finite, its modulus is not
    code, out, err = run_cli([command, "--gamma", "1.5e308,1.5e308", "--A", "1", "--B", "0",
                              "--n", "2:5"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: overflow: bound moduli leave the double range, |gamma*(A-B)| = inf\n"


def test_overflowing_member_names_its_parameter(capsys):
    # the member recurrence overflows first; its handler must not overflow
    # again formatting the modulus it names
    code, out, err = run_cli(["extremal", "--gamma", "1.5e308,1.5e308", "--A", "1", "--B",
                              "0", "--n", "2:5"], capsys)
    assert code == 2
    assert out == ""
    assert err == ("error: overflow: member coefficients leave the double range, "
                   "|gamma*(A-B)| = inf\n")


def test_memory_error_exits_two(monkeypatch, capsys):
    # a grid too large to allocate (say --angles 100000000000) raises
    # MemoryError; the stand-in raises it without allocating
    def no_memory(*args):
        raise MemoryError("Unable to allocate 1.5 PiB")

    monkeypatch.setattr(cli.jackmod, "spiral_check", no_memory)
    code, out, err = run_cli(["jack", "--check", "spiral", "--alpha", "0.4", "--seed", "1",
                              "--samples", "2"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


ANGLE_1_6 = "parameter error: angle alpha must be in (-pi/2, pi/2), got 1.6"


# --alpha is a spiral angle for spiral, threshold and SP, and a starlikeness
# order for growth; None in an argv stands for the series file
@pytest.mark.parametrize("argv, code, message", [
    pytest.param(["bound", "--gamma", "1,0", "--lambda", "nan", "--A", "1", "--B", "-1"], 1,
                 "parameter error: parameters must be finite", id="bound-nan"),
    pytest.param(["verify", "--class", "K", *STARLIKE_ARGS, "--m", "2", "--mu", "0",
                  "--seed", "1"], 1,
                 "parameter error: verify covers the base class", id="verify-transfer"),
    pytest.param(["report", "--class", "K", *STARLIKE_ARGS, "--m", "2", "--mu", "0",
                  "--seed", "1"], 1,
                 "parameter error: report covers the base class", id="report-transfer"),
    pytest.param(["jack", "--check", "spiral", "--alpha", "1.6", "--seed", "1"], 1, ANGLE_1_6,
                 id="spiral-angle"),
    pytest.param(["jack", "--check", "threshold", "--alpha", "1.6"], 1, ANGLE_1_6,
                 id="threshold-angle"),
    pytest.param(["jack", "--check", "growth", "--alpha", "1.6", "--input", None], 1,
                 "parameter error: starlike order alpha must be in [0, 1), got 1.6",
                 id="growth-order-1.6"),
    pytest.param(["jack", "--check", "growth", "--alpha", "1.2", "--input", None], 1,
                 "parameter error: starlike order alpha must be in [0, 1), got 1.2",
                 id="growth-order-1.2"),
    pytest.param(["bound", "--class", "SP", "--alpha", "2", "--A", "1", "--B", "-1"], 1,
                 "parameter error: angle alpha must be in (-pi/2, pi/2), got 2.0",
                 id="sp-angle"),
    pytest.param(["extremal", *STARLIKE_ARGS, "--n", "2:5", "--order", "0"], 1,
                 "parameter error: order must be >= 2, got 0", id="extremal-order"),
    pytest.param(["extremal", *STARLIKE_ARGS, "--n", "2:5", "--order", "-3"], 1,
                 "parameter error: order must be >= 2, got -3", id="extremal-negative-order"),
    pytest.param(["report", *STARLIKE_ARGS, "--n", "2:5", "--seed", "1", "--order", "1"], 1,
                 "parameter error: order must be >= 2, got 1", id="report-order"),
])
def test_refusals(argv, code, message, series_file, capsys):
    argv = [series_file if arg is None else arg for arg in argv]
    status, out, err = run_cli(argv, capsys)
    assert (status, out) == (code, "")
    assert err.startswith(message) and err.count("\n") == 1


def test_parser_is_built_once_and_reused(extremal_builds, capsys):
    argvs = [
        ["bound", *STARLIKE_ARGS, "--n", "2:12", "--format", "json"],
        ["bound", "--no-such-option"],
        ["verify", *STARLIKE_ARGS, "--samples", "20", "--seed", "4", "--n-max", "6"],
        ["extremal", *STARLIKE_ARGS, "--kind", "case-ii", "--n", "2:6", "--order", "16"],
        ["bound", *STARLIKE_ARGS, "--n", "2:12", "--format", "json"],
    ]

    def run_all(fresh_parser: bool) -> list:
        outcomes = []
        for argv in argvs:
            if fresh_parser:
                cli.build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as usage_error:
                code = usage_error.code
            captured = capsys.readouterr()
            outcomes.append((code, captured.out, captured.err))
        return outcomes

    cli.build_parser.cache_clear()
    reused = run_all(fresh_parser=False)
    assert cli.build_parser.cache_info().misses == 1
    assert [code for code, _, _ in reused] == [0, 1, 0, 0, 0]
    assert reused[0] == reused[-1]
    assert run_all(fresh_parser=True) == reused
    # build_extremal is still looked up per call, so the fixture sees both runs
    assert extremal_builds == ["case-ii", "case-ii"]


TOP_USAGE = "usage: schlicht [-h] {bound,classify,extremal,verify,jack,report} ..."


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: "),
    (["bound", "--no-such-option"], "unrecognized arguments: --no-such-option"),
])
def test_console_entry_usage_errors(argv, message):
    """python -m schlicht.cli reads its argv from sys.argv (main(None)).
    The invalid-choice message is checked up to the choices, whose quoting
    differs between Python versions; tests/golden/ pins it whole."""
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    run = subprocess.run([sys.executable, "-m", "schlicht.cli", *argv], capture_output=True,
                         text=True, env=env)
    assert (run.returncode, run.stdout) == (1, "")
    usage, error = run.stderr.splitlines()
    assert usage == TOP_USAGE
    assert error.startswith(f"schlicht: error: {message}")


class TestVerifyCommand:
    def test_deterministic_bytes(self, capsys):
        args = ["verify", *STARLIKE_ARGS, "--samples", "100", "--seed", "7",
                "--n-max", "6"]
        code_a, out_a, _ = run_cli(args, capsys)
        code_b, out_b, _ = run_cli(args, capsys)
        assert code_a == code_b == 0
        assert out_a == out_b
        doc = json.loads(out_a)
        assert doc["total_violations"] == 0
        assert doc["seed"] == 7

    def test_document_key_order(self, capsys):
        # the field order of FuzzReport, and per_n's column order
        code, out, _ = run_cli(["verify", *STARLIKE_ARGS, "--samples", "20", "--seed", "7",
                                "--n-max", "4"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["params", "seed", "samples", "degree", "n_max", "constructions",
                             "per_n", "quadratic_inequality", "total_violations"]
        assert list(doc["constructions"]) == ["polynomial_normalized", "rotation", "monomial"]
        assert list(doc["quadratic_inequality"]) == ["checked_to", "violations", "min_slack"]
        assert [list(row) for row in doc["per_n"]] == 3 * [[
            "n", "bound", "case", "max_observed", "argmax_index", "argmax_seed", "violations"
        ]]

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *STARLIKE_ARGS, "--samples", "10"])
        assert exc.value.code == 1
        assert "--seed" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert "--seed" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "extra",
        [["--degree", "0"], ["--samples", "0"], ["--n-max", "1"], ["--seed", "-1"]],
    )
    def test_out_of_domain_arguments_exit_one(self, extra, capsys):
        args = ["verify", *STARLIKE_ARGS, "--samples", "10", "--seed", "3", *extra]
        code, out, err = run_cli(args, capsys)
        assert code == 1
        assert out == ""
        assert "parameter error" in err


class TestJackCommand:
    def test_threshold(self, capsys):
        code, out, _ = run_cli(["jack", "--check", "threshold", "--alpha", "0.5"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["abs_error"] < 1e-8

    def test_growth_extremal(self, capsys):
        code, out, _ = run_cli(
            ["jack", "--check", "growth-extremal", "--beta", "0.25", "--order", "8"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["not_univalent_expected"] is True

    def test_spiral_batch(self, capsys):
        code, out, _ = run_cli(
            ["jack", "--check", "spiral", "--alpha", "0.4", "--samples", "5",
             "--seed", "2", "--order", "256"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] == 5
        assert doc["min_margin"] > 0.0

    def test_spiral_degree_one_samples_pass(self, capsys):
        # --degree 1 draws omega = rho*e^{i*theta}*z with rho in (0, 1], some
        # near the circle's edge; every one must pass
        code, out, _ = run_cli(
            ["jack", "--check", "spiral", "--alpha", "0.4", "--samples", "64",
             "--seed", "0", "--degree", "1"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["passed"] == 64

    def test_spiral_degree_one_passes_at_order_64(self, capsys):
        # the criterion holds exactly for p = 1/(1 - S); a member truncated at
        # order 64 misses it for sample 3 (margin -224.3), 1/(1 - S) does not
        code, out, _ = run_cli(
            ["jack", "--check", "spiral", "--alpha", "0.4", "--samples", "5",
             "--seed", "1", "--degree", "1", "--order", "64"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] == doc["samples"] == 5
        assert doc["margins"][3] == pytest.approx(0.0228259667154757, rel=1e-12)

    @pytest.mark.parametrize("extra, margins", [
        (["--order", "2"], [0.750160438289743, 0.598600058993526, 0.722393046229542]),
        (["--order", "3", "--degree", "9"],
         [0.826706487117875, 0.766447368809512, 0.832006581454708]),
    ], ids=["order2", "order3-degree9"])
    def test_spiral_divisor_as_wide_as_the_row(self, extra, margins, capsys):
        # (1 + A*omega)^2 has 2*degree + 1 columns, here more than the row's
        code, out, _ = run_cli(
            ["jack", "--check", "spiral", "--alpha", "0.4", "--samples", "3",
             "--seed", "1", *extra],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] == 3
        assert doc["margins"] == pytest.approx(margins, rel=1e-12)
        # the margins are min Re(e^{i*alpha}/(1 - S)), S = sum_{k<order} s_k z^k/k
        # for the source s of the order-wide omega, by Horner's rule
        order = int(extra[1])
        degree = int(extra[3]) if "--degree" in extra else 4
        a = cmath.exp(-0.8j)
        nodes = 0.95 * np.exp(2j * np.pi * np.arange(2048) / 2048)
        for i, margin in enumerate(margins):
            omega = np.zeros(order, dtype=np.complex128)
            drawn = reference_draw((1, i), degree, "polynomial_normalized")[:order]
            omega[: drawn.size] = drawn
            v = omega * a
            v[0] += 1.0
            s = reference_div(reference_div(omega * (a + 1.0), v), v)
            coeffs = np.concatenate(([1.0], -s[1:] / np.arange(1, order)))
            u = np.full(nodes.shape, coeffs[-1])
            for c in coeffs[-2::-1]:
                u = u * nodes + c
            assert margin == pytest.approx(
                float(np.min((cmath.exp(0.4j) / u).real)), rel=1e-12)

    @pytest.mark.parametrize(
        "extra", [["--samples", "0"], ["--order", "0"], ["--order", "1"]]
    )
    def test_spiral_degenerate_inputs_refused(self, extra, capsys):
        code, out, err = run_cli(
            ["jack", "--check", "spiral", "--alpha", "0.4", "--samples", "3",
             "--seed", "2", "--order", "64", *extra],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "parameter error" in err

    @pytest.mark.parametrize(("text", "reason"), [
        pytest.param('{"order": 2, "coeffs": [[0, 0], [1, 0], [NaN, 0]]}', "finite",
                     id="nan"),
        pytest.param("[[0, 0], [1, 0]]", "series document", id="array"),
        pytest.param('{"coeffs": [[0, 0], [1, 0]]}', "series document", id="no-order"),
        pytest.param('{"order": 1.5, "coeffs": [[0, 0], [1, 0]]}', "series document",
                     id="float-order"),
        pytest.param('{"order": "2", "coeffs": [[0, 0], [1, 0], [0, 0]]}',
                     "series document", id="string-order"),
        pytest.param('{"order": 2, "coeffs": [[0, 0], [1, 0]]}', "series document",
                     id="count"),
        pytest.param('{"order": 1, "coeffs": [[0, 0], [0.1, 0, 5]]}', "series document",
                     id="triple"),
        pytest.param('{"order": 1, "coeffs": [[0, 0], ["0.1", 0]]}', "numbers",
                     id="string-part"),
        pytest.param('{"order": 1, "coeffs": [[0, 0], [true, 0]]}', "numbers",
                     id="bool-part"),
        pytest.param("order 1", "not JSON", id="not-json"),
    ])
    def test_non_finite_series_file_refused(self, text, reason, tmp_path, capsys):
        path = tmp_path / "series.json"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                ["jack", "--check", "gb", "--b", "0.5", "--input", str(path)], capsys
            )
        assert code == 1
        assert out == ""
        assert err.startswith("parameter error") and err.count("\n") == 1
        assert "Traceback" not in err
        assert reason in err

    @pytest.mark.parametrize(("coeffs", "reason"), [
        ([[0, 0], [1, 0]], "series order 1 is below 2"),
        ([[0, 0], [5, 0], [0, 0]], "series is not normalized"),
    ], ids=["order-1", "5z"])
    def test_growth_input_outside_the_hypothesis_refused(self, coeffs, reason, tmp_path,
                                                          capsys):
        # the growth bounds hold for normalized f; a_2 needs order 2
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"order": len(coeffs) - 1, "coeffs": coeffs}))
        code, out, err = run_cli(
            ["jack", "--check", "growth", "--alpha", "0.2", "--input", str(path)], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("parameter error") and err.count("\n") == 1
        assert "Traceback" not in err
        assert reason in err

    @pytest.mark.parametrize("coeffs", [[[0, 0], [2, 0]], [[0.5, 0], [1, 0], [0, 0]]],
                             ids=["2z", "a0"])
    def test_gb_input_not_normalized_refused(self, coeffs, tmp_path, capsys):
        # the quotient deviation of 2z is 0, but gb's class is of normalized
        # f, so it is refused as growth refuses 5z
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"order": len(coeffs) - 1, "coeffs": coeffs}))
        code, out, err = run_cli(
            ["jack", "--check", "gb", "--b", "0.5", "--input", str(path)], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("parameter error") and err.count("\n") == 1
        assert "series is not normalized" in err

    def test_growth_from_file(self, tmp_path, capsys):
        from schlicht import ClassParams, identity, member_from_schwarz

        f = member_from_schwarz(identity(1), ClassParams(1, 0, 1, -1), 256)
        path = tmp_path / "series.json"
        path.write_text(fixed_json_dumps(f.to_json_dict()))
        code, out, _ = run_cli(
            ["jack", "--check", "growth", "--alpha", "0", "--input", str(path)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["growth"]["ok"] is True
        assert doc["second_coefficient"]["value"] == pytest.approx(4.0)

    @pytest.mark.parametrize(
        "extra",
        [["--radius", r] for r in ("0", "1", "1.5", "-0.5")]
        + [["--angles", m] for m in ("0", "-1", "1", "2")],
    )
    @pytest.mark.parametrize("check", ["spiral", "gb"])
    def test_circle_domain_refused(self, check, extra, series_file, capsys):
        if check == "spiral":
            args = ["--alpha", "0.4", "--samples", "2", "--seed", "2", "--order", "64"]
        else:
            args = ["--b", "0.5", "--input", series_file]
        code, out, err = run_cli(["jack", "--check", check, *args, *extra], capsys)
        assert code == 1
        assert out == ""
        assert "parameter error" in err

    @pytest.mark.parametrize("extra", [["--radius", "1.5", "--angles", "0"],
                                       ["--radius", "0.5"], ["--angles", "64"]])
    @pytest.mark.parametrize("check", ["growth", "threshold", "growth-extremal"])
    def test_grid_options_refused_off_grid(self, check, extra, series_file, capsys):
        # these checks use no --radius/--angles grid, so the flags are refused
        # instead of silently ignored
        args = {"growth": ["--alpha", "0.25", "--input", series_file],
                "threshold": ["--alpha", "0.5"],
                "growth-extremal": ["--beta", "1", "--order", "8"]}[check]
        assert run_cli(["jack", "--check", check, *args], capsys)[0] == 0
        code, out, err = run_cli(["jack", "--check", check, *args, *extra], capsys)
        assert code == 1
        assert out == ""
        assert f"--check {check} does not read {', '.join(extra[::2])}" in err

    def test_spiral_negative_seed_refused(self, capsys):
        code, out, err = run_cli(
            ["jack", "--check", "spiral", "--alpha", "0.4", "--seed", "-1",
             "--order", "64"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "parameter error" in err

    @pytest.mark.parametrize("order", ["-1", "0", "1"])
    def test_growth_extremal_low_order_refused(self, order, capsys):
        code, out, err = run_cli(
            ["jack", "--check", "growth-extremal", "--beta", "1", "--order", order],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "parameter error" in err

    @pytest.mark.parametrize("beta", ["0", "-1", "nan", "inf", "1e-320"])
    def test_growth_extremal_beta_outside_domain_refused(self, beta, capsys):
        code, out, err = run_cli(
            ["jack", "--check", "growth-extremal", "--beta", beta, "--order", "8"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "parameter error: beta must be finite and positive" in err

    def test_growth_extremal_overflow_exits_two(self, capsys):
        # (1+z)^(-1/beta) overflows for tiny beta; no inf reaches stdout
        code, out, err = run_cli(
            ["jack", "--check", "growth-extremal", "--beta", "1e-300", "--order", "24"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "overflow" in err

    @pytest.mark.parametrize("b, member", [("1", True), ("0.5", False)])
    def test_gb_on_the_growth_extremal(self, b, member, tmp_path, capsys):
        # z/(1+z), the beta = 1 growth extremal, deviates by up to 0.95 on
        # the default circle: inside b = 1, outside b = 0.5
        code, out, _ = run_cli(["jack", "--check", "growth-extremal", "--beta", "1",
                                "--order", "512"], capsys)
        assert code == 0
        path = tmp_path / "series.json"
        path.write_text(json.dumps(json.loads(out)["series"]))
        code, out, err = run_cli(["jack", "--check", "gb", "--b", b, "--input", str(path)],
                                 capsys)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert list(doc) == ["check", "b", "member", "max_dev", "radius", "angles", "winding"]
        assert (doc["member"], doc["winding"]) == (member, 1)
        assert '"max_dev":9.50003925724047e-01,' in out

    def test_missing_required_option(self, capsys):
        code, _, err = run_cli(["jack", "--check", "threshold"], capsys)
        assert code == 1
        assert "alpha" in err

    def test_missing_input_file_exits_two(self, capsys):
        code, _, err = run_cli(
            ["jack", "--check", "gb", "--b", "0.5", "--input", "/no/such/file.json"],
            capsys,
        )
        assert code == 2
        assert err != ""


def _finite_numbers(doc) -> bool:
    if isinstance(doc, dict):
        return all(_finite_numbers(v) for v in doc.values())
    if isinstance(doc, list):
        return all(_finite_numbers(v) for v in doc)
    return not isinstance(doc, float) or math.isfinite(doc)


# the jack options each --check reads, written out here to pin cli.JACK_OPTIONS
JACK_READS = {
    "spiral": ("alpha", "seed", "samples", "degree", "order", "radius", "angles"),
    "gb": ("b", "input", "radius", "angles"),
    "threshold": ("alpha",),
    "growth": ("alpha", "input"),
    "growth-extremal": ("beta", "order"),
}
JACK_REQUIRED = {
    "spiral": ["--alpha", "0.4", "--seed", "2"],
    "gb": ["--b", "0.5", "--input", None],
    "threshold": ["--alpha", "0.5"],
    "growth": ["--alpha", "0.25", "--input", None],
    "growth-extremal": ["--beta", "1"],
}
JACK_VALUES = {"alpha": "0.5", "beta": "1", "b": "0.5", "samples": "2", "degree": "3",
               "seed": "4", "order": "8", "radius": "0.5", "angles": "64", "input": None}
UNREAD = [(check, name) for check, reads in JACK_READS.items()
          for name in JACK_VALUES if name not in reads]


@pytest.mark.parametrize(("check", "option"), UNREAD)
def test_jack_refuses_options_its_check_does_not_read(check, option, series_file, capsys):
    args = [series_file if arg is None else arg for arg in JACK_REQUIRED[check]]
    value = JACK_VALUES[option] or series_file
    code, out, err = run_cli(["jack", "--check", check, *args, f"--{option}", value],
                             capsys)
    assert code == 1
    assert out == ""
    assert f"--check {check} does not read --{option}" in err


_JACK_DRAWS = {
    "alpha": st.floats(-2.0, 2.0),
    "beta": st.floats(-2.0, 2.0),
    "b": st.floats(-2.0, 2.0),
    "order": st.integers(-1, 24),
    "samples": st.integers(-1, 3),
    "degree": st.integers(-1, 5),
    "seed": st.integers(-1, 3),
    "radius": st.floats(-2.0, 2.0),
    "angles": st.integers(-2, 64),
    "input": st.just(None),  # the series file
}


@st.composite
def _jack_options(draw):
    """A --check and any subset of the jack options, or, in half the draws,
    any subset of the options that check reads; each option is present by
    its own draw."""
    check = draw(st.sampled_from(sorted(JACK_READS)))
    names = JACK_READS[check] if draw(st.booleans()) else _JACK_DRAWS
    optional = {name: _JACK_DRAWS[name] for name in names}
    return check, draw(st.fixed_dictionaries({}, optional=optional))


@settings(max_examples=150, deadline=None)
@example(drawn=("growth-extremal", {"order": 0, "beta": 1.0}))  # escaped main as an IndexError
@example(  # overflowing coefficients leaked RuntimeWarnings
    drawn=("growth-extremal", {"order": 24, "beta": 1e-300}),
)
@given(drawn=_jack_options())
def test_jack_cli_contract(series_file, drawn):
    """Any jack argv exits 0, 1 or 2, and exit 0 prints JSON with finite numbers."""
    check, options = drawn
    argv = ["jack", "--check", check]
    argv += [f"--{name}={series_file if value is None else repr(value)}"
             for name, value in options.items()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert _finite_numbers(json.loads(out.getvalue()))
    else:
        assert out.getvalue() == ""


def _parses_as(text: str, fmt: str) -> bool:
    """JSON with finite numbers, or CSV/table rows of one width under a header."""
    if fmt == "json":
        return _finite_numbers(json.loads(text))
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
    else:
        rows = [line.split() for line in text.splitlines()]
    return len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)


def _pair(g) -> str:
    return f"{g[0]!r},{g[1]!r}"


_NUMBER = st.floats(-1.5, 1.5)
_CLASS_OPTIONS = {
    "class": st.sampled_from(SUBCLASS_NAMES),
    "gamma": st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).map(_pair),
    "lambda": _NUMBER,
    "A": _NUMBER,
    "B": _NUMBER,
    "beta": _NUMBER,
    "alpha": _NUMBER,
    # a large --m makes cauchy_euler_factor take m array steps per sweep
    "m": st.integers(-1, 5),
    "mu": st.floats(-2.0, 4.0),
}
# a core class inside its domain, so that half the draws reach a computation
_CORE_CLASS = st.floats(-1.0, 0.5).flatmap(lambda b: st.fixed_dictionaries({
    "gamma": st.tuples(st.floats(0.1, 3.0), st.floats(-3.0, 3.0)).map(_pair),
    "lambda": st.floats(0.0, 1.0),
    "A": st.floats(b + 0.1, 1.0),
    "B": st.just(b),
}))
_MALFORMED_RANGES = ("a:b", "x", "3:", ":", "")
_INDEX_RANGE = st.one_of(
    st.integers(-2, 40).map(str),
    st.tuples(st.integers(-2, 40), st.integers(-2, 40)).map(lambda r: f"{r[0]}:{r[1]}"),
    st.sampled_from(_MALFORMED_RANGES),
)
_SMALL = st.integers(-1, 5)
_COMMAND_OPTIONS = {
    "bound": {"n": _INDEX_RANGE, "format": st.sampled_from(["json", "csv", "table"])},
    "classify": {"n": _INDEX_RANGE, "format": st.sampled_from(["json", "table"])},
    "extremal": {"kind": st.sampled_from(EXTREMAL_KINDS), "n": _INDEX_RANGE,
                 "order": st.integers(-1, 64), "format": st.sampled_from(["json", "csv"])},
    "verify": {"samples": _SMALL, "degree": _SMALL, "seed": _SMALL,
               "n-max": st.integers(-1, 40)},
    "report": {"n": _INDEX_RANGE, "order": st.integers(-1, 64), "samples": _SMALL,
               "degree": _SMALL, "seed": _SMALL},
}


@st.composite
def _subcommand_argv(draw):
    """A subcommand with any subset of its options, or with an in-domain
    core class, a seed where one is required, and any subset of the rest."""
    command = draw(st.sampled_from(sorted(_COMMAND_OPTIONS)))
    optional = dict(_COMMAND_OPTIONS[command])
    if draw(st.booleans()):
        options = draw(_CORE_CLASS)
        if "seed" in optional:
            options["seed"] = draw(st.integers(0, 5))
            del optional["seed"]
    else:
        options = {}
        optional.update(_CLASS_OPTIONS)
    options.update(draw(st.fixed_dictionaries({}, optional=optional)))
    return [command] + [f"--{name}={value}" for name, value in options.items()]


@settings(max_examples=150, deadline=None)
@example(argv=["bound", "--n=a:b"])  # exited 2 on int()'s ValueError
@example(argv=["classify", "--n=x"])
@example(argv=["extremal", "--gamma=1,0", "--n=3:"])
@given(argv=_subcommand_argv())
def test_subcommand_cli_contract(argv):
    """Any bound/classify/extremal/verify/report argv exits 0, 1 or 2; exit 0
    prints the requested format, any other exit prints nothing."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as usage_error:  # argparse exits on its own
            code = usage_error.code
    assert code in (0, 1, 2)
    if code == 0:
        fmt = next((a.split("=", 1)[1] for a in argv if a.startswith("--format=")), "json")
        assert _parses_as(out.getvalue(), fmt)
    else:
        assert out.getvalue() == ""
    if any(f"--n={text}" in argv for text in _MALFORMED_RANGES):
        assert code == 1


class TestReportCommand:
    def test_dossier_shape_and_determinism(self, capsys):
        args = ["report", *STARLIKE_ARGS, "--n", "2:8", "--samples", "100",
                "--seed", "11", "--order", "32"]
        code_a, out_a, _ = run_cli(args, capsys)
        code_b, out_b, _ = run_cli(args, capsys)
        assert code_a == code_b == 0
        assert out_a == out_b
        doc = json.loads(out_a)
        assert [row["bound"] for row in doc["bounds"]] == pytest.approx(
            list(range(2, 9))
        )
        assert all(entry["attained"] for entry in doc["sharpness"])
        assert doc["membership"][0]["margin"] == pytest.approx(0.01, abs=1e-8)
        assert doc["fuzz"]["total_violations"] == 0

    def test_membership_entry_fields(self, capsys):
        # A - B = 1e-15 and 1e-16 too: the Moebius inversion's pivot is 1
        # whatever A - B is
        for params in (STARLIKE_ARGS, ["--gamma", "1,0", "--lambda", "0", "--A", "1", "--B",
                                       "0.999999999999999"],
                       ["--gamma", "1,0", "--A", "0.5", "--B", "0.4999999999999999"]):
            code, out, _ = run_cli(["report", *params, "--n", "2:4", "--samples", "5",
                                    "--seed", "1", "--order", "16"], capsys)
            assert code == 0
            (entry,) = json.loads(out)["membership"]
            assert list(entry) == ["extremal_kind", "member", "margin", "radius", "angles"]
            assert (entry["extremal_kind"], entry["member"]) == ("case-ii", True)
            assert (entry["radius"], entry["angles"]) == (0.99, 2048)
            assert '"radius":9.90000000000000e-01,"angles":2048}' in out

    def test_case_ii_extremal_is_built_once(self, extremal_builds, capsys):
        # gamma = -1/2 puts n = 3..5 in case I, each with its own extremal;
        # those are rows of a stack, which build_extremal does not build
        args = ["report", "--gamma=-0.5,0", "--lambda", "0", "--A", "1", "--B", "-1",
                "--n", "2:5", "--samples", "20", "--seed", "3", "--order", "16"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        cases = [row["case"] for row in json.loads(out)["bounds"]]
        assert cases.count("I") == 3
        assert extremal_builds == ["case-ii"]
        extremal_builds.clear()
        assert run_cli(["report", *STARLIKE_ARGS, "--n", "2:8", "--samples", "20",
                        "--seed", "3", "--order", "16"], capsys)[0] == 0
        assert extremal_builds == ["case-ii"]

    def test_case_i_observed_is_the_order_n_extremal(self, capsys):
        # every case-I row reads |a_n| of extremal_case_i(p, n, n), to the token
        code, out, _ = run_cli(["report", "--gamma=-0.5,0", "--lambda", "0.3", "--A", "1",
                                "--B", "-1", "--n", "2:12", "--samples", "5", "--seed", "1",
                                "--order", "16"], capsys)
        assert code == 0
        p = ClassParams(-0.5, 0.3, 1, -1)
        rows = [row for row in json.loads(out)["sharpness"] if row["extremal_kind"] == "case-i"]
        assert [row["n"] for row in rows] == list(range(3, 13))
        for row in rows:
            f = extremal_case_i(p, row["n"], row["n"])
            assert row["observed"] == json.loads(format_float(abs(f.coefficient(row["n"]))))

    def test_case_iii_dossier_reports_unknown(self, capsys):
        code, out, _ = run_cli(
            ["report", "--gamma", "0,1", "--lambda", "0", "--A", "1", "--B", "0",
             "--n", "2:6", "--samples", "50", "--seed", "5", "--order", "16"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        tags = {row["case"]: row["sharp"] for row in doc["bounds"]}
        assert tags["III"] == "unknown"


class Wrapped(NamedTuple):
    """A record whose one field may hold any document, records included."""

    value: object


# floats that a document repeats: signed zeros, subnormals and the extremes
FLOAT_POOL = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 0.1, -1.0,
              1.7976931348623157e308]
floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(FLOAT_POOL)
json_leaves = (floats | floats.map(np.float64) | st.integers() | st.booleans()
               | st.none() | st.text(max_size=8))
json_keys = st.text(max_size=4) | st.integers(-2, 2) | st.booleans() | floats
json_documents = st.recursive(
    json_leaves,
    lambda children: (
        st.lists(children, max_size=6)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(json_keys, children, max_size=5)
        | st.builds(Wrapped, children)
        | st.builds(SharpnessRecord, st.integers(2, 300), floats, floats, floats,
                    st.booleans())
        | st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                   min_size=1, max_size=4).map(ComplexSeries)
    ),
    max_leaves=40,
)


class TestOutputHelpers:
    @settings(max_examples=150, deadline=None)
    @given(json_documents)
    @example([0.0, -0.0, 0.0, {"a": -0.0, "b": 0.0}])
    @example([-0.0, 0.0, Wrapped([-0.0, 5e-324, 5e-324]), 5e-324])
    @example({1: 1.0, True: [True, 1, 1.0], "1": {1.0: 1.0}})
    def test_json_matches_the_reference_writer(self, doc):
        # the writer and the plain reference recursion agree on every
        # document shape, -0.0 and repeated floats included
        assert fixed_json_dumps(doc) == reference_json(doc)

    def test_record_is_an_object_in_field_order(self):
        # a NamedTuple record is written as the object of its fields, in
        # field order, nested records and Table fields inside it; a plain
        # tuple, even one equal to a record, stays an array.  The reference
        # writer has no Table, so it is given a Table's rows as the list of
        # their objects
        record = SharpnessRecord(3, 2.0, 1.5, 0.5, False)
        rows = Table((Column("n", int, [2, 3]), Column("bound", float, [1.0, 0.25])))
        row_objects = [{"n": 2, "bound": 1.0}, {"n": 3, "bound": 0.25}]
        cases = [
            (record, record, '{"n":3,"bound":2.00000000000000e+00,"observed":'
                             '1.50000000000000e+00,"gap":5.00000000000000e-01,"attained":false}'),
            (tuple(record), tuple(record), '[3,2.00000000000000e+00,1.50000000000000e+00,'
                                           '5.00000000000000e-01,false]'),
            (Wrapped(Wrapped((1, None))), Wrapped(Wrapped((1, None))),
             '{"value":{"value":[1,null]}}'),
            (Wrapped(rows), Wrapped(row_objects),
             '{"value":[{"n":2,"bound":1.00000000000000e+00},'
             '{"n":3,"bound":2.50000000000000e-01}]}'),
        ]
        for doc, plain, text in cases:
            assert fixed_json_dumps(doc) == reference_json(plain) == text

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64(math.nan)])
    def test_repeated_non_finite_float_refused(self, value):
        for doc in ([value, value], [1.0, {"a": value}, value], Wrapped([value, [value]])):
            with pytest.raises(NonFiniteOutput):
                fixed_json_dumps(doc)

    def test_fixed_float_format(self):
        assert format_float(1.0) == "1.00000000000000e+00"
        assert format_float(-0.0) == "0.00000000000000e+00"

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_float_refused(self, value):
        with pytest.raises(NonFiniteOutput):
            format_float(value)

    def test_complex_pair_round_trip(self):
        value = complex(0.1, -2.5)
        text = f"{format_float(value.real)},{format_float(value.imag)}"
        assert parse_complex_pair(text) == value

    def test_strings_escape_quote_backslash_and_control_characters(self):
        # every character up to 0x2FF, alone and in mixtures, is written as
        # itself except the quote, the backslash and the controls below 0x20,
        # which get their short JSON escape or \u00xx
        escapes = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
                   "\b": "\\b", "\f": "\\f"}
        chars = [chr(code) for code in range(0x300)]
        texts = [*chars, "", "".join(chars), "case-ii", "polynomial_normalized",
                 "a b~", 'say "hi"', "back\\slash", "tab\there", "del\x7f",
                 "caf\u00e9", "nul\x00 end", "gamma \u03b3"]
        texts += ["x" + ch + "y" for ch in chars]
        for text in texts:
            expected = "".join(
                escapes.get(ch, f"\\u{ord(ch):04x}" if ord(ch) < 0x20 else ch)
                for ch in text
            )
            assert fixed_json_dumps(text) == f'"{expected}"'
            assert fixed_json_dumps({text: [text]}) == f'{{"{expected}":["{expected}"]}}'
            assert json.loads(fixed_json_dumps(text)) == text

    def test_parse_complex_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_complex_pair("1+2j")

    def test_index_range(self):
        assert parse_index_range("2:10") == (2, 10)
        assert parse_index_range("7") == (7, 7)
        for text in ("9:2", "a:b", "x", "3:", ""):
            with pytest.raises(ParameterDomainError):
                parse_index_range(text)

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(
            ["bound", *STARLIKE_ARGS, "--n", "2:4", "--format", "csv",
             "--output", str(target)],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("n,case")

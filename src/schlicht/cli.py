"""Command-line front end.

All data output is byte-deterministic for a fixed command line on one
host, that is one numpy build, BLAS kernel and set of CPU features:
floats go through the fixed-width formatter, JSON field order is fixed,
and every randomized command requires an explicit seed.  Another BLAS
kernel may move the last printed digits.  Diagnostics go to
stderr, never to the data stream.

Exit codes: 0 success, 1 parameter-domain or usage error, 2
numerical/internal error in an otherwise well-formed invocation,
including a result that is not finite or does not fit in memory.  numpy
overflow, invalid values and division by zero raise in main, so each
exits 2 with one stderr line instead of warnings.
"""

import argparse
import functools
import json
import sys
from itertools import accumulate
from json.encoder import encode_basestring

import numpy as np

from . import jack as jackmod
from .bounds import BoundColumns, reduction_columns, reduction_sweep
from .errors import ParameterDomainError, SchlichtError
from .extremals import (
    EXTREMAL_KINDS,
    INDEXED_KINDS,
    KIND_CLASS,
    ExtremalSpec,
    build_extremal,
    sharpness_record,
)
from .output import JsonTable, fixed_json_dumps, format_column, parse_complex_pair
from .params import (
    SUBCLASS_NAMES,
    ClassParams,
    Reduction,
    case_sweep,
    check_index,
    check_order,
    reduce_subclass,
)
from .series import ComplexSeries
from .subordination import fuzz_bounds, is_member

DEFAULT_ORDER = 64


def parse_index_range(text: str) -> tuple[int, int]:
    """Inclusive 'lo:hi' range, or a single index."""
    lo_text, colon, hi_text = text.partition(":")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if colon else lo
    except ValueError:
        raise ParameterDomainError(
            f"--n must be an index or an inclusive lo:hi range, got {text!r}"
        ) from None
    if lo > hi:
        raise ParameterDomainError(f"empty index range {text!r}")
    return lo, hi


# dests of the class options, named as the reduce_subclass keywords
CLASS_KEYS = ("gamma", "lam", "a", "b", "beta", "alpha", "m", "mu")

# the jack options each --check reads, each with its default, or None where
# it is required; any other jack option is refused.  The key order is the
# --check choice order.
JACK_OPTIONS = {
    "spiral": {"alpha": None, "seed": None, "samples": 200, "degree": 4, "order": 512,
               "radius": jackmod.DEFAULT_RADIUS, "angles": jackmod.DEFAULT_ANGLES},
    "gb": {"b": None, "input": None, "radius": jackmod.DEFAULT_RADIUS,
           "angles": jackmod.DEFAULT_ANGLES},
    "threshold": {"alpha": None},
    "growth": {"alpha": None, "input": None},
    "growth-extremal": {"beta": None, "order": 512},
}


def _reduction_from_args(args, subclass: str | None = None) -> Reduction:
    """reduce_subclass of the class options given, in subclass or else
    in --class."""
    name = subclass or args.subclass
    kw = {key: getattr(args, key) for key in CLASS_KEYS if getattr(args, key) is not None}
    if name == "S":
        kw.setdefault("lam", 0.0)
    return reduce_subclass(name, **kw)


def _base_class(args) -> ClassParams:
    """The class of a command that samples members, which takes no transfer."""
    red = _reduction_from_args(args)
    if red.cauchy_euler is not None:
        raise ParameterDomainError(
            f"{args.command} covers the base class; drop the Cauchy-Euler parameters"
        )
    return red.params


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(args, header, widths, columns, doc) -> None:
    """Write doc() as JSON, or the columns() as CSV or a right-aligned table.

    columns() returns one sequence of cells per header name, floats
    already formatted.  Every row is one % template applied to the cells
    of all columns at that row: a cell None is written as "" in CSV and
    "-" in a table, any other cell as its str().  Table columns are titled
    by the last word of the CSV name (crossover_k is k).  doc() holds its
    rows as a JsonTable over the same columns as JSON tokens, written with
    one template too.  doc is called only for JSON and columns only for
    the other formats, so neither builds what the other writes.
    """
    if args.format == "json":
        _emit(args, fixed_json_dumps(doc()) + "\n")
        return
    if args.format == "csv":
        blank, titles = "", header
        template = ",".join(["%s"] * len(header)) + "\n"
    else:
        blank, titles = "-", [name.rpartition("_")[2] for name in header]
        template = " ".join([f"%{width}s" for width in widths]) + "\n"
    cells = [[blank if cell is None else cell for cell in column] if None in column
             else column for column in columns()]
    _emit(args, template % tuple(titles) + "".join(map(template.__mod__, zip(*cells))))


def _int_tokens(column) -> list[str]:
    """The JSON token of every int or None of column."""
    return ["null" if value is None else str(value) for value in column]


def _bound_table(sweep: BoundColumns) -> JsonTable:
    """The rows of sweep as JSON objects n, case, k, bound, sharp."""
    return JsonTable(("n", "case", "k", "bound", "sharp"), (
        _int_tokens(sweep.n), list(map(encode_basestring, sweep.case_tag)),
        _int_tokens(sweep.crossover_k), format_column(sweep.value),
        list(map(encode_basestring, sweep.sharp)),
    ))


def _coeff_parts(f: ComplexSeries) -> tuple[list[str], list[str]]:
    """The formatted real and imaginary parts of f's coefficients.  They are
    formatted interleaved, so the first non-finite part refused is the first
    in row order."""
    parts = format_column(f._c.view(np.float64))
    return parts[0::2], parts[1::2]


def _cmd_bound(args) -> int:
    red = _reduction_from_args(args)
    lo, hi = parse_index_range(args.n)
    sweep = reduction_columns(red, lo, hi)
    header = ("n", "case", "crossover_k", "bound", "sharp")
    _emit_rows(args, header, (4, 4, 4, 22, 8), lambda: (
        sweep.n, sweep.case_tag, sweep.crossover_k, format_column(sweep.value), sweep.sharp,
    ), lambda: {
        "params": red.params,
        "cauchy_euler": red.cauchy_euler,
        "results": _bound_table(sweep),
    })
    return 0


def _cmd_classify(args) -> int:
    red = _reduction_from_args(args)
    lo, hi = parse_index_range(args.n)
    margins, cases = case_sweep(red.params, lo, hi)
    tags, crossover_k = zip(*cases)

    def classification() -> JsonTable:
        # only the JSON rows carry their margins A_2..A_{n-1}: row n's are
        # the first n - 2 of one joined list, cut where its last token ends
        tokens = format_column(np.array(margins))
        joined = ",".join(tokens)
        ends = list(accumulate(map(len, tokens), lambda end, size: end + 1 + size,
                               initial=-1))
        ends[0] = 0  # no margins, no comma
        return JsonTable(("n", "case", "crossover_k", "margins"), (
            _int_tokens(range(lo, hi + 1)), list(map(encode_basestring, tags)),
            _int_tokens(crossover_k), [f"[{joined[:end]}]" for end in ends[lo - 2 : hi - 1]],
        ))

    _emit_rows(args, ("n", "case", "k"), (4, 4, 4),
               lambda: (range(lo, hi + 1), tags, crossover_k),
               lambda: {"params": red.params, "classification": classification()})
    return 0


def _cmd_extremal(args) -> int:
    # a gamma-only kind builds in its own subclass, which refuses the class
    # options it does not take
    subclass = KIND_CLASS.get(args.kind)
    _require(subclass is None or args.subclass == "S",
             f"--kind {args.kind} builds in class {subclass}, got --class {args.subclass}")
    red = _reduction_from_args(args, subclass)
    lo, hi = parse_index_range(args.n)
    check_index(lo)
    check_order(args.order)
    order = max(args.order, hi)
    spec = ExtremalSpec(
        kind=args.kind,
        params=red.params,
        order=order,
        n=hi if args.kind in INDEXED_KINDS else None,
        cauchy_euler=red.cauchy_euler,
    )
    f = build_extremal(spec)
    # case-i and starlike-n extremals certify only their own index hi
    first = hi if spec.n is not None else lo
    bounds = reduction_sweep(Reduction(spec.params, spec.cauchy_euler), first, hi)
    certs = [sharpness_record(bound, f) for bound in bounds]
    _emit_rows(args, ("k", "re", "im"), None, lambda: (range(order + 1), *_coeff_parts(f)),
               lambda: {
                   "kind": args.kind,
                   "params": spec.params,
                   "cauchy_euler": red.cauchy_euler,
                   "order": order,
                   "series": {"order": f.order, "coeffs": JsonTable(None, _coeff_parts(f))},
                   "certification": certs,
               })
    return 0


def _cmd_verify(args) -> int:
    report = fuzz_bounds(_base_class(args), n_max=args.n_max, samples=args.samples,
                         seed=args.seed, degree=args.degree)
    _emit(args, fixed_json_dumps(report) + "\n")
    return 0


def _jack_options(args) -> argparse.Namespace:
    """The options args.check reads, with their defaults filled in.  A
    required one left out, or any other jack option given, is refused."""
    reads = JACK_OPTIONS[args.check]
    given = {name: getattr(args, name) for options in JACK_OPTIONS.values()
             for name in options if getattr(args, name) is not None}
    missing = [f"--{name}" for name, default in reads.items()
               if default is None and name not in given]
    _require(not missing, f"--check {args.check} requires {', '.join(missing)}")
    unread = [f"--{name}" for name in given if name not in reads]
    _require(not unread, f"--check {args.check} does not read {', '.join(unread)}")
    return argparse.Namespace(**{**reads, **given})


def _cmd_jack(args) -> int:
    opts = _jack_options(args)
    if args.check == "threshold":
        value = jackmod.gb_spiral_threshold(opts.alpha)
        closed = jackmod.gb_threshold_closed_form(opts.alpha)
        doc = {
            "check": "threshold",
            "alpha": opts.alpha,
            "threshold": value,
            "closed_form": closed,
            "abs_error": abs(value - closed),
        }
    elif args.check == "spiral":
        reports = jackmod.spiral_check(opts.alpha, opts.seed, opts.samples, opts.degree,
                                       opts.order, opts.radius, opts.angles)
        margins = [rep.min_re for rep in reports]
        doc = {
            "check": "spiral",
            "alpha": opts.alpha,
            "seed": opts.seed,
            "samples": opts.samples,
            "order": opts.order,
            "radius": opts.radius,
            "passed": sum(1 for rep in reports if rep.member),
            "min_margin": min(margins),
            "margins": margins,
        }
    elif args.check == "gb":
        f = _load_series(opts.input)
        rep = jackmod.gb_membership(f, opts.b, opts.radius, opts.angles)
        doc = {"check": "gb", "b": opts.b, **rep.to_json_dict()}
    elif args.check == "growth":
        f = _load_series(opts.input)
        doc = {"check": "growth", "growth": jackmod.growth_check(f, opts.alpha),
               "second_coefficient": jackmod.second_coeff_check(f, opts.alpha)}
    else:  # growth-extremal
        doc = {
            "check": "growth-extremal",
            **jackmod.growth_extremal_profile(opts.beta, opts.order),
        }
    _emit(args, fixed_json_dumps(doc) + "\n")
    return 0


def _cmd_report(args) -> int:
    p = _base_class(args)
    lo, hi = parse_index_range(args.n)
    check_order(args.order)
    order = max(args.order, hi)
    sweep = reduction_columns(Reduction(p), lo, hi)

    case_ii = build_extremal(ExtremalSpec("case-ii", p, order))
    sharpness = []
    for result in sweep.records():
        if result.case_tag == "I":
            kind = "case-i"
            f = build_extremal(ExtremalSpec(kind, p, result.n, n=result.n))
        else:
            kind, f = "case-ii", case_ii
        record = sharpness_record(result, f)
        sharpness.append({"extremal_kind": kind, **record.to_json_dict()})
    membership = is_member(case_ii, p)

    fuzz = fuzz_bounds(
        p, n_max=hi, samples=args.samples, seed=args.seed, degree=args.degree
    )
    doc = {
        "params": p,
        "bounds": _bound_table(sweep),
        "sharpness": sharpness,
        "membership": [{"extremal_kind": "case-ii", **membership.to_json_dict()}],
        "fuzz": fuzz,
    }
    _emit(args, fixed_json_dumps(doc) + "\n")
    return 0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParameterDomainError(message)


def _load_series(path: str) -> ComplexSeries:
    """An unreadable --input file is an OSError, one that is not JSON a parameter error."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
    except ValueError as err:
        raise ParameterDomainError(f"--input is not JSON: {err}") from None
    return ComplexSeries.from_json_dict(doc)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the parameter-error code, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by main."""
    parser = _Parser(
        prog="schlicht",
        description="Coefficient bounds, extremal series, and randomized "
        "verification for subordination-defined function classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by several subcommands, each declared once
    klass = argparse.ArgumentParser(add_help=False)
    klass.add_argument("--class", dest="subclass", default="S", choices=SUBCLASS_NAMES)
    klass.add_argument("--gamma", type=parse_complex_pair,
                       help="complex gamma as 're,im'")
    klass.add_argument("--lambda", dest="lam", type=float)
    klass.add_argument("--A", dest="a", type=float)
    klass.add_argument("--B", dest="b", type=float)
    klass.add_argument("--beta", type=float)
    klass.add_argument("--alpha", type=float)
    klass.add_argument("--m", type=int)
    klass.add_argument("--mu", type=float)
    index = argparse.ArgumentParser(add_help=False)
    index.add_argument("--n", default="2:10", help="index or inclusive lo:hi range")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output")

    def command(name, func, parents, summary):
        cmd = sub.add_parser(name, parents=parents, help=summary)
        cmd.set_defaults(func=func)
        return cmd

    bound = command("bound", _cmd_bound, [klass, index, output],
                    "evaluate coefficient bounds")
    bound.add_argument("--format", choices=("json", "csv", "table"), default="json")

    classify = command("classify", _cmd_classify, [klass, index, output],
                       "show the case classification")
    classify.add_argument("--format", choices=("json", "table"), default="json")

    extremal = command("extremal", _cmd_extremal, [klass, index, output],
                       "emit an extremal series")
    extremal.add_argument("--kind", choices=EXTREMAL_KINDS, default="case-ii")
    extremal.add_argument("--order", type=int, default=DEFAULT_ORDER)
    extremal.add_argument("--format", choices=("json", "csv"), default="json")

    verify = command("verify", _cmd_verify, [klass, output],
                     "fuzz the bounds with Schwarz samples")
    verify.add_argument("--samples", type=int, default=1000)
    verify.add_argument("--degree", type=int, default=4)
    verify.add_argument("--seed", type=int, required=True)
    verify.add_argument("--n-max", dest="n_max", type=int, default=10)

    jack = command("jack", _cmd_jack, [output], "disk criteria and growth checks")
    jack.add_argument("--check", required=True, choices=tuple(JACK_OPTIONS))
    # no defaults here: each check fills in its own from JACK_OPTIONS
    for name, kind in (("alpha", float), ("beta", float), ("b", float), ("samples", int),
                       ("degree", int), ("seed", int), ("order", int), ("radius", float),
                       ("angles", int), ("input", str)):
        readers = [check for check, options in JACK_OPTIONS.items() if name in options]
        jack.add_argument(f"--{name}", type=kind, help=f"read by {', '.join(readers)}")

    report = command("report", _cmd_report, [klass, index, output],
                     "consolidated dossier for one class")
    report.add_argument("--order", type=int, default=DEFAULT_ORDER)
    report.add_argument("--samples", type=int, default=500)
    report.add_argument("--degree", type=int, default=4)
    report.add_argument("--seed", type=int, required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # underflow stays quiet: a subnormal tail is a valid input
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except ParameterDomainError as err:
        print(f"parameter error: {err}", file=sys.stderr)
        return 1
    except (SchlichtError, ArithmeticError, ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

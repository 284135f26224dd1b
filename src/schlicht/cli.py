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

main parses a command line that starts with a command name with that
command's own parser, in one argparse pass; any other command line goes
through the top-level parser.  Usage errors are argparse's own, unchanged:
the same usage line, message and exit status either way.
"""

import argparse
import functools
import json
import sys
from itertools import accumulate

import numpy as np

from . import jack as jackmod
from .bounds import BoundColumns, reduction_columns
from .errors import ParameterDomainError, SchlichtError
from .extremals import (
    EXTREMAL_KINDS,
    INDEXED_KINDS,
    KIND_CLASS,
    ExtremalSpec,
    build_extremal,
    case_i_moduli,
    sharpness_columns,
)
from .output import JSON, Column, Table, fixed_json_dumps, format_column, parse_complex_pair
from .params import (
    SUBCLASS_NAMES,
    ClassParams,
    Reduction,
    case_columns,
    check_index,
    check_order,
    column_case_sweep,
    modulus_column,
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


def _emit_rows(args, table: Table, doc: dict) -> None:
    """Write doc, the JSON document that holds table, as JSON, or table as
    CSV or text.  table's floats are formatted first, so a non-finite one
    is refused before fixed_json_dumps, which perfbench traces, is called."""
    table.floats
    _emit(args, fixed_json_dumps(doc) + "\n" if args.format == "json"
          else table.to_text(csv=args.format == "csv"))


def _bound_table(sweep: BoundColumns) -> Table:
    """The rows n, case, k, bound, sharp of sweep; CSV names k crossover_k."""
    return Table((Column("n", int, sweep.n, "n", 4),
                  Column("case", str, sweep.case_tag, "case", 4),
                  Column("k", int, sweep.crossover_k, "crossover_k", 4),
                  Column("bound", float, sweep.value, "bound", 22),
                  Column("sharp", str, sweep.sharp, "sharp", 8)))


def _sharpness_table(sweep: BoundColumns, observed, kinds=None) -> Table:
    """The JSON rows n, bound, observed, gap, attained of sweep, whose
    extremals' |a_n| are observed, after extremal_kind when kinds are given."""
    observed, gap, attained = sharpness_columns(sweep.value, observed)
    columns = [Column("n", int, sweep.n), Column("bound", float, sweep.value),
               Column("observed", float, observed), Column("gap", float, gap),
               Column("attained", bool, attained.tolist())]
    if kinds is not None:
        columns.insert(0, Column("extremal_kind", str, kinds))
    return Table(columns)


def _cmd_bound(args) -> int:
    red = _reduction_from_args(args)
    lo, hi = parse_index_range(args.n)
    table = _bound_table(reduction_columns(red, lo, hi))
    _emit_rows(args, table,
               {"params": red.params, "cauchy_euler": red.cauchy_euler, "results": table})
    return 0


def _cmd_classify(args) -> int:
    red = _reduction_from_args(args)
    lo, hi = parse_index_range(args.n)
    p = red.params
    margins, codes, last = column_case_sweep(modulus_column(p.product_base(), p.b, hi - 1),
                                             lo, hi)
    tags, crossover_k = case_columns(codes, last)

    def margin_prefixes() -> list[str]:
        # row n's margins A_2..A_{n-1} are the first n - 2 of one list,
        # cut from ",A_2,A_3,..." where its last token ends
        tokens = format_column(margins)
        joined = "," + ",".join(tokens)
        ends = list(accumulate((len(token) + 1 for token in tokens), initial=0))
        return [f"[{joined[1:end]}]" for end in ends[lo - 2 : hi - 1]]

    table = Table((Column("n", int, range(lo, hi + 1), "n", 4),
                   Column("case", str, tags, "case", 4),
                   Column("crossover_k", int, crossover_k, "crossover_k", 4),
                   Column("margins", JSON, margin_prefixes)))
    _emit_rows(args, table, {"params": p, "classification": table})
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
    spec = ExtremalSpec(args.kind, red.params, order, cauchy_euler=red.cauchy_euler,
                        n=hi if args.kind in INDEXED_KINDS else None)
    f = build_extremal(spec)
    # case-i and starlike-n extremals certify only their own index hi
    first = hi if spec.n is not None else lo
    sweep = reduction_columns(red, first, hi)
    observed = list(map(abs, f._c[first : hi + 1].tolist()))
    # a JSON coefficient is the array [re, im]; CSV rows lead with k
    coeffs = Table((Column(None, int, range(order + 1), "k"), Column("re", float, f._c.real, "re"),
                    Column("im", float, f._c.imag, "im")), arrays=True)
    _emit_rows(args, coeffs, {
        "kind": args.kind,
        "params": red.params,
        "cauchy_euler": red.cauchy_euler,
        "order": order,
        "series": {"order": f.order, "coeffs": coeffs},
        "certification": _sharpness_table(sweep, observed),
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
        doc = {"check": "gb", "b": opts.b, **rep._asdict()}
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
    case_i = [n for n, tag in zip(sweep.n, sweep.case_tag) if tag == "I"]
    found = dict(zip(case_i, case_i_moduli(p, case_i)))
    kinds = ["case-i" if n in found else "case-ii" for n in sweep.n]
    observed = [found[n] if n in found else abs(case_ii.coefficient(n)) for n in sweep.n]
    membership = is_member(case_ii, p)

    fuzz = fuzz_bounds(
        p, n_max=hi, samples=args.samples, seed=args.seed, degree=args.degree
    )
    doc = {
        "params": p,
        "bounds": _bound_table(sweep),
        "sharpness": _sharpness_table(sweep, observed, kinds),
        "membership": [{"extremal_kind": "case-ii", **membership._asdict()}],
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
    """The command-line parser, built once per process and reused by main.
    Its commands attribute maps each command name to that command's parser."""
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

    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        # what parser.parse_args does for a command, without its second
        # pass over every token; leftovers get its message and status
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.command = argv[0]
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

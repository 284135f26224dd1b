"""Command-line front end.

All data output is byte-deterministic for a fixed command line: floats
go through the fixed-width formatter, JSON field order is fixed, and
every randomized command requires an explicit seed.  Diagnostics go to
stderr, never to the data stream.

Exit codes: 0 success, 1 parameter-domain or usage error, 2
numerical/internal error in an otherwise well-formed invocation,
including a result that is not finite.
"""

import argparse
import functools
import sys

from . import jack as jackmod
from .bounds import bound_sweep, reduction_sweep
from .errors import ParameterDomainError, SchlichtError
from .jack import gb_threshold_closed_form
from .extremals import (
    EXTREMAL_KINDS,
    GAMMA_ONLY_PARAMS,
    ExtremalSpec,
    build_extremal,
    certify_sharpness,
)
from .output import (
    csv_rows,
    fixed_json_dumps,
    format_float,
    parse_complex_pair,
)
from .params import (
    SUBCLASS_NAMES,
    CaseClassification,
    ClassParams,
    Reduction,
    case_sweep,
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


def _add_class_arguments(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--class", dest="subclass", default="S", choices=SUBCLASS_NAMES)
    cmd.add_argument("--gamma", type=parse_complex_pair, default=None,
                     help="complex gamma as 're,im'")
    cmd.add_argument("--lambda", dest="lam", type=float, default=None)
    cmd.add_argument("--A", type=float, default=None)
    cmd.add_argument("--B", type=float, default=None)
    cmd.add_argument("--beta", type=float, default=None)
    cmd.add_argument("--alpha", type=float, default=None)
    cmd.add_argument("--m", type=int, default=None)
    cmd.add_argument("--mu", type=float, default=None)


def _reduction_from_args(args) -> Reduction:
    kw = {}
    for key, value in (
        ("gamma", args.gamma),
        ("lam", args.lam),
        ("a", args.A),
        ("b", args.B),
        ("beta", args.beta),
        ("alpha", args.alpha),
        ("m", args.m),
        ("mu", args.mu),
    ):
        if value is not None:
            kw[key] = value
    if args.subclass == "S" and "lam" not in kw:
        kw["lam"] = 0.0
    return reduce_subclass(args.subclass, **kw)


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_bound(args) -> int:
    red = _reduction_from_args(args)
    lo, hi = parse_index_range(args.n)
    results = reduction_sweep(red, lo, hi)
    if args.format == "csv":
        rows = [
            [
                str(r.n),
                r.case_tag,
                "" if r.crossover_k is None else str(r.crossover_k),
                format_float(r.value),
                r.sharp,
            ]
            for r in results
        ]
        _emit(args, csv_rows(["n", "case", "crossover_k", "bound", "sharp"], rows))
    elif args.format == "table":
        lines = [f"{'n':>4} {'case':>4} {'k':>4} {'bound':>22} {'sharp':>8}"]
        for r in results:
            k_text = "-" if r.crossover_k is None else str(r.crossover_k)
            lines.append(
                f"{r.n:>4} {r.case_tag:>4} {k_text:>4} "
                f"{format_float(r.value):>22} {r.sharp:>8}"
            )
        _emit(args, "\n".join(lines) + "\n")
    else:
        doc = {
            "params": red.params.to_json_dict(),
            "cauchy_euler": (
                red.cauchy_euler.to_json_dict() if red.cauchy_euler else None
            ),
            "results": [r.to_json_dict() for r in results],
        }
        _emit(args, fixed_json_dumps(doc) + "\n")
    return 0


def _cmd_classify(args) -> int:
    red = _reduction_from_args(args)
    lo, hi = parse_index_range(args.n)
    margins, cases = case_sweep(red.params, lo, hi)
    indexed = list(zip(range(lo, hi + 1), cases))
    if args.format == "table":
        lines = [f"{'n':>4} {'case':>4} {'k':>4}"]
        for n, (tag, k) in indexed:
            k_text = "-" if k is None else str(k)
            lines.append(f"{n:>4} {tag:>4} {k_text:>4}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        # only the JSON rows carry their margins A_2..A_{n-1}
        rows = []
        for n, (tag, k) in indexed:
            cls = CaseClassification(tag, k, tuple(margins[: n - 2]))
            rows.append({"n": n, **cls.to_json_dict()})
        doc = {"params": red.params.to_json_dict(), "classification": rows}
        _emit(args, fixed_json_dumps(doc) + "\n")
    return 0


def _cmd_extremal(args) -> int:
    if args.kind in GAMMA_ONLY_PARAMS and args.A is None and args.B is None:
        # these kinds fix (lambda, A, B) themselves; only gamma is needed
        _require(args.gamma is not None, f"--gamma is required for {args.kind}")
        red = Reduction(ClassParams(args.gamma, *GAMMA_ONLY_PARAMS[args.kind]))
    else:
        red = _reduction_from_args(args)
    lo, hi = parse_index_range(args.n)
    _require(hi >= 2, f"index n must be >= 2, got {hi}")
    order = max(args.order, hi)
    spec = ExtremalSpec(
        kind=args.kind,
        params=red.params,
        order=order,
        n=hi if args.kind in ("case-i", "starlike-n") else None,
        cauchy_euler=red.cauchy_euler,
    )
    f = build_extremal(spec)
    if args.kind in ("case-i", "starlike-n"):
        certs = [certify_sharpness(spec, f, hi)]
    else:
        certs = [certify_sharpness(spec, f, n) for n in range(max(lo, 2), hi + 1)]
    if args.format == "csv":
        rows = [
            [str(k), format_float(c.real), format_float(c.imag)]
            for k, c in enumerate(f.coeffs)
        ]
        _emit(args, csv_rows(["k", "re", "im"], rows))
    else:
        doc = {
            "kind": args.kind,
            "params": spec.params.to_json_dict(),
            "cauchy_euler": (
                red.cauchy_euler.to_json_dict() if red.cauchy_euler else None
            ),
            "order": order,
            "series": f.to_json_dict(),
            "certification": [c.to_json_dict() for c in certs],
        }
        _emit(args, fixed_json_dumps(doc) + "\n")
    return 0


def _cmd_verify(args) -> int:
    red = _reduction_from_args(args)
    if red.cauchy_euler is not None:
        raise ParameterDomainError(
            "verify fuzzes the base class; drop the Cauchy-Euler parameters"
        )
    report = fuzz_bounds(
        red.params,
        n_max=args.n_max,
        samples=args.samples,
        seed=args.seed,
        degree=args.degree,
    )
    _emit(args, fixed_json_dumps(report.to_json_dict()) + "\n")
    return 0


def _cmd_jack(args) -> int:
    grid = args.check in ("spiral", "gb")
    _require(grid or (args.radius is None and args.angles is None),
             "--radius and --angles apply only to --check spiral and gb")
    radius = 0.95 if args.radius is None else args.radius
    angles = jackmod.DEFAULT_ANGLES if args.angles is None else args.angles
    if args.check == "threshold":
        _require(args.alpha is not None, "--alpha is required for threshold")
        value = jackmod.gb_spiral_threshold(args.alpha)
        closed = gb_threshold_closed_form(args.alpha)
        doc = {
            "check": "threshold",
            "alpha": args.alpha,
            "threshold": value,
            "closed_form": closed,
            "abs_error": abs(value - closed),
        }
    elif args.check == "spiral":
        _require(args.alpha is not None, "--alpha is required for spiral")
        _require(args.seed is not None, "--seed is required for spiral")
        _require(args.seed >= 0, f"--seed must be >= 0, got {args.seed}")
        _require(args.samples >= 1, f"--samples must be >= 1, got {args.samples}")
        # order 1 leaves only f = z, which passes without testing anything
        _require(args.order >= 2, f"--order must be >= 2, got {args.order}")
        reports = jackmod.spiral_check(args.alpha, args.seed, args.samples, args.degree,
                                       args.order, radius, angles)
        margins = [rep.min_re for rep in reports]
        doc = {
            "check": "spiral",
            "alpha": args.alpha,
            "seed": args.seed,
            "samples": args.samples,
            "order": args.order,
            "radius": radius,
            "passed": sum(1 for rep in reports if rep.member),
            "min_margin": min(margins),
            "margins": margins,
        }
    elif args.check == "gb":
        _require(args.b is not None, "--b is required for gb")
        f = _load_series(args.input)
        rep = jackmod.gb_membership(f, args.b, radius, angles)
        doc = {"check": "gb", "b": args.b, **rep.to_json_dict()}
    elif args.check == "growth":
        _require(args.alpha is not None, "--alpha is required for growth")
        f = _load_series(args.input)
        growth = jackmod.growth_check(f, args.alpha)
        second = jackmod.second_coeff_check(f, args.alpha)
        doc = {
            "check": "growth",
            "growth": growth.to_json_dict(),
            "second_coefficient": second.to_json_dict(),
        }
    else:  # growth-extremal
        _require(args.beta is not None, "--beta is required for growth-extremal")
        doc = {
            "check": "growth-extremal",
            **jackmod.growth_extremal_profile(args.beta, args.order),
        }
    _emit(args, fixed_json_dumps(doc) + "\n")
    return 0


def _cmd_report(args) -> int:
    red = _reduction_from_args(args)
    if red.cauchy_euler is not None:
        raise ParameterDomainError(
            "report covers the base class; drop the Cauchy-Euler parameters"
        )
    p = red.params
    lo, hi = parse_index_range(args.n)
    lo = max(lo, 2)
    order = max(args.order, hi)
    bounds = bound_sweep(p, lo, hi)

    case_ii_spec = ExtremalSpec("case-ii", p, order)
    case_ii = build_extremal(case_ii_spec)
    sharpness = []
    memberships = []
    for result in bounds:
        n = result.n
        if result.case_tag == "I":
            spec = ExtremalSpec("case-i", p, order, n=n)
            f = build_extremal(spec)
        else:
            spec, f = case_ii_spec, case_ii
        record = certify_sharpness(spec, f, n)
        sharpness.append(
            {"extremal_kind": spec.kind, **record.to_json_dict()}
        )
    membership = is_member(case_ii, p)
    memberships.append({"extremal_kind": "case-ii", **membership.to_json_dict()})

    fuzz = fuzz_bounds(
        p, n_max=hi, samples=args.samples, seed=args.seed, degree=args.degree
    )
    doc = {
        "params": p.to_json_dict(),
        "bounds": [b.to_json_dict() for b in bounds],
        "sharpness": sharpness,
        "membership": memberships,
        "fuzz": fuzz.to_json_dict(),
    }
    _emit(args, fixed_json_dumps(doc) + "\n")
    return 0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParameterDomainError(message)


def _load_series(path: str | None) -> ComplexSeries:
    _require(path is not None, "--input (a series JSON file) is required")
    import json

    with open(path, encoding="utf-8") as handle:
        return ComplexSeries.from_json_dict(json.load(handle))


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

    bound = sub.add_parser("bound", help="evaluate coefficient bounds")
    _add_class_arguments(bound)
    bound.add_argument("--n", default="2:10", help="index or inclusive lo:hi range")
    bound.add_argument("--format", choices=("json", "csv", "table"), default="json")
    bound.add_argument("--output", default=None)
    bound.set_defaults(func=_cmd_bound)

    classify = sub.add_parser("classify", help="show the case classification")
    _add_class_arguments(classify)
    classify.add_argument("--n", default="2:10")
    classify.add_argument("--format", choices=("json", "table"), default="json")
    classify.add_argument("--output", default=None)
    classify.set_defaults(func=_cmd_classify)

    extremal = sub.add_parser("extremal", help="emit an extremal series")
    _add_class_arguments(extremal)
    extremal.add_argument("--kind", choices=EXTREMAL_KINDS, default="case-ii")
    extremal.add_argument("--n", default="2:10")
    extremal.add_argument("--order", type=int, default=DEFAULT_ORDER)
    extremal.add_argument("--format", choices=("json", "csv"), default="json")
    extremal.add_argument("--output", default=None)
    extremal.set_defaults(func=_cmd_extremal)

    verify = sub.add_parser("verify", help="fuzz the bounds with Schwarz samples")
    _add_class_arguments(verify)
    verify.add_argument("--samples", type=int, default=1000)
    verify.add_argument("--degree", type=int, default=4)
    verify.add_argument("--seed", type=int, required=True)
    verify.add_argument("--n-max", dest="n_max", type=int, default=10)
    verify.add_argument("--output", default=None)
    verify.set_defaults(func=_cmd_verify)

    jack = sub.add_parser("jack", help="disk criteria and growth checks")
    jack.add_argument(
        "--check",
        required=True,
        choices=("spiral", "gb", "threshold", "growth", "growth-extremal"),
    )
    jack.add_argument("--alpha", type=float, default=None)
    jack.add_argument("--beta", type=float, default=None)
    jack.add_argument("--b", type=float, default=None)
    jack.add_argument("--samples", type=int, default=200)
    jack.add_argument("--degree", type=int, default=4)
    jack.add_argument("--seed", type=int, default=None)
    jack.add_argument("--order", type=int, default=512)
    jack.add_argument("--radius", type=float, default=None, help="spiral and gb only")
    jack.add_argument("--angles", type=int, default=None, help="spiral and gb only")
    jack.add_argument("--input", default=None, help="series JSON file")
    jack.add_argument("--output", default=None)
    jack.set_defaults(func=_cmd_jack)

    report = sub.add_parser("report", help="consolidated dossier for one class")
    _add_class_arguments(report)
    report.add_argument("--n", default="2:10")
    report.add_argument("--order", type=int, default=DEFAULT_ORDER)
    report.add_argument("--samples", type=int, default=500)
    report.add_argument("--degree", type=int, default=4)
    report.add_argument("--seed", type=int, required=True)
    report.add_argument("--output", default=None)
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterDomainError as err:
        print(f"parameter error: {err}", file=sys.stderr)
        return 1
    except (SchlichtError, ArithmeticError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

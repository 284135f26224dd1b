"""Per-layer microbenchmark of the schlicht kernels at the workloads' shapes.

Time the kernels of one source tree (default: this checkout's src):

    python bench/layers.py --out BENCH_layers.json

or alternate two trees in separate processes, ROUNDS processes each:

    python bench/layers.py --compare PARENT CHANGE --rounds 5 --out BENCH_layers.json

PARENT and CHANGE are checkouts (directories holding src/schlicht).  BLAS
pools are pinned to one thread before numpy loads.  Each kernel is called
once to warm up and then --repeat times, each call timed on its own; the
JSON holds the environment and, per kernel, the p10 and the median of
those calls in microseconds, and the minor page faults per timed call:
getrusage(RUSAGE_SELF).ru_minflt, which counts this process only, read
before and after the timed calls.  --compare pools the calls and faults of
each side over its rounds, runs the parent first on even rounds, and adds
the ratio of the medians, change over parent, and each round's ratio of
its two medians, sorted: where they straddle 1, the pair cannot tell the
change from host noise.  A kernel that a tree lacks is listed as skipped
with the reason.  --tiny takes shapes small enough for a smoke test; the
default shapes are those of the perfbench workloads:

- fuzz: 200 samples at n_max 10 and 20 (rows of width 11 and 21), and
  the whole verify path: its quadratic slacks over the moduli |a_2|..|a_n_max|
  (200x9 and 200x19) and cli.main on the verify command line;
- disk: spiral checks of 10 samples at order 512, degree 4; the CI's
  order-2048 command is 64 samples of degree 1; and the gb op at order
  512 on a build_gb_instance member in each of the workload's two regimes,
  a tail that decays through the subnormals and one that stays normal
  (checked at order 512; at --tiny's order 16 no tail reaches them): the
  --input read by cli._load_series (file, json.loads, from_json_dict),
  ComplexSeries.from_json_dict alone, and gb_membership;
- dossier: membership at orders 64 and 512, and cli.main on the ops that
  write row tables: bound --n 2:150 as json, csv and table, classify
  --n 2:150 as json and table, and extremal --order 512 --n 2:50 as json
  and csv, and cli.main on jack --check threshold --alpha 0.5, the
  shortest op: a five-token parse, one scalar threshold search and a
  one-line document;
- import: every schlicht module dropped from sys.modules and schlicht.cli
  imported again, so every module body runs (after numpy, which stays).
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# (workload, tiny) sizes of each kernel family
SHAPES = {
    "one_row": ((65, 513), (9,)),
    "stacked": (((200, 11), (200, 21), (10, 513)), ((4, 9),)),
    "band": ((10, 513, 4), (3, 17, 2)),
    "circle": ((10, 513, 2048), (3, 17, 16)),
    "fuzz": (((200, 10), (200, 20)), ((4, 5),)),
    "spiral": (((0.4, 3, 10, 4, 512), (0.0, 0, 64, 1, 2048)), ((0.4, 3, 3, 4, 16),)),
    "member_order": ((64, 512), (8,)),
    "gb": (512, 16),
    "sweep_n": ("2:150", "2:6"),
    "extremal": ((512, "2:50"), (16, "2:6")),
}
ANGLES, TINY_ANGLES = 2048, 16


def _decaying(rng, rows: int, width: int, unit: bool = False) -> np.ndarray:
    """Rows with |c_k| about 0.9^k, and c_0 = 1 when unit."""
    c = (rng.standard_normal((rows, width)) + 1j * rng.standard_normal((rows, width)))
    c *= 0.9 ** np.arange(width)
    if unit:
        c[:, 0] = 1.0
    return c


def _band_operands(subordination, rows: int, width: int, degree: int):
    """A spiral source's numerator (A+1)*omega and band divisor (1+A*omega)^2."""
    _, omegas = subordination.schwarz_rows(3, range(rows), degree, width,
                                           "polynomial_normalized")
    a = np.exp(-0.8j)
    v = omegas[:, : degree + 1] * a
    v[:, 0] += 1.0
    square = np.zeros((rows, 2 * degree + 1), dtype=np.complex128)
    for j in range(degree + 1):
        square[:, j : j + degree + 1] += v[:, j : j + 1] * v
    return omegas * (a + 1.0), square


def kernels(tiny: bool) -> dict:
    """name -> a builder returning the zero-argument call to time."""
    pick = {name: shape[1] if tiny else shape[0] for name, shape in SHAPES.items()}
    angles = TINY_ANGLES if tiny else ANGLES
    srs = importlib.import_module("schlicht.series")
    jack = importlib.import_module("schlicht.jack")
    sub = importlib.import_module("schlicht.subordination")
    cli = importlib.import_module("schlicht.cli")
    output = importlib.import_module("schlicht.output")
    params = importlib.import_module("schlicht.params")
    rng = np.random.default_rng(0)
    p = params.ClassParams(1.0, 0.0, 1.0, -1.0)
    out = {}

    def command(argv):
        """A builder of cli.main on argv, with stdout sent to a StringIO."""
        def build():
            def call():
                with contextlib.redirect_stdout(io.StringIO()):
                    return cli.main(argv)
            if call() != 0:
                raise RuntimeError(f"{' '.join(argv)} failed")
            return call
        return build

    def rows_of(rows, width):
        num, den = _decaying(rng, rows, width), _decaying(rng, rows, width, unit=True)
        q = _decaying(rng, rows, width, unit=True)
        out[f"_row_div {rows}x{width}"] = lambda: lambda: srs._row_div(num, den)
        out[f"_row_log_derivative {rows}x{width}"] = (
            lambda: lambda: srs._row_log_derivative(q))

    for width in pick["one_row"]:
        rows_of(1, width)
    for rows, width in pick["stacked"]:
        rows_of(rows, width)
    rows, width, degree = pick["band"]

    def band(rows=rows, width=width, degree=degree):
        num, square = _band_operands(sub, rows, width, degree)
        return lambda: srs._row_div(num, square)
    out[f"_row_div band {rows}x{width} degree {degree}"] = band

    def spiral_divisors(rows=rows, width=width):
        q = _decaying(rng, rows, width - 1, unit=True)
        k = np.arange(width + 0.0)
        divisors = ((k - 1.0) / np.maximum(k, 1.0)).astype(np.complex128)
        return lambda: srs._row_log_derivative(q, divisors)
    out[f"_row_log_derivative (k-1)/k {rows}x{width - 1}"] = spiral_divisors
    rows, width, circle_angles = pick["circle"]
    coeffs = _decaying(rng, rows, width)
    out[f"circle_values {rows}x{width} onto {circle_angles}"] = (
        lambda: lambda: srs.circle_values(coeffs, 0.95, circle_angles))

    for samples, n_max in pick["fuzz"]:
        def fuzz(samples=samples, n_max=n_max):
            return lambda: sub.schwarz_rows(7, range(samples), 4, n_max)
        out[f"schwarz_rows {samples}x{n_max}"] = fuzz

        def members(samples=samples, n_max=n_max):
            omegas = sub.schwarz_rows(7, range(samples), 4, n_max)[1]
            return lambda: sub._member_rows(omegas, p)
        out[f"_member_rows {samples}x{n_max + 1}"] = members

        def slacks(samples=samples, n_max=n_max):
            omegas = sub.schwarz_rows(7, range(samples), 4, n_max)[1]
            moduli = sub._moduli(sub._member_rows(omegas, p)[:, 2:])
            return lambda: sub._quadratic_slacks(moduli, p)
        out[f"_quadratic_slacks {samples}x{n_max - 1}"] = slacks

        out[f"cli.main verify {samples}x{n_max}"] = command(
            ["verify", "--gamma", "1,0", "--lambda", "0", "--A", "1", "--B", "-1",
             "--samples", str(samples), "--degree", "4", "--seed", "7", "--n-max", str(n_max)])

    for alpha, seed, samples, degree, order in pick["spiral"]:
        shape = f"{samples}x{order} degree {degree}"

        def check(alpha=alpha, seed=seed, samples=samples, degree=degree, order=order):
            return lambda: jack.spiral_check(alpha, seed, samples, degree, order, 0.95,
                                             angles)
        out[f"spiral_check {shape}"] = check
        omegas = sub.schwarz_rows(seed, range(samples), degree, order,
                                  "polynomial_normalized")[1]

        def sources(omegas=omegas, alpha=alpha):
            return lambda: jack._spiral_sources(omegas, alpha)
        out[f"_spiral_sources {shape}"] = sources

        def grid(omegas=omegas, alpha=alpha):
            u = jack._one_plus_integral(jack._spiral_sources(omegas, alpha), -1.0)
            return lambda: jack._grid_values(u, 0.95, angles, 1)
        out[f"_grid_values {shape}"] = grid

        def windings(omegas=omegas, alpha=alpha):
            u = jack._one_plus_integral(jack._spiral_sources(omegas, alpha), -1.0)
            vals = srs.circle_values(u, 0.95, angles)
            return lambda: jack._windings(vals)
        out[f"_windings {shape}"] = windings

    order = pick["gb"]
    b = jack.gb_threshold_closed_form(0.5)
    # the disk workload's two gb regimes: b*rho in 0.015-0.03 gives a tail that
    # decays through the subnormals (4 of its 6 gb ops, among which its
    # op_p50_ms falls), rho in 0.6-1 one that stays normal
    for tail, rho in (("subnormal", 0.02 / b), ("normal", 0.8)):
        shape = f"order {order} {tail} tail"

        def gb_member(rho=rho, shape=shape, want=tail == "subnormal"):
            omega = sub.sample_schwarz((3, 0), 4)._c
            f = jack.build_gb_instance(srs.ComplexSeries(omega * (rho / np.abs(omega).sum())),
                                       b, order)
            parts = np.abs(f._c.view(np.float64))
            subnormal = bool(np.any((parts > 0) & (parts < np.finfo(np.float64).tiny)))
            if not tiny and subnormal != want:
                raise RuntimeError(f"the gb member of {shape} has the other tail")
            return f

        def gb(gb_member=gb_member):
            f = gb_member()
            return lambda: jack.gb_membership(f, b, 0.95, angles)
        out[f"gb_membership {shape}"] = gb

        def gb_input(gb_member=gb_member):
            handle = tempfile.NamedTemporaryFile("w", suffix=".json", encoding="utf-8")
            handle.write(json.dumps(gb_member().to_json_dict()))
            handle.flush()
            return lambda: cli._load_series(handle.name)
        out[f"_load_series {shape}"] = gb_input

        def gb_doc(gb_member=gb_member):
            doc = json.loads(json.dumps(gb_member().to_json_dict()))
            return lambda: srs.ComplexSeries.from_json_dict(doc)
        out[f"from_json_dict {shape}"] = gb_doc

    for order in pick["member_order"]:
        def member(order=order):
            f = sub.member_from_schwarz(srs.identity(order), p, order)
            return lambda: sub.is_member(f, p)
        out[f"is_member order {order}"] = member

    # case III from n = 5 on, so the crossover column holds ints and None
    case_iii = ["--gamma", "0,2", "--lambda", "0", "--A", "1", "--B", "0", "--n", pick["sweep_n"]]
    for name, formats in (("bound", ("json", "csv", "table")), ("classify", ("json", "table"))):
        for fmt in formats:
            out[f"cli.main {name} {fmt} --n {pick['sweep_n']}"] = command(
                [name, *case_iii, "--format", fmt])
    order, n_range = pick["extremal"]
    for fmt in ("json", "csv"):
        out[f"cli.main extremal {fmt} --order {order} --n {n_range}"] = command(
            ["extremal", "--gamma", "1,0", "--lambda", "0", "--A", "1", "--B", "-1",
             "--kind", "case-ii", "--order", str(order), "--n", n_range, "--format", fmt])
    threshold = ["jack", "--check", "threshold", "--alpha", "0.5"]
    out[f"cli.main {' '.join(threshold)}"] = command(threshold)
    samples, n_max = pick["fuzz"][0]

    def verify_doc():
        report = sub.fuzz_bounds(p, n_max=n_max, samples=samples, seed=7)
        return lambda: output.fixed_json_dumps(report)
    out[f"fixed_json_dumps verify {samples}x{n_max}"] = verify_doc

    def package_import():
        # last, since it replaces the modules the kernels above were built from
        def call():
            for name in [name for name in sys.modules if name.partition(".")[0] == "schlicht"]:
                del sys.modules[name]
            return importlib.import_module("schlicht.cli")
        return call
    out["import schlicht.cli"] = package_import
    return out


def time_kernels(src: Path, repeat: int, tiny: bool) -> dict:
    """Each kernel's call times in microseconds and the minor page faults of
    those calls, or the reason it was skipped."""
    sys.path.insert(0, str(src))
    np.seterr(over="raise", invalid="raise", divide="raise")  # as cli.main runs
    times = {}
    for name, build in kernels(tiny).items():
        try:
            call = build()
            call()
        except (AttributeError, IndexError, TypeError) as exc:
            times[name] = f"skipped: {type(exc).__name__}: {exc}"
            continue
        samples = []
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(repeat):
            start = time.perf_counter()
            call()
            samples.append((time.perf_counter() - start) * 1e6)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        times[name] = {"us": samples, "minflt": faults}
    return times


def summary(timed) -> dict:
    if isinstance(timed, str):
        return {"skipped": timed}
    samples = timed["us"]
    return {"p10_us": round(float(np.percentile(samples, 10)), 2),
            "median_us": round(float(np.median(samples)), 2), "calls": len(samples),
            "minflt_per_call": round(timed["minflt"] / len(samples), 2)}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": 1, "machine": platform.machine(), "cpus": os.cpu_count(),
            "processor": platform.processor() or "unknown"}


def compare(parent: Path, change: Path, rounds: int, repeat: int, tiny: bool) -> dict:
    pooled = {"parent": {}, "change": {}}
    for r in range(rounds):
        order = [("parent", parent), ("change", change)]
        for side, tree in order if r % 2 == 0 else order[::-1]:
            argv = [sys.executable, __file__, "--src", str(tree / "src"),
                    "--repeat", str(repeat), "--raw"] + (["--tiny"] if tiny else [])
            raw = json.loads(subprocess.run(argv, check=True, capture_output=True,
                                            text=True).stdout)
            for name, timed in raw.items():
                if isinstance(timed, str):
                    pooled[side][name] = timed
                elif not isinstance(pooled[side].get(name), str):
                    entry = pooled[side].setdefault(name, {"us": [], "minflt": 0,
                                                           "round_medians": []})
                    entry["us"] += timed["us"]
                    entry["minflt"] += timed["minflt"]
                    entry["round_medians"].append(float(np.median(timed["us"])))
    result = {}
    for name in dict.fromkeys([*pooled["parent"], *pooled["change"]]):
        timed = {side: pooled[side].get(name, "skipped: absent")
                 for side in ("parent", "change")}
        entry = {side: summary(timed[side]) for side in timed}
        if "median_us" in entry["parent"] and "median_us" in entry["change"]:
            entry["change_over_parent"] = round(
                entry["change"]["median_us"] / entry["parent"]["median_us"], 3)
            ratios = np.divide(timed["change"]["round_medians"],
                               timed["parent"]["round_medians"])
            entry["round_ratios"] = np.sort(ratios).round(3).tolist()
        result[name] = entry
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the schlicht package")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--rounds", type=int, default=5,
                        help="processes per tree with --compare")
    parser.add_argument("--repeat", type=int, default=50, help="timed calls per kernel")
    parser.add_argument("--tiny", action="store_true", help="smoke-test shapes")
    parser.add_argument("--raw", action="store_true",
                        help="print every call's time and the faults as JSON (used by --compare)")
    parser.add_argument("--out", type=Path, help="write the JSON here, not to stdout")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.rounds < 1:
        parser.error("--repeat and --rounds must be at least 1")
    if args.raw:
        print(json.dumps(time_kernels(args.src, args.repeat, args.tiny)))
        return 0
    doc = {"environment": environment(), "shapes": "tiny" if args.tiny else "workloads",
           "repeat": args.repeat}
    if args.compare:
        doc["rounds"] = args.rounds
        doc["kernels"] = compare(*args.compare, args.rounds, args.repeat, args.tiny)
    else:
        times = time_kernels(args.src, args.repeat, args.tiny)
        doc["kernels"] = {name: summary(timed) for name, timed in times.items()}
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

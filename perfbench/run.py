"""Benchmark of the schlicht CLI: three workloads driven through cli.main.

Run one workload from the repository root:

    python3 perfbench/run.py --workload fuzz --seed 0 --seconds 30 --trace 0

The process pins BLAS pools to one thread, imports the package from
./src, builds one round of ops from the seed (writing input series files
under perfbench/.work), makes one warm-up op and then repeats whole rounds
in a closed loop (one caller, each op waits for the previous one) until
--seconds have passed and at least MIN_OPS ops ran.  Every op's stdout is
parsed and checked; with the reference seed it is also compared against
perfbench/reference/<workload>.json.

A reference kernel is timed after every op, and every timing is reported
in reference seconds (see refclock.py), because the shared host's speed
drifts by up to 1.5x within a run.  --trace 0 prints the end-to-end
metrics; --trace 1 runs untraced and traced rounds alternately and prints
the per-layer metrics.  The last
stdout line is one JSON object {correct, attempted, failed, metrics};
the line before it holds the environment and run details.
"""

import os

# before numpy loads: one BLAS thread, and no worker-pool override
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SCHLICHT_THREADS", None)

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager, redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import refclock  # noqa: E402
from outputs import OutputError, compare, parse_output  # noqa: E402
from tracing import SPAN_NAMES, WATCHED, Patched, Tracer  # noqa: E402
from workloads import WORKLOADS, build_round  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"
REFERENCE_DIR = BENCH_DIR / "reference"
REFERENCE_SEED = 0

MIN_OPS = 100  # p90 then has at least ten ops beyond it
SETUP_PROBES = 5  # fresh processes whose set-up time is medianed
SETUP_KERNELS = 21  # reference kernel samples taken in each set-up probe
TRACE_ROUNDS = 3  # traced rounds, each paired with an untraced one

INPUTS_TOKEN = "{inputs}"


class Outcome:
    """Exit status, captured streams and latency of one op."""

    __slots__ = ("code", "stdout", "stderr", "seconds")

    def __init__(self, code, stdout, stderr, seconds):
        self.code, self.stdout, self.stderr, self.seconds = code, stdout, stderr, seconds


def call(cli, argv) -> Outcome:
    """One op: cli.main(argv) with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception as exc:  # an op that crashes is a failed op, not a dead run
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return Outcome(code, out.getvalue(), err.getvalue(), seconds)


def judge(op, outcome: Outcome) -> str | None:
    """Failure reason for one op outcome, or None when it passed."""
    if outcome.code != 0:
        first = outcome.stderr.strip().splitlines()[:1]
        return f"exit {outcome.code}: {first[0] if first else ''}".strip()
    try:
        doc = parse_output(outcome.stdout, op.fmt)
    except OutputError as err:
        return str(err)
    try:
        return op.check(doc)
    except (KeyError, IndexError, TypeError) as err:
        return f"output lacks an expected field: {err!r}"


def _normalized_argv(argv, inputs: Path) -> list:
    return [a.replace(str(inputs), INPUTS_TOKEN) for a in argv]


def check_reference(workload, ops, outcomes, inputs: Path) -> list:
    """Differences between round-0 outputs and the committed reference."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return [f"reference file {path.name} is missing"]
    ref = json.loads(path.read_text(encoding="utf-8"))
    if len(ref["ops"]) != len(ops):
        return [f"reference has {len(ref['ops'])} ops, round has {len(ops)}"]
    problems = []
    for i, (op, outcome, expected) in enumerate(zip(ops, outcomes, ref["ops"])):
        if _normalized_argv(op.argv, inputs) != expected["argv"]:
            problems.append(f"op {i}: argv differs from the reference")
        elif op.known_defect is None:
            if outcome.code != expected["exit"]:
                problems.append(f"op {i}: exit {outcome.code}, reference {expected['exit']}")
                continue
            try:
                diff = compare(parse_output(outcome.stdout, op.fmt),
                               parse_output(expected["stdout"], op.fmt))
            except OutputError as err:
                diff = str(err)
            if diff:
                problems.append(f"op {i} ({op.kind}): {diff}")
    return problems


def write_reference(workload, ops, outcomes, inputs: Path) -> None:
    entries = []
    for op, outcome in zip(ops, outcomes):
        entry = {"argv": _normalized_argv(op.argv, inputs), "kind": op.kind}
        if op.known_defect is None:
            entry.update(exit=outcome.code, stdout=outcome.stdout)
        else:
            entry["known_defect"] = op.known_defect
        entries.append(entry)
    doc = {"workload": workload, "seed": REFERENCE_SEED, "ops": entries}
    path = REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


class Ledger:
    """Verdicts and timings of every op run; each distinct output is judged once.

    `latencies[j]` is the wall time of the j-th op run and `done[j]` the
    items it completed; `kernels` holds the reference kernel times taken
    before the first op and after each op.
    """

    def __init__(self, ops):
        self.ops = ops
        self.first = [None] * len(ops)  # round-0 outcome per op
        self.verdicts = {}  # (op index, code, stdout) -> failure reason or None
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.done = []
        self.kernels = []
        self.failures = {}  # op index -> reason
        self.nondeterministic = set()

    def record(self, i: int, outcome: Outcome) -> None:
        op = self.ops[i]
        if self.first[i] is None:
            self.first[i] = outcome
        elif (outcome.code, outcome.stdout) != (self.first[i].code, self.first[i].stdout):
            self.nondeterministic.add(i)
        key = (i, outcome.code, outcome.stdout)
        if key not in self.verdicts:
            self.verdicts[key] = judge(op, outcome)
        reason = self.verdicts[key]
        self.attempted += 1
        self.latencies.append(outcome.seconds)
        self.done.append(op.items if reason is None else 0)
        if reason is not None:
            self.failed += 1
            self.failures.setdefault(i, reason)

    def problems(self) -> list:
        """Failures that make the run incorrect: all but known defects."""
        out = [f"op {i} ({self.ops[i].kind}): {reason}"
               for i, reason in sorted(self.failures.items())
               if self.ops[i].known_defect is None]
        out += [f"op {i} ({self.ops[i].kind}): output changed between rounds"
                for i in sorted(self.nondeterministic)]
        return out


def run_round(cli, ops, ledger: Ledger) -> slice:
    """One pass over the round's ops; returns where they sit in the ledger."""
    if not ledger.kernels:
        ledger.kernels.append(refclock.warm_up())
    first = len(ledger.latencies)
    for i, op in enumerate(ops):
        ledger.record(i, call(cli, op.argv))
        ledger.kernels.append(refclock.kernel_seconds())
    return slice(first, len(ledger.latencies))


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            ref_file = ROOT / ".git" / ref
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return text
    except OSError:
        return None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(workload, seed) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": {v: os.environ.get(v) for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "schlicht_threads": os.environ.get("SCHLICHT_THREADS"),
        "workload": workload,
        "seed": seed,
    }


def probe_setup(workload: str, seed: int) -> tuple:
    """Seconds from starting a fresh process to its first timed op, as
    (reference seconds, wall seconds)."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    start = time.monotonic()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    wall = probe["ready"] - start
    return wall * refclock.REFERENCE_KERNEL_S / probe["kernel_s"], wall


def _percentile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool, *,
                 min_ops: int = MIN_OPS, probes: int = SETUP_PROBES,
                 trace_rounds: int = TRACE_ROUNDS, import_ms: float = 0.0) -> tuple:
    """Run one workload; returns (result line, detail dict)."""
    probed = [] if trace else [probe_setup(workload, seed) for _ in range(probes)]
    with workdir(workload) as inputs:
        ops = build_round(workload, seed, inputs)
        call(cli, ops[0].argv)  # warm-up, not counted
        ledger = Ledger(ops)
        detail = {"ops_per_round": len(ops)}
        if trace:
            metrics, detail["untraced_names"] = _traced_metrics(
                cli, ops, ledger, trace_rounds, import_ms)
        else:
            rounds = []
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < seconds \
                    or ledger.attempted < min_ops:
                rounds.append(run_round(cli, ops, ledger))
            wall = time.perf_counter() - start
            latencies = refclock.scale(ledger.latencies, ledger.kernels)
            # per-round rates, medianed: a burst of contention on a shared
            # host moves one round, not the run's figure
            op_rates = [len(ops) / sum(latencies[r]) for r in rounds]
            item_rates = [sum(ledger.done[r]) / sum(latencies[r]) for r in rounds]
            metrics = {
                "setup_s": (statistics.median(p[0] for p in probed), "s"),
                "ops_per_s": (statistics.median(op_rates), "1/s"),
                "items_per_s": (statistics.median(item_rates), "1/s"),
                "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
                "op_p90_ms": (1e3 * _percentile(latencies, 90), "ms"),
                "ok_ratio": ((ledger.attempted - ledger.failed) / ledger.attempted, "ratio"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "MB"),
            }
            # the same figures in plain wall time, for reading beside the scaled ones
            wall_rates = [len(ops) / sum(ledger.latencies[r]) for r in rounds]
            detail.update(
                rounds=len(rounds), timed_wall_s=wall,
                kernel_ms={"median": 1e3 * statistics.median(ledger.kernels),
                           "min": 1e3 * min(ledger.kernels),
                           "max": 1e3 * max(ledger.kernels)},
                wall_figures={
                    "setup_s": statistics.median(p[1] for p in probed),
                    "ops_per_s": statistics.median(wall_rates),
                    "op_p50_ms": 1e3 * statistics.median(ledger.latencies),
                    "op_p90_ms": 1e3 * _percentile(ledger.latencies, 90)},
                setup_probes_s=[p[0] for p in probed])
        problems = ledger.problems()
        if seed == REFERENCE_SEED:
            problems += check_reference(workload, ops, ledger.first, inputs)
    detail.update(
        ops=ledger.attempted,
        failed_ratio=ledger.failed / ledger.attempted,
        known_defects=sorted({op.known_defect for op in ops if op.known_defect}),
        failures={f"{i}:{ops[i].kind}": r for i, r in sorted(ledger.failures.items())},
        problems=problems,
        reference_checked=seed == REFERENCE_SEED,
    )
    result = {
        "correct": not problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, detail


def _traced_metrics(cli, ops, ledger: Ledger, rounds: int, import_ms: float) -> tuple:
    """Per-layer metrics, and the traced names the package no longer defines."""
    tracer = Tracer()
    patch = Patched(tracer)
    untraced, traced = [], []
    for _ in range(rounds):
        untraced.append(run_round(cli, ops, ledger))
        with patch:
            traced.append(run_round(cli, ops, ledger))
    latencies = refclock.scale(ledger.latencies, ledger.kernels)
    untraced = [sum(latencies[r]) for r in untraced]
    traced = [sum(latencies[r]) for r in traced]
    # every round prints the same bytes, or the ledger reports the op
    output_bytes = rounds * sum(len(o.stdout.encode("utf-8")) for o in ledger.first)
    metrics = {}
    for name in SPAN_NAMES:
        calls, total, self_time = tracer.stats[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.total_ms"] = (1e3 * total, "ms")
        metrics[f"{name}.self_ms"] = (1e3 * self_time, "ms")
    metrics["output.bytes"] = (output_bytes, "bytes")
    for inner, outer in WATCHED.items():
        base = tracer.stats[outer][0]
        metrics[f"{outer}.circle_evals_per_call"] = (
            tracer.nested[outer, inner] / base if base else 0.0, "ratio")
    certificates = tracer.stats["extremals.certify_sharpness"][0]
    builds = tracer.stats["extremals.build_extremal"][0]
    metrics["extremals.builds_per_certificate"] = (
        builds / certificates if certificates else 0.0, "ratio")
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["trace_overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
    return metrics, sorted(set(patch.missing))


@contextmanager
def workdir(prefix: str):
    """A fresh directory for input files under WORK_ROOT, removed afterwards."""
    WORK_ROOT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK_ROOT, prefix=f"{prefix}-") as tmp:
            yield Path(tmp)
    finally:
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still has its directory there
            pass


def import_cli():
    """schlicht.cli from this checkout's src/, and the import time in ms."""
    if not (SRC / "schlicht" / "cli.py").is_file():
        raise SystemExit(f"error: no schlicht package under {SRC}; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import schlicht.cli as cli

    import_ms = 1e3 * (time.perf_counter() - start)
    if Path(cli.__file__).resolve().parent != SRC / "schlicht":
        raise SystemExit(f"error: imported schlicht from {cli.__file__}, not {SRC}")
    return cli, import_ms


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, make the warm-up op, print the time and exit")
    parser.add_argument("--write-reference", action="store_true",
                        help="run one round at the reference seed and store its outputs")
    args = parser.parse_args(argv)
    if args.write_reference and args.seed != REFERENCE_SEED:
        parser.error(f"references are stored for --seed {REFERENCE_SEED} only")
    cli, import_ms = import_cli()

    if args.setup_probe:
        with workdir("probe") as tmp:
            ops = build_round(args.workload, args.seed, tmp)
            call(cli, ops[0].argv)
            ready = time.monotonic()
            refclock.warm_up()
            kernel = statistics.median(refclock.kernel_seconds()
                                       for _ in range(SETUP_KERNELS))
            print(json.dumps({"ready": ready, "kernel_s": kernel}))
        return 0
    if args.write_reference:
        with workdir("reference") as tmp:
            ops = build_round(args.workload, args.seed, tmp)
            outcomes = [call(cli, op.argv) for op in ops]
            bad = [f"op {i} ({op.kind}): {reason}"
                   for i, (op, outcome) in enumerate(zip(ops, outcomes))
                   if op.known_defect is None
                   and (reason := judge(op, outcome)) is not None]
            if bad:
                print("\n".join(bad), file=sys.stderr)
                return 1
            write_reference(args.workload, ops, outcomes, tmp)
        return 0

    result, detail = run_workload(cli, args.workload, args.seed, args.seconds,
                                  bool(args.trace), import_ms=import_ms)
    print(json.dumps({"environment": environment(args.workload, args.seed), "run": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

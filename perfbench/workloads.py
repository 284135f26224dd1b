"""The three workloads: one round of CLI ops each, generated from a seed.

A round is a fixed list of `schlicht.cli.main(argv)` calls.  The timed
loop repeats whole rounds, so every run sees the same op mix and the
share of each op type (including the known-failing dossier op) is exact.
The seed only moves random values inside an op (fuzz seeds, angles,
parameters drawn from ranges that keep the regime and the cost fixed);
it never changes which op types a round holds or how large they are.

Input series files are built here with plain numpy recurrences, not with
the package under test, so every commit reads the same inputs.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("fuzz", "disk", "dossier")

# The ten parameter sets (gamma, lambda, A, B) of FUZZ_PARAMS in
# tests/test_acceptance.py: cases I, II and III, B = 0 and complex gamma.
FUZZ_PARAMS = (
    ((1.0, 0.0), 0.0, 1.0, -1.0),
    ((1.0, 0.0), 1.0, 1.0, -1.0),
    ((0.5, 0.5), 0.25, 0.75, -0.5),
    ((2.0, 0.0), 0.0, 1.0, 0.0),
    ((-0.5, 0.0), 0.0, 1.0, -1.0),
    ((-0.4, 0.0), 0.7, 0.9, -0.8),
    ((1.5, 0.0), 0.5, 1.0, -1.0),
    ((0.0, 1.0), 0.0, 1.0, 0.0),
    ((0.25, 0.0), 0.0, 0.5, -0.5),
    ((1.0, 0.0), 0.3, 0.6, -0.9),
)

FUZZ_SAMPLES = 200
SPIRAL_SAMPLES = 10
DISK_ORDER = 512
GROWTH_ORDER = 256
# per gb op of a disk round: whether its instance's tail reaches subnormals;
# 4 of 6 do, so that share is fixed and p50 falls mid-way through their latencies
GB_SUBNORMAL = (True, False, True, True, False, True)
GROWTH_ALPHAS = (0.0, 0.25, 0.5)
SWEEP_N = "2:150"
THRESHOLD_TOLERANCE = 1e-8  # acceptance criterion 08
INF_BOUND_ARGV = ["bound", "--gamma", "1000,0", "--A", "1", "--B", "-1", "--n", "2:300"]
INF_BOUND_DEFECT = "bound emits the non-finite token inf (ROADMAP item 4)"


@dataclass
class Op:
    """One `main(argv)` call, what it counts as, and how to check it.

    `check` gets the parsed stdout and returns a failure reason or None.
    `known_defect` marks an op that fails today for a documented reason;
    it counts as failed but does not make the run incorrect, and it has
    no reference output, so fixing the defect needs no benchmark change.
    """

    kind: str
    argv: list
    items: int
    fmt: str = "json"
    check: Callable = field(default=lambda doc: None, repr=False)
    known_defect: str | None = None


def build_round(workload: str, seed: int, workdir: Path) -> list:
    """The op list of one round; input files go under workdir."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    if workload == "fuzz":
        return _fuzz_round(rng)
    if workload == "disk":
        return _disk_round(rng, workdir)
    if workload == "dossier":
        return _dossier_round(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _num(x: float) -> str:
    return repr(float(x))


def _gamma_arg(gamma) -> str:
    # the '=' form keeps a negative real part from reading as a flag
    return f"--gamma={_num(gamma[0])},{_num(gamma[1])}"


def _class_args(gamma, lam, a, b) -> list:
    return [_gamma_arg(gamma), "--lambda", _num(lam), f"--A={_num(a)}", f"--B={_num(b)}"]


def _seed(rng) -> str:
    return str(int(rng.integers(0, 2**31)))


# -- fuzz ---------------------------------------------------------------------


def _check_verify(n_max: int):
    def check(doc):
        if doc["total_violations"] != 0:
            return f"total_violations = {doc['total_violations']}"
        if doc["quadratic_inequality"]["violations"] != 0:
            return "quadratic_inequality.violations != 0"
        if doc["samples"] != FUZZ_SAMPLES or len(doc["per_n"]) != n_max - 1:
            return "report does not cover the requested samples and indices"
        return None

    return check


def _fuzz_round(rng) -> list:
    # each parameter set twice at n_max 10 and once at n_max 20 per round
    ops = []
    for n_max in (10, 20, 10):
        for gamma, lam, a, b in FUZZ_PARAMS:
            argv = ["verify", *_class_args(gamma, lam, a, b),
                    "--samples", str(FUZZ_SAMPLES), "--degree", "4",
                    "--seed", _seed(rng), "--n-max", str(n_max)]
            ops.append(Op(f"verify-n{n_max}", argv, FUZZ_SAMPLES,
                          check=_check_verify(n_max)))
    return ops


# -- disk -------------------------------------------------------------------


def schwarz_coeffs(rng, degree: int = 4, rho: float | None = None) -> np.ndarray:
    """omega = sum_j c_j z^j (j >= 1) with sum |c_j| = rho <= 1, by default
    drawn from (0, 1]."""
    if rho is None:
        rho = 1.0 - rng.random()
    c = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
    out = np.zeros(degree + 1, dtype=np.complex128)
    out[1:] = c * (rho / np.sum(np.abs(c)))
    return out


def _padded(c: np.ndarray, order: int) -> np.ndarray:
    out = np.zeros(order + 1, dtype=np.complex128)
    out[: min(c.size, order + 1)] = c[: order + 1]
    return out


def from_log_derivative(q: np.ndarray, order: int) -> np.ndarray:
    """Coefficients of f with f(0) = 0, f'(0) = 1 and z f'/f = q."""
    f = np.zeros(order + 1, dtype=np.complex128)
    f[1] = 1.0
    for k in range(2, order + 1):
        f[k] = np.dot(f[1:k], q[k - 1 : 0 : -1]) / (k - 1)
    return f


def gb_instance(omega: np.ndarray, b: float, order: int) -> np.ndarray:
    """f whose quotient deviation (1 + z f''/f')/(z f'/f) - 1 is b*omega.

    Solves z p' = b*omega*p^2, p(0) = 1, then z f'/f = p.
    """
    s = b * _padded(omega, order)
    p = np.zeros(order + 1, dtype=np.complex128)
    sq = np.zeros(order + 1, dtype=np.complex128)
    p[0] = sq[0] = 1.0
    for k in range(1, order + 1):
        p[k] = np.dot(s[1 : k + 1], sq[k - 1 :: -1]) / k
        sq[k] = np.dot(p[: k + 1], p[k::-1])
    return from_log_derivative(p, order)


def starlike_member(omega: np.ndarray, alpha: float, order: int) -> np.ndarray:
    """Member of the class (gamma, lambda, A, B) = (1 - alpha, 0, 1, -1).

    z f'/f = 1 + 2(1 - alpha) omega/(1 - omega), so f is starlike of
    order alpha.
    """
    w = _padded(omega, order)
    r = np.zeros(order + 1, dtype=np.complex128)  # omega/(1 - omega)
    for k in range(1, order + 1):
        r[k] = w[k] + np.dot(w[1:k], r[k - 1 : 0 : -1])
    q = 2.0 * (1.0 - alpha) * r
    q[0] = 1.0
    return from_log_derivative(q, order)


def reaches_subnormal(coeffs: np.ndarray) -> bool:
    """Whether a coefficient's real or imaginary part is subnormal.

    A gb instance whose tail decays through the subnormal range costs about
    1.6x as much to evaluate on the circle as one whose tail stays normal.
    """
    parts = np.abs(np.concatenate([coeffs.real, coeffs.imag]))
    return bool(np.any((parts > 0) & (parts < np.finfo(np.float64).tiny)))


def _write_series(path: Path, coeffs: np.ndarray) -> None:
    doc = {"order": coeffs.size - 1,
           "coeffs": [[float(c.real), float(c.imag)] for c in coeffs]}
    path.write_text(json.dumps(doc), encoding="utf-8")


def gb_threshold(alpha: float) -> float:
    """|1 + exp(-2i alpha)|/4, the deviation that still forces spiral-likeness."""
    return abs(1.0 + complex(math.cos(2 * alpha), -math.sin(2 * alpha))) / 4.0


def _check_spiral(doc):
    if doc["passed"] != doc["samples"] or doc["samples"] != SPIRAL_SAMPLES:
        return f"passed {doc['passed']} of {doc['samples']} spiral instances"
    return None


def _check_gb(doc):
    if doc["member"] is not True or doc["winding"] != 1:
        return f"constructed gb instance rejected (max_dev {doc['max_dev']}, b {doc['b']})"
    return None


def _check_growth(doc):
    if doc["growth"]["ok"] is not True or doc["second_coefficient"]["ok"] is not True:
        return "starlike member fails its growth or second-coefficient bound"
    return None


def _check_threshold(doc):
    if not doc["abs_error"] <= THRESHOLD_TOLERANCE:
        return f"threshold off its closed form by {doc['abs_error']}"
    return None


def _gb_draw(rng, subnormal: bool) -> tuple:
    """(b, coefficients) of a gb instance whose tail does or does not reach
    subnormals.

    The tail decays at a rate set by b*rho, the size of the quotient
    deviation: below about 0.05 it reaches subnormals, above about 0.09 it
    does not.  So b*rho is drawn from 0.015-0.03 or rho from 0.6-1, and the
    rare draw that still misses is redrawn.
    """
    for _ in range(100):
        b = gb_threshold(rng.uniform(-1.2, 1.2))
        rho = rng.uniform(0.015, 0.03) / b if subnormal else rng.uniform(0.6, 1.0)
        coeffs = gb_instance(schwarz_coeffs(rng, rho=rho), b, DISK_ORDER)
        if reaches_subnormal(coeffs) == subnormal:
            return b, coeffs
    raise RuntimeError("no gb instance of the requested kind in 100 draws")


def _disk_round(rng, workdir: Path) -> list:
    # spiral ops take ~88% of the time.  Latencies sort into 4 growth and
    # threshold ops, 2 gb ops, 4 subnormal-tail gb ops and 6 spiral ops, so
    # p50 falls mid-way through the subnormal-tail gb latencies and p90 in
    # the upper half of the spiral ones, where run-to-run noise is smallest
    ops = []
    for _ in range(6):
        argv = ["jack", "--check", "spiral", "--alpha", _num(rng.uniform(-1.2, 1.2)),
                "--samples", str(SPIRAL_SAMPLES), "--seed", _seed(rng),
                "--order", str(DISK_ORDER), "--angles", "2048", "--radius", "0.95"]
        ops.append(Op("spiral", argv, SPIRAL_SAMPLES, check=_check_spiral))
    for i, subnormal in enumerate(GB_SUBNORMAL):
        b, coeffs = _gb_draw(rng, subnormal)
        path = workdir / f"gb{i}.json"
        _write_series(path, coeffs)
        argv = ["jack", "--check", "gb", "--b", _num(b), "--input", str(path)]
        ops.append(Op("gb-subnormal" if subnormal else "gb", argv, 1, check=_check_gb))
    for i in range(3):
        alpha = GROWTH_ALPHAS[int(rng.integers(len(GROWTH_ALPHAS)))]
        path = workdir / f"growth{i}.json"
        _write_series(path, starlike_member(schwarz_coeffs(rng), alpha, GROWTH_ORDER))
        argv = ["jack", "--check", "growth", "--alpha", _num(alpha), "--input", str(path)]
        ops.append(Op("growth", argv, 1, check=_check_growth))
    argv = ["jack", "--check", "threshold", "--alpha", _num(rng.uniform(-1.2, 1.2))]
    ops.append(Op("threshold", argv, 1, check=_check_threshold))
    return ops


# -- dossier ----------------------------------------------------------------


def _case_i_params(rng):
    """First margin negative: |gamma(A-B) - B| < 1, case I for every n >= 3."""
    b = rng.uniform(-1.0, 0.5)
    a = rng.uniform(b + 0.2, 1.0)
    delta = rng.uniform(0.05, 0.95) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    gamma = (b + delta) / (a - b)
    return (gamma.real, gamma.imag), rng.uniform(0.0, 1.0), a, b


def _case_ii_params(rng):
    """B = -1 and Re gamma > 0 keep every margin positive: case II for all n."""
    gamma = rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(-0.6, 0.6))
    return (gamma.real, gamma.imag), rng.uniform(0.0, 1.0), rng.uniform(0.3, 1.0), -1.0


def _case_iii_params(rng):
    """B = 0 and |gamma A| in (2, 4): margins cross zero at k ~ |gamma A| + 1."""
    a = rng.uniform(0.5, 1.0)
    gamma = rng.uniform(2.0, 4.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)) / a
    return (gamma.real, gamma.imag), rng.uniform(0.0, 1.0), a, 0.0


def _index_count(n_range: str) -> int:
    lo, hi = (int(x) for x in n_range.split(":"))
    return hi - lo + 1


def _check_rows(count: int, key: str | None = None):
    """JSON docs carry `count` rows under `key`; csv/table parse to header + rows."""

    def check(doc):
        rows = doc[key] if key is not None else doc[1:]
        if len(rows) != count:
            return f"{len(rows)} rows, expected {count}"
        return None

    return check


def _check_extremal(doc):
    if doc["kind"] in ("case-i", "case-ii"):
        missing = [c["n"] for c in doc["certification"] if c["attained"] is not True]
        if missing:
            return f"{doc['kind']} extremal does not attain the bound at n = {missing}"
    return None


def _check_report(doc):
    if doc["fuzz"]["total_violations"] != 0:
        return "fuzz section reports violations"
    return None


def _dossier_round(rng) -> list:
    # latencies sort into 30 sweeps and small ops (< 40 ms), 3 reports and
    # 2 order-512 extremals, so p90 falls in the middle of the report
    # latencies, where run-to-run noise is smallest, not in their tail
    count = _index_count(SWEEP_N)
    draws = {"I": _case_i_params, "II": _case_ii_params, "III": _case_iii_params}
    ops = []
    for case, fmt in (("II", "json"), ("I", "csv"), ("III", "table"), ("III", "json"),
                      ("II", "csv"), ("I", "table"), ("I", "json"), ("III", "csv"),
                      ("II", "table"), ("III", "json"), ("I", "csv"), ("II", "table"),
                      ("II", "json"), ("III", "csv"), ("I", "table")):
        argv = ["bound", *_class_args(*draws[case](rng)), "--n", SWEEP_N, "--format", fmt]
        ops.append(Op(f"bound-{fmt}", argv, count, fmt,
                      _check_rows(count, "results" if fmt == "json" else None)))
    for fmt in ("json", "csv", "table"):
        gamma, lam, a, b = _case_ii_params(rng)
        argv = ["bound", "--class", "K", *_class_args(gamma, lam, a, b),
                "--m", str(int(rng.integers(2, 5))), "--mu", _num(rng.uniform(-0.5, 2.0)),
                "--n", SWEEP_N, "--format", fmt]
        ops.append(Op(f"bound-{fmt}", argv, count, fmt,
                      _check_rows(count, "results" if fmt == "json" else None)))
    for case, fmt in (("I", "json"), ("III", "json"), ("II", "table"), ("III", "table"),
                      ("I", "table"), ("II", "table"), ("III", "table"), ("I", "table")):
        argv = ["classify", *_class_args(*draws[case](rng)), "--n", SWEEP_N, "--format", fmt]
        ops.append(Op(f"classify-{fmt}", argv, count, fmt,
                      _check_rows(count, "classification" if fmt == "json" else None)))
    for fmt in ("json", "csv"):
        argv = ["extremal", *_class_args(*_case_ii_params(rng)), "--kind", "case-ii",
                "--n", "2:50", "--order", "512", "--format", fmt]
        check = _check_extremal if fmt == "json" else _check_rows(513)
        ops.append(Op(f"extremal-512-{fmt}", argv, 49, fmt, check))
    argv = ["extremal", *_class_args(*_case_i_params(rng)), "--kind", "case-i",
            "--n", "2:10", "--order", "64"]
    ops.append(Op("extremal-64", argv, 1, check=_check_extremal))
    for kind in ("koebe-gamma", "convex-gamma"):
        gamma = rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(-0.6, 0.6))
        argv = ["extremal", _gamma_arg((gamma.real, gamma.imag)), "--kind", kind,
                "--n", "2:10", "--order", "64"]
        ops.append(Op("extremal-64", argv, 9, check=_check_extremal))
    for case in ("II", "III", "I"):
        argv = ["report", *_class_args(*draws[case](rng)), "--n", "2:10",
                "--samples", "100", "--seed", _seed(rng)]
        ops.append(Op("report", argv, 18, check=_check_report))
    ops.append(Op("bound-inf", list(INF_BOUND_ARGV), _index_count("2:300"),
                  known_defect=INF_BOUND_DEFECT))
    return ops

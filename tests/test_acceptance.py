"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or
`pytest -rA`) and then asserts, so the printed verdict survives failures.
Run with:  pytest tests/test_acceptance.py -v -s
"""

import io
import time
from contextlib import redirect_stdout

import numpy as np

from schlicht import (
    CauchyEulerParams,
    ClassParams,
    ExtremalSpec,
    case_i_value,
    case_ii_value,
    case_iii_value,
    build_extremal,
    certify_sharpness,
    coefficient_bound,
    coefficient_bound_cauchy_euler,
    extremal_case_i,
    extremal_case_ii,
    fuzz_bounds,
    gb_spiral_threshold,
    gb_threshold_closed_form,
    growth_check,
    growth_extremal,
    build_gb_instance,
    build_spiral_instance,
    member_from_schwarz,
    sample_schwarz,
    second_coeff_check,
    spiral_bound_cross_check,
    spiral_membership,
    telescoping_identity_residual,
    transfer_cauchy_euler,
)
from schlicht.cli import main
from schlicht.series import identity

from conftest import (
    draw_case_i_params,
    draw_case_ii_params,
    draw_identity_params,
    draw_spiral_case_ii,
    per_n_rows,
)

STARLIKE = ClassParams(1, 0, 1, -1)
CONVEX = ClassParams(1, 1, 1, -1)

# ten parameter sets spanning the three regimes for the fuzz-soundness gate
FUZZ_PARAMS = (
    ClassParams(1, 0, 1, -1),            # II, starlike anchor
    ClassParams(1, 1, 1, -1),            # II, convex anchor
    ClassParams(0.5 + 0.5j, 0.25, 0.75, -0.5),   # III
    ClassParams(2, 0, 1, 0),             # III (B = 0)
    ClassParams(-0.5, 0, 1, -1),         # I
    ClassParams(-0.4, 0.7, 0.9, -0.8),   # I
    ClassParams(1.5, 0.5, 1, -1),        # II
    ClassParams(1j, 0, 1, 0),            # III with zero-margin tie
    ClassParams(0.25, 0, 0.5, -0.5),     # I
    ClassParams(1, 0.3, 0.6, -0.9),      # II
)


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_01_classical_starlike_anchor():
    start = time.perf_counter()
    ok = True
    for n in range(2, 51):
        ok &= abs(coefficient_bound(STARLIKE, n).value - n) <= 1e-9
    spec = ExtremalSpec("case-ii", STARLIKE, 50)
    f = build_extremal(spec)
    for n in range(2, 51):
        ok &= abs(certify_sharpness(spec, f, n).gap) <= 1e-9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _verdict(1, "classical starlike anchor", ok)
    assert ok, f"elapsed={elapsed:.3f}s"


def test_criterion_02_classical_convex_anchor():
    ok = True
    for n in range(2, 51):
        ok &= abs(coefficient_bound(CONVEX, n).value - 1.0) <= 1e-9
    spec = ExtremalSpec("case-ii", CONVEX, 50)
    f = build_extremal(spec)
    for n in range(2, 51):
        ok &= abs(certify_sharpness(spec, f, n).gap) <= 1e-9
    _verdict(2, "classical convex anchor", ok)
    assert ok


def test_criterion_03_product_identity_residual():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        p, m = draw_identity_params(rng, m_max=12)
        worst = max(worst, telescoping_identity_residual(p, m))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _verdict(3, "product identity residual", ok)
    assert ok, f"worst={worst:.3e}, elapsed={elapsed:.3f}s"


def test_criterion_04_sharpness_suite():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(100):
        p = draw_case_ii_params(rng, 12)
        f = extremal_case_ii(p, 12)
        ce = CauchyEulerParams(int(rng.integers(2, 5)), float(rng.uniform(-0.9, 3.0)))
        g = transfer_cauchy_euler(f, ce)
        for n in range(2, 13):
            bound = coefficient_bound(p, n).value
            ok &= abs(abs(f.coefficient(n)) - bound) <= 1e-8 * max(1.0, bound)
            transferred = coefficient_bound_cauchy_euler(p, ce, n).value
            ok &= abs(abs(g.coefficient(n)) - transferred) <= 1e-8 * max(
                1.0, transferred
            )
    for _ in range(100):
        p = draw_case_i_params(rng)
        n = int(rng.integers(2, 13))
        f = extremal_case_i(p, n, 12)
        # at n = 2 classification is II by the tie rule, but the case-I
        # value coincides there; attainment is checked against the formula
        value = case_i_value(p, n)
        ok &= abs(coefficient_bound(p, n).value - value) <= 1e-12 * max(1.0, value)
        ok &= abs(abs(f.coefficient(n)) - value) <= 1e-8 * max(1.0, value)
    _verdict(4, "sharpness suite", ok)
    assert ok


def test_criterion_05_fuzz_soundness():
    start = time.perf_counter()
    ok = True
    tags = set()
    for i, p in enumerate(FUZZ_PARAMS):
        report = fuzz_bounds(p, n_max=10, samples=1000, seed=1000 + i)
        ok &= report.total_violations == 0
        ok &= report.quadratic_inequality.violations == 0
        tags.update(row["case"] for row in per_n_rows(report))
    elapsed = time.perf_counter() - start
    ok &= tags == {"I", "II", "III"}
    ok &= elapsed < 60.0
    _verdict(5, "fuzz soundness", ok)
    assert ok, f"elapsed={elapsed:.3f}s, tags={tags}"


def test_criterion_06_spiral_bound_consistency():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        beta, a, b, n = draw_spiral_case_ii(rng)
        worst = max(worst, spiral_bound_cross_check(beta, a, b, n))
    ok = worst <= 1e-12
    _verdict(6, "spiral-class bound consistency", ok)
    assert ok, f"worst={worst:.3e}"


def test_criterion_07_case_boundary_identities():
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(500):
        b = float(rng.uniform(-1.0, 0.9))
        a = float(rng.uniform(b + 0.05, 1.0))
        gamma = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) or 1.0
        p = ClassParams(gamma, float(rng.uniform(0, 1)), a, b)
        n = int(rng.integers(3, 17))
        ii = case_ii_value(p, n)
        ok &= abs(case_iii_value(p, n, n - 1) - ii) <= 1e-14 * max(1.0, abs(ii))
        i_val = case_i_value(p, n)
        ok &= abs(case_iii_value(p, n, 1) - i_val) <= 1e-14 * max(1.0, abs(i_val))
    _verdict(7, "case-boundary identities", ok)
    assert ok


def test_criterion_08_spiral_criteria_suite():
    ok = True
    for alpha in np.linspace(-1.5, 1.5, 50):
        error = abs(gb_spiral_threshold(float(alpha)) - gb_threshold_closed_form(float(alpha)))
        ok &= error <= 1e-8
    rng = np.random.default_rng(105)
    for i in range(200):
        alpha = float(rng.uniform(-1.2, 1.2))
        sample = sample_schwarz((2000, i), 4)
        f = build_spiral_instance(sample, alpha, 512)
        ok &= spiral_membership(f, alpha, 0.95, 2048).member
    for i in range(200):
        alpha = float(rng.uniform(-1.2, 1.2))
        sample = sample_schwarz((3000, i), 4)
        f = build_gb_instance(sample, gb_threshold_closed_form(alpha), 512)
        ok &= spiral_membership(f, alpha, 0.95, 2048).member
    _verdict(8, "spiral criteria suite", ok)
    assert ok


def test_criterion_09_growth_suite():
    ok = True
    k1 = growth_extremal(1.0, 300)
    for r in np.arange(0.1, 0.95, 0.1):
        target = r / (1.0 - r)
        ok &= abs(abs(k1.eval_at([-r])[0]) - target) <= 1e-10
    for j, alpha in enumerate((0.0, 0.25, 0.5)):
        p = ClassParams(1.0 - alpha, 0, 1, -1)
        for i in range(40):
            sample = sample_schwarz((4000 + j, i), 4)
            f = member_from_schwarz(sample, p, 256)
            growth = growth_check(f, alpha)
            ok &= growth.ok and growth.worst_slack >= -1e-9
            second = second_coeff_check(f, alpha)
            ok &= second.ok and second.value <= second.limit + 1e-9
    _verdict(9, "growth bound suite", ok)
    assert ok


def test_criterion_10_output_determinism():
    verify_args = [
        "verify", "--gamma", "1,0", "--lambda", "0", "--A", "1", "--B", "-1",
        "--samples", "300", "--seed", "17", "--n-max", "8",
    ]
    report_args = [
        "report", "--gamma", "0.5,0.5", "--lambda", "0.25", "--A", "0.75",
        "--B", "-0.5", "--n", "2:8", "--samples", "200", "--seed", "23",
        "--order", "32",
    ]
    outputs = []
    for args in (verify_args, verify_args, report_args, report_args):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(list(args))
        outputs.append((code, buffer.getvalue().encode()))
    ok = (
        outputs[0] == outputs[1]
        and outputs[2] == outputs[3]
        and outputs[0][0] == 0
        and outputs[2][0] == 0
    )
    _verdict(10, "output determinism", ok)
    assert ok


def test_all_fuzz_params_are_valid_and_span_cases():
    # guard for the gate's own fixture: the ten sets really span I/II/III
    from schlicht import classify_case

    tags = {classify_case(p, 10).case for p in FUZZ_PARAMS}
    assert tags == {"I", "II", "III"}

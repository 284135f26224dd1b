"""The batched fuzzer against the per-sample loop it replaced.

The reference here draws every Schwarz sample from its own
np.random.default_rng streams, then builds and checks it on its own,
through the series division and the log-derivative solve written out as
1-D np.dot loops and the scalar quadratic inequality, the way fuzz_bounds
worked before it seeded all streams in one pass and built all samples as
rows of one array.
"""

import json

import numpy as np
import pytest

from schlicht import (
    ClassParams,
    ComplexSeries,
    coefficient_bound,
    fuzz_bounds,
    member_from_schwarz,
    quadratic_sum_slack,
    sample_schwarz,
)
from schlicht.output import format_float
from schlicht.subordination import (
    CONSTRUCTIONS,
    QUADRATIC_CHECK_LIMIT,
    _member_rows,
    _moduli,
    schwarz_rows,
)

from conftest import (
    draw_valid_params,
    per_n_rows,
    reference_div,
    reference_draw,
    reference_json,
    reference_log_derivative,
    reference_pick,
)
from test_acceptance import FUZZ_PARAMS


def reference_member(omega, p: ClassParams, order: int) -> np.ndarray:
    om = np.zeros(order, dtype=np.complex128)
    om[: min(omega.order + 1, order)] = omega.coeffs[:order]
    denom = om * complex(p.b)
    denom[0] += 1.0
    q = reference_div(om * complex(p.product_base()), denom)
    q[0] += 1.0
    coeffs = reference_log_derivative(q)
    ks = np.arange(len(coeffs))
    coeffs[1:] = coeffs[1:] / (1.0 + p.lam * (ks[1:] - 1))
    return coeffs


def reference_slack(coeffs, p: ClassParams, n: int) -> float:
    base = p.product_base()
    lhs = ((n - 1) * (1.0 + p.lam * (n - 1)) * abs(coeffs[n])) ** 2
    rhs = abs(base) ** 2
    for k in range(2, n):
        weight = (1.0 + p.lam * (k - 1)) ** 2 * abs(coeffs[k]) ** 2
        rhs += (abs(base - p.b * (k - 1)) ** 2 - (k - 1) ** 2) * weight
    return (rhs - lhs) / max(1.0, lhs, abs(rhs))


def reference_fuzz(p, n_max, samples, seed, degree=4, rtol=1e-9) -> dict:
    indices = range(2, n_max + 1)
    bounds = {n: coefficient_bound(p, n) for n in indices}
    check_to = min(n_max, QUADRATIC_CHECK_LIMIT)
    counts = {name: 0 for name in CONSTRUCTIONS}
    best = {n: (0.0, None) for n in indices}
    violations = {n: 0 for n in indices}
    min_slacks, moduli = [], []
    for index in range(samples):
        construction = reference_pick(seed, index)
        counts[construction] += 1
        sample = ComplexSeries(reference_draw((seed, index), degree, construction))
        coeffs = [complex(c) for c in reference_member(sample, p, n_max)]
        moduli.append([abs(coeffs[n]) for n in indices])
        for n in indices:
            value = abs(coeffs[n])
            if value > best[n][0]:
                best[n] = (value, index)
            if value > bounds[n].value * (1.0 + rtol):
                violations[n] += 1
        min_slacks.append(
            min(reference_slack(coeffs, p, n) for n in range(2, check_to + 1))
        )
    per_n = [
        {
            "n": n,
            "bound": bounds[n].value,
            "case": bounds[n].case_tag,
            "max_observed": best[n][0],
            "argmax_index": best[n][1],
            "argmax_seed": None if best[n][1] is None else (seed, best[n][1]),
            "violations": violations[n],
        }
        for n in indices
    ]
    return {
        "constructions": counts,
        "per_n": per_n,
        "moduli": np.array(moduli),
        "checked_to": check_to,
        "violations": sum(1 for s in min_slacks if s < -rtol),
        "min_slack": min(min_slacks),
    }


@pytest.mark.parametrize("n_max", [10, 20])
@pytest.mark.parametrize("p", FUZZ_PARAMS, ids=[f"set{i}" for i in range(10)])
def test_batched_report_matches_per_sample_loop(p, n_max):
    report = fuzz_bounds(p, n_max=n_max, samples=200, seed=0)
    expected = reference_fuzz(p, n_max, 200, seed=0)
    # exact: case-II rotation samples tie at the bound to the last bit, so
    # argmax_index is decided by rounding.  The table holds written tokens,
    # so every |a_n| it takes its maximum from is compared bit for bit too
    assert report.per_n.to_json() == reference_json(expected["per_n"])
    _, omegas = schwarz_rows(0, range(200), 4, n_max)
    assert np.array_equal(_moduli(_member_rows(omegas, p)[:, 2:]), expected["moduli"])
    assert report.constructions == expected["constructions"]
    quadratic = report.quadratic_inequality
    assert quadratic.checked_to == expected["checked_to"]
    assert quadratic.violations == expected["violations"]
    assert quadratic.min_slack == pytest.approx(expected["min_slack"], abs=1e-12)


def test_argmax_is_the_first_sample_at_the_rounded_maximum():
    # case II at (1, 0, 1, -1): every rotation sample attains the bound n, so
    # at seed 0 the 22 rotation samples tie within 3e-16 relative and
    # argmax_index is whichever rounds highest.  A change of member rounding
    # may move it; the reported row must attain the column maximum exactly
    p = FUZZ_PARAMS[0]
    report = fuzz_bounds(p, n_max=10, samples=200, seed=0)
    kinds, omegas = schwarz_rows(0, range(200), 4, 10)
    moduli = _moduli(_member_rows(omegas, p)[:, 2:])
    rotations = np.flatnonzero(np.array(kinds) == "rotation")
    assert rotations.size == 22
    assert np.all(np.abs(moduli[rotations] / np.arange(2, 11) - 1.0) <= 1e-15)
    for j, row in enumerate(per_n_rows(report)):
        column = moduli[:, j]
        i = row["argmax_index"]
        assert i == np.flatnonzero(column == column.max())[0]
        assert row["argmax_seed"] == [0, i]
        assert row["max_observed"] == json.loads(format_float(column[i]))
        tied = np.flatnonzero(column >= column.max() * (1.0 - 3e-16))
        assert set(tied) <= set(rotations)
        if row["n"] in (2, 3):
            assert tied.size == 22


def test_member_matches_one_row_recurrences(rng):
    for i, order in enumerate([2, 3, 17, 64, 512], start=1):
        p = draw_valid_params(rng)
        sample = sample_schwarz((5, i), 4)
        f = member_from_schwarz(sample, p, order)
        assert np.array_equal(np.array(f.coeffs), reference_member(sample, p, order))


@pytest.mark.parametrize("order", [10, 64, 512])
def test_b_zero_member_equals_the_division_form(rng, order):
    # with B = 0 the divisor 1 + 0*omega is the constant 1; the member still
    # divides by it, and must match the reference's division bit for bit
    for i, construction in enumerate(CONSTRUCTIONS):
        gamma = complex(*rng.uniform(-2, 2, 2))
        p = ClassParams(gamma, rng.uniform(), rng.uniform(0.1, 1), 0.0)
        sample = sample_schwarz((8, i), 4, construction)
        f = member_from_schwarz(sample, p, order)
        assert np.array_equal(np.array(f.coeffs), reference_member(sample, p, order))


def test_quadratic_slack_matches_scalar_formula(rng):
    for i in range(20):
        p = draw_valid_params(rng)
        f = member_from_schwarz(sample_schwarz((6, i), 3), p, 12)
        coeffs = f.coeffs
        for n in range(2, 13):
            assert quadratic_sum_slack(f, p, n) == pytest.approx(
                reference_slack(coeffs, p, n), abs=1e-12
            )

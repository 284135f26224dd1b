"""The batched spiral check against the per-sample loop it replaced.

The reference builds and checks every Schwarz sample on its own: the
one-row ComplexSeries.div recurrences, the quotient recurrence written
out with np.dot, series.solve_log_derivative, and Horner evaluation at
explicitly computed circle nodes, the way `jack --check spiral` worked
before it built all samples as rows of one array.
"""

import cmath

import numpy as np
import pytest

from schlicht import (
    ComplexSeries,
    SpiralParams,
    build_gb_instance,
    build_spiral_instance,
    constant,
    quotient_source_ratio,
    sample_schwarz,
    solve_log_derivative,
    winding_number,
)
from schlicht import jack
from schlicht.jack import spiral_check

ORDER = 512
RADIUS = 0.95
ANGLES = 2048
CASES = [(0, -1.2), (1, -0.4), (2, 0.0), (3, 0.7), (4, 1.1), (5, 1.5)]


def reference_ratio(source: ComplexSeries, order: int) -> np.ndarray:
    s = np.zeros(order + 1, dtype=np.complex128)
    upto = min(source.order, order)
    s[: upto + 1] = source.coeffs[: upto + 1]
    p = np.zeros(order + 1, dtype=np.complex128)
    sq = np.zeros(order + 1, dtype=np.complex128)
    p[0] = sq[0] = 1.0
    for k in range(1, order + 1):
        p[k] = np.dot(s[1 : k + 1], sq[k - 1 :: -1]) / k
        sq[k] = np.dot(p[: k + 1], p[k::-1])
    return p


def reference_spiral_member(omega: ComplexSeries, alpha: float, order: int):
    a = SpiralParams(alpha).a_spiral
    target = order - 1
    om = omega.extend(target) if omega.order < target else omega.truncate(target)
    v = constant(1.0, target) + om.scale(a)
    source = om.scale(a + 1.0).div(v).div(v)
    return solve_log_derivative(ComplexSeries(reference_ratio(source, target)))


def reference_margin(f: ComplexSeries, alpha: float) -> tuple:
    nodes = RADIUS * np.exp(2j * np.pi * np.arange(ANGLES) / ANGLES)
    f_vals = f.eval_at(nodes)
    ratio = f.z_derivative().eval_at(nodes) / f_vals
    return float(np.min((cmath.exp(1j * alpha) * ratio).real)), winding_number(f_vals)


@pytest.mark.parametrize("seed,alpha", CASES)
def test_batched_spiral_check_matches_per_sample_loop(seed, alpha):
    samples = 4
    reports = spiral_check(alpha, seed, samples, 4, ORDER, RADIUS, ANGLES)
    assert len(reports) == samples
    omegas = np.zeros((samples, ORDER), dtype=np.complex128)
    for i, rep in enumerate(reports):
        omega = sample_schwarz((seed, i), 4).omega
        omegas[i, : omega.order + 1] = omega.coeffs
        expected = reference_spiral_member(omega, alpha, ORDER)
        margin, winding = reference_margin(expected, alpha)
        assert rep.min_re == pytest.approx(margin, rel=1e-13)
        assert rep.winding == winding == 1
        assert rep.member
        assert (rep.radius, rep.angles) == (RADIUS, ANGLES)
    members = jack._spiral_rows(omegas, alpha)
    for i in range(samples):
        expected = reference_spiral_member(sample_schwarz((seed, i), 4).omega, alpha, ORDER)
        assert np.array_equal(members[i], np.asarray(expected.coeffs))


def test_blocks_do_not_change_reports(monkeypatch):
    whole = spiral_check(0.3, 9, 5, 4, 64, RADIUS, 256)
    monkeypatch.setattr(jack, "SPIRAL_BLOCK", 2)
    assert spiral_check(0.3, 9, 5, 4, 64, RADIUS, 256) == whole


@pytest.mark.parametrize("seed,alpha", CASES[:3])
def test_one_instance_builders_match_reference(seed, alpha):
    sample = sample_schwarz((seed, 0), 4)
    expected = reference_spiral_member(sample.omega, alpha, ORDER)
    assert build_spiral_instance(sample, alpha, ORDER) == expected

    b = 0.4
    om = sample.omega.extend(ORDER - 1)
    ratio = reference_ratio(om.scale(b), ORDER - 1)
    assert quotient_source_ratio(om.scale(b), ORDER - 1) == ComplexSeries(ratio)
    expected_gb = solve_log_derivative(ComplexSeries(ratio))
    assert build_gb_instance(sample, b, ORDER) == expected_gb

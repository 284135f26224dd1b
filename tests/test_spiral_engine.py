"""The batched spiral check against the per-sample loop it replaced.

The reference builds and checks every Schwarz sample on its own: the
series divisions, the quadratic quotient recurrence k*p_k = [z^k](s*p^2)
and the log-derivative solve written out as 1-D np.dot loops, then Horner
evaluation at explicitly computed circle nodes, the way `jack --check
spiral` worked before it built all samples as rows of one array.  The
package now solves the quotient equation as one division,
p = 1/(1 - sum_k s_k z^k/k), which sums in another order, so members and
ratios agree with the reference to 1e-14 in max norm, not bit for bit.
"""

import cmath

import numpy as np
import pytest

from schlicht import (
    ComplexSeries,
    SpiralParams,
    build_gb_instance,
    build_spiral_instance,
    quotient_source_ratio,
    sample_schwarz,
    winding_number,
)
from schlicht import jack
from schlicht.jack import spiral_check

from conftest import max_norm_error, reference_div, reference_log_derivative

ORDER = 512
RADIUS = 0.95
ANGLES = 2048
CASES = [(0, -1.2), (1, -0.4), (2, 0.0), (3, 0.7), (4, 1.1), (5, 1.5)]
# max_k |actual_k - reference_k| <= MAX_NORM_RTOL * max_k |reference_k|
MAX_NORM_RTOL = 1e-14


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
    om = np.zeros(order, dtype=np.complex128)
    om[: min(omega.order + 1, order)] = omega.coeffs[:order]
    v = om * a
    v[0] += 1.0
    source = reference_div(reference_div(om * (a + 1.0), v), v)
    return reference_log_derivative(reference_ratio(ComplexSeries(source), order - 1))


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
        omega = sample_schwarz((seed, i), 4)
        omegas[i, : omega.order + 1] = omega.coeffs
        expected = reference_spiral_member(omega, alpha, ORDER)
        margin, winding = reference_margin(ComplexSeries(expected), alpha)
        assert rep.min_re == pytest.approx(margin, rel=1e-13)
        assert rep.winding == winding == 1
        assert rep.member
        assert (rep.radius, rep.angles) == (RADIUS, ANGLES)
    members = jack._spiral_rows(omegas, alpha)
    for i in range(samples):
        sample = sample_schwarz((seed, i), 4)
        expected = reference_spiral_member(sample, alpha, ORDER)
        assert max_norm_error(members[i], expected) <= MAX_NORM_RTOL
        # a row of the batch rounds exactly as build_spiral_instance does
        one = build_spiral_instance(sample, alpha, ORDER)
        assert np.array_equal(members[i], one.coeffs)


def test_blocks_do_not_change_reports(monkeypatch):
    whole = spiral_check(0.3, 9, 5, 4, 64, RADIUS, 256)
    monkeypatch.setattr(jack, "SPIRAL_BLOCK", 2)
    assert spiral_check(0.3, 9, 5, 4, 64, RADIUS, 256) == whole


@pytest.mark.parametrize("seed,alpha", CASES[:3])
def test_one_instance_builders_match_reference(seed, alpha):
    sample = sample_schwarz((seed, 0), 4)
    expected = reference_spiral_member(sample, alpha, ORDER)
    member = build_spiral_instance(sample, alpha, ORDER)
    assert max_norm_error(member.coeffs, expected) <= MAX_NORM_RTOL

    b = 0.4
    # both zero-pad the degree-4 source to the ratio's order
    ratio = reference_ratio(sample.scale(b), ORDER - 1)
    actual = quotient_source_ratio(sample.scale(b), ORDER - 1)
    assert max_norm_error(actual.coeffs, ratio) <= MAX_NORM_RTOL
    expected_gb = reference_log_derivative(ratio)
    member_gb = build_gb_instance(sample, b, ORDER)
    assert max_norm_error(member_gb.coeffs, expected_gb) <= MAX_NORM_RTOL

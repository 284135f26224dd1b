"""The batched spiral check against the per-sample loop it replaced, and
the jack builders against a fully exact oracle.

The reference draws every Schwarz sample from its own
np.random.default_rng stream, then builds and checks it on its own: the
series divisions, the quadratic quotient recurrence k*p_k = [z^k](s*p^2)
and the log-derivative solve written out as 1-D np.dot loops, then Horner
evaluation at explicitly computed circle nodes, the way `jack --check
spiral` worked before it built all samples as rows of one array.  The
package now builds the spiral source by one division, in blocks of its
band, by the divisor (1 + A*omega)^2, and the member from the source by
one exact recurrence for z*f', with the divisors (k-1)/k.  These sum in
another order, so members and ratios agree with the reference to 1e-14 in
max norm, not bit for bit; a batched row is still bit-equal to its one-row
build, since every dot and block product works row by row.  The check
itself builds no member: it reads z*f'/f = 1/(1 - S) from the source, so
its margins match the member-based reference to 1e-13 relative at order
512, and the tail of S that --order leaves out has a closed-form bound.
"""

import cmath
import math

import numpy as np
import pytest

from schlicht import (
    ComplexSeries,
    build_gb_instance,
    build_spiral_instance,
    quotient_source_ratio,
    winding_number,
)
from schlicht import jack
from schlicht.errors import EvaluationSingularity
from schlicht.jack import SpiralReport, spiral_check
from schlicht.series import circle_values
from schlicht.subordination import schwarz_rows

from conftest import (
    max_norm_error,
    reference_circle_values,
    reference_div,
    reference_draw,
    reference_log_derivative,
    reference_quotient_member,
)

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
    a = cmath.exp(-2j * alpha)
    om = np.zeros(order, dtype=np.complex128)
    om[: min(omega.order + 1, order)] = omega.coeffs[:order]
    v = om * a
    v[0] += 1.0
    source = reference_div(reference_div(om * (a + 1.0), v), v)
    return reference_log_derivative(reference_ratio(ComplexSeries(source), order - 1))


def reference_margin(f: ComplexSeries, alpha: float) -> tuple:
    nodes = RADIUS * np.exp(2j * np.pi * np.arange(ANGLES) / ANGLES)
    f_vals = f.eval_at(nodes)
    zfp = ComplexSeries(np.arange(f.order + 1) * np.array(f.coeffs))
    ratio = zfp.eval_at(nodes) / f_vals
    return float(np.min((cmath.exp(1j * alpha) * ratio).real)), winding_number(f_vals)


@pytest.mark.parametrize("seed,alpha", CASES)
def test_batched_spiral_check_matches_per_sample_loop(seed, alpha):
    samples = 4
    reports = spiral_check(alpha, seed, samples, 4, ORDER, RADIUS, ANGLES)
    assert len(reports) == samples
    omegas = np.zeros((samples, ORDER), dtype=np.complex128)
    for i, rep in enumerate(reports):
        omega = ComplexSeries(reference_draw((seed, i), 4, "polynomial_normalized"))
        omegas[i, : omega.order + 1] = omega.coeffs
        expected = reference_spiral_member(omega, alpha, ORDER)
        margin, winding = reference_margin(ComplexSeries(expected), alpha)
        assert rep.min_re == pytest.approx(margin, rel=1e-13)
        assert rep.winding == winding == 1
        assert rep.member
        assert (rep.radius, rep.angles) == (RADIUS, ANGLES)
    members = jack._quotient_members(jack._spiral_sources(omegas, alpha))
    for i in range(samples):
        sample = ComplexSeries(reference_draw((seed, i), 4, "polynomial_normalized"))
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
    sample = ComplexSeries(reference_draw((seed, 0), 4, "polynomial_normalized"))
    expected = reference_spiral_member(sample, alpha, ORDER)
    member = build_spiral_instance(sample, alpha, ORDER)
    assert max_norm_error(member.coeffs, expected) <= MAX_NORM_RTOL

    b = 0.4
    # both zero-pad the degree-4 source to the ratio's order
    source = ComplexSeries(np.array(sample.coeffs) * b)
    ratio = reference_ratio(source, ORDER - 1)
    actual = quotient_source_ratio(source, ORDER - 1)
    assert max_norm_error(actual.coeffs, ratio) <= MAX_NORM_RTOL
    expected_gb = reference_log_derivative(ratio)
    member_gb = build_gb_instance(sample, b, ORDER)
    assert max_norm_error(member_gb.coeffs, expected_gb) <= MAX_NORM_RTOL


@pytest.mark.parametrize("order", [64, 512])
def test_builders_match_the_exact_oracle(order):
    # the exact oracle: the spiral source (A+1)*omega/(1 + A*omega)^2 by two
    # reference divisions, or the gb source b*omega, then the weighted
    # reference recurrence; on degree-4 sampler rows
    rng = np.random.default_rng(order)
    _, omegas = schwarz_rows(43, range(8), 4, order, "polynomial_normalized")
    for omega in omegas:
        alpha, b = float(rng.uniform(-1.2, 1.2)), 1.0 - float(rng.random())
        a = cmath.exp(-2j * alpha)
        v = omega * a
        v[0] += 1.0
        source = reference_div(reference_div(omega * (a + 1.0), v), v)
        member = build_spiral_instance(ComplexSeries(omega), alpha, order)
        expected = reference_quotient_member(source, order)
        assert max_norm_error(member.coeffs, expected) <= MAX_NORM_RTOL
        member_gb = build_gb_instance(ComplexSeries(omega), b, order)
        expected_gb = reference_quotient_member(omega * b, order)
        assert max_norm_error(member_gb.coeffs, expected_gb) <= MAX_NORM_RTOL


ROGOSINSKI_ALPHAS = [0.0, 0.4, -1.0, 1.2, 1.5]


@pytest.mark.parametrize("construction", [None, "polynomial_normalized"])
@pytest.mark.parametrize("degree", [1, 4])
@pytest.mark.parametrize("alpha", ROGOSINSKI_ALPHAS)
def test_spiral_sources_obey_rogosinski(alpha, degree, construction):
    # h(w) = (1+A)*w/(1+A*w)^2, A = e^{-2i*alpha}, is a rotated Koebe function,
    # univalent and starlike, and s = h(omega) is subordinate to it, so
    # Rogosinski's theorem gives |s_k| <= k*|1 + A|.  The computed ratio
    # reaches 1 - 3e-3 on the polynomial rows and 1 + 7e-12 on the rotations
    # omega = e^{i*theta}*z that the mixed draw holds, where the bound is
    # attained; the factor 1 + 1e-10 is room for that rounding.
    _, omegas = schwarz_rows(0, range(64), degree, ORDER, construction)
    sources = jack._spiral_sources(omegas, alpha)
    k = np.arange(1, ORDER)
    bound = k * abs(1.0 + cmath.exp(-2j * alpha)) * (1.0 + 1e-10)
    assert np.all(np.abs(sources[:, 1:]) <= bound)


@pytest.mark.parametrize("alpha", ROGOSINSKI_ALPHAS)
@pytest.mark.parametrize("n", [16, 64, 256])
def test_truncated_s_tail_is_bounded(n, alpha):
    # |S_k| = |s_k|/k <= 2|cos(alpha)|, so on |z| = r the S that --order n
    # leaves out sums to at most 2|cos(alpha)|*r^n/(1 - r); the direct sum
    # runs to n + 1024, where r^1024 < 1e-22
    r = 0.95
    width = n + 1024
    _, omegas = schwarz_rows(2, range(32), 1, width, None)
    u = jack._one_plus_integral(jack._spiral_sources(omegas, alpha), -1.0)
    nodes = r * np.exp(2j * np.pi * np.arange(256) / 256)
    tail = np.zeros((u.shape[0], nodes.size), dtype=np.complex128)
    for k in range(width - 1, n - 1, -1):
        tail = tail * nodes - u[:, k : k + 1]
    tail *= nodes**n
    bound = 2.0 * abs(math.cos(alpha)) * r**n / (1.0 - r)
    assert np.max(np.abs(tail)) <= bound * (1.0 + 1e-10)


@pytest.mark.parametrize("seed,degree,alpha", [(3, 4, 0.4), (0, 1, 0.0)])
def test_check_reads_the_members_ratio_at_order_2048(seed, degree, alpha):
    # spiral_check builds no member; build_spiral_instance's z*f'/f on the
    # circle is the 1/(1 - S) that it reads, on three sampler rows
    order = 2048
    _, omegas = schwarz_rows(seed, range(3), degree, order, "polynomial_normalized")
    u = jack._one_plus_integral(jack._spiral_sources(omegas, alpha), -1.0)
    direct = 1.0 / circle_values(u, RADIUS, ANGLES)
    reports = spiral_check(alpha, seed, 3, degree, order, RADIUS, ANGLES)
    for omega, p, rep in zip(omegas, direct, reports):
        member = build_spiral_instance(ComplexSeries(omega), alpha, order)
        c = np.array(member.coeffs)
        f_vals, zfp = circle_values(np.stack([c, np.arange(c.size) * c]), RADIUS, ANGLES)
        assert np.max(np.abs(zfp / f_vals - p)) <= 1e-12 * np.max(np.abs(p))
        one = jack.spiral_membership(member, alpha, RADIUS, ANGLES)
        assert rep.min_re == pytest.approx(one.min_re, rel=1e-11)
        assert (rep.member, rep.winding) == (one.member, one.winding) == (True, 1)


def test_check_floors_its_divisor(monkeypatch):
    # the check divides by u = 1 - S, so the singularity floor applies to |u|
    _, omegas = schwarz_rows(9, range(2), 4, 64, "polynomial_normalized")
    u = jack._one_plus_integral(jack._spiral_sources(omegas, 0.3), -1.0)
    least = float(np.min(np.abs(circle_values(u, RADIUS, 256))))
    monkeypatch.setattr(jack, "SINGULARITY_FLOOR", least * 0.999)
    spiral_check(0.3, 9, 2, 4, 64, RADIUS, 256)
    monkeypatch.setattr(jack, "SINGULARITY_FLOOR", least * 1.001)
    with pytest.raises(EvaluationSingularity, match=r"\|1 - S\|"):
        spiral_check(0.3, 9, 2, 4, 64, RADIUS, 256)


@pytest.mark.parametrize("order", [64, 512])
@pytest.mark.parametrize("alpha", [0.0, 0.4, -1.2, 1.5])
@pytest.mark.parametrize("degree", [1, 4])
def test_a_positive_margin_implies_winding_zero(degree, alpha, order):
    # min Re(e^{i*alpha}/u) > 0 puts every grid sample of u = 1 - S in the
    # half-plane Re(e^{-i*alpha}*u) > 0, so the phase steps sum to 0, which
    # spiral_check reports without taking them; wound directly here
    samples = 32
    _, omegas = schwarz_rows(5, range(samples), degree, order, "polynomial_normalized")
    u = jack._one_plus_integral(jack._spiral_sources(omegas, alpha), -1.0)
    vals = circle_values(u, RADIUS, ANGLES)
    margins = np.min((cmath.exp(1j * alpha) / vals).real, axis=1)
    windings = jack._windings(vals)
    assert np.any(margins > 0.0)
    assert np.all(windings[margins > 0.0] == 0)
    reports = spiral_check(alpha, 5, samples, degree, order, RADIUS, ANGLES)
    assert [r.winding for r in reports] == (1 + windings).tolist()
    assert [r.min_re for r in reports] == margins.tolist()


def test_failing_rows_keep_their_computed_winding():
    # at --order 2 the truncated 1 - S_1*z of the second sample has its zero
    # inside the circle; the README's margins
    reports = spiral_check(0.4, 1, 3, 1, 2, RADIUS, ANGLES)
    assert [r.winding for r in reports] == [1, 2, 1]
    assert [r.member for r in reports] == [True, False, False]
    assert [r.min_re for r in reports] == pytest.approx([0.247, -5.69, -0.648], rel=1e-3)
    _, omegas = schwarz_rows(1, range(3), 1, 2, "polynomial_normalized")
    u = jack._one_plus_integral(jack._spiral_sources(omegas, 0.4), -1.0)
    assert (1 + jack._windings(circle_values(u, RADIUS, ANGLES))).tolist() == [1, 2, 1]


def reference_reports(alpha, seed, samples, degree, order, radius, angles) -> list:
    # the margins of exp(i*alpha)/u divided out of place, and every row's
    # winding taken on u itself
    _, omegas = schwarz_rows(seed, range(samples), degree, order, "polynomial_normalized")
    u = jack._one_plus_integral(jack._spiral_sources(omegas, alpha), -1.0)
    vals = reference_circle_values(u, radius, angles)
    margins = np.min((cmath.exp(1j * alpha) / vals).real, axis=1)
    windings = 1 + jack._windings(vals)
    return [SpiralReport(bool(m > 0.0) and w == 1, float(m), radius, angles, int(w))
            for m, w in zip(margins, windings)]


@pytest.mark.parametrize("order", range(2, 9))
def test_failing_rows_are_wound_on_the_quotient(order):
    # at low orders and on a circle near the unit one, truncated 1 - S often
    # has zeros inside the circle, and near |alpha| = pi/2 the margin, about
    # cos(alpha) where S is small, is often <= 0 where it has none;
    # spiral_check winds every row of margin <= 0 on exp(i*alpha)/u, which it
    # writes over u's samples, so winding(u) = -winding(exp(i*alpha)/u) must
    # give u's own
    wound = failing = 0
    for degree in range(1, 5):
        for alpha in (0.0, 0.4, -0.4, 1.0, -1.0, 1.4, -1.4, 1.56, -1.56):
            got = spiral_check(alpha, order, 50, degree, order, 0.999, 256)
            expected = reference_reports(alpha, order, 50, degree, order, 0.999, 256)
            assert got == expected
            assert [r.min_re.hex() for r in got] == [r.min_re.hex() for r in expected]
            wound += sum(r.winding != 1 for r in got)
            failing += sum(r.min_re <= 0.0 and r.winding == 1 for r in got)
    assert wound > 0 and failing > 0

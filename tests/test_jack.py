"""Spiral/quotient disk criteria, threshold minimization, growth bounds."""

import cmath
import math

import numpy as np
import pytest

from schlicht import (
    ClassParams,
    ComplexSeries,
    build_gb_instance,
    coefficient_bound,
    build_spiral_instance,
    gb_membership,
    gb_spiral_threshold,
    gb_threshold_closed_form,
    growth_check,
    growth_extremal,
    growth_extremal_profile,
    growth_extremal_starlike_order,
    identity,
    member_from_schwarz,
    monomial,
    quotient_source_ratio,
    reduce_subclass,
    sample_schwarz,
    second_coeff_check,
    solve_log_derivative,
    spiral_membership,
    starlike_membership,
    winding_number,
)
from schlicht import jack
from schlicht.errors import (
    EvaluationSingularity,
    ParameterDomainError,
    PreconditionNotVerified,
)
from schlicht.extremals import sharpness_columns

from conftest import (
    binomial_series,
    grid_sup,
    max_norm_error,
    reference_div,
    reference_log_derivative,
    reference_quotient_member,
)


def ratio_on_circle(f: ComplexSeries, radius: float, angles: int) -> np.ndarray:
    """z*f'/f on the circle |z| = radius."""
    zfp = ComplexSeries(np.arange(f.order + 1) * np.array(f.coeffs))
    return zfp.eval_on_circle(radius, angles) / f.eval_on_circle(radius, angles)


STARLIKE = ClassParams(1, 0, 1, -1)


def starlike_member(alpha: float, omega, order: int):
    """Members of the order-alpha starlike class via gamma = 1 - alpha."""
    return member_from_schwarz(omega, ClassParams(1.0 - alpha, 0, 1, -1), order)


class TestSpiralMembership:
    def test_identity_margin_is_cos_alpha(self):
        for alpha in (-1.2, -0.5, 0.0, 0.7, 1.3):
            rep = spiral_membership(identity(4), alpha, 0.9, 256)
            assert rep.member
            assert rep.min_re == pytest.approx(math.cos(alpha), abs=1e-12)

    def test_koebe_is_starlike(self):
        f = member_from_schwarz(identity(1), STARLIKE, 128)
        rep = spiral_membership(f, 0.0, 0.9, 1024)
        assert rep.member

    def test_large_second_coefficient_fails(self):
        # f = z + 3z^2 has a second zero at -1/3 inside the circle; the
        # boundary real part stays positive but the winding guard refuses
        f = ComplexSeries([0, 1, 3] + [0] * 29)
        rep = spiral_membership(f, 0.0, 0.9, 1024)
        assert not rep.member
        assert rep.winding == 2

    def test_row_windings_match_the_one_curve_formula(self):
        # _windings takes every row's winding in one pass; each integer
        # must be the one the per-curve phase-step sum gives
        rng = np.random.default_rng(6)
        theta = 2.0 * np.pi * np.arange(512) / 512
        turns = np.arange(-3, 5)
        noise = rng.standard_normal((turns.size, 512)) * 0.3
        curves = np.exp(1j * turns[:, None] * theta) * (1.0 + noise)
        expected = [
            int(round(float(np.sum(np.angle(np.roll(c, -1) / c))) / (2.0 * math.pi)))
            for c in curves
        ]
        assert jack._windings(curves).tolist() == expected
        assert [winding_number(c) for c in curves] == expected

    def test_zero_margin_is_not_a_member(self):
        # the grid test is margin > 0: a margin of exactly zero fails it
        reports = jack._reports(np.array([0.0, -0.0, 5e-324, -1.0]), [1, 1, 1, 1], 0.9, 64)
        assert [rep.member for rep in reports] == [False, False, True, False]

    def test_zero_of_f_on_grid_detected(self):
        # f = z - 2z^2 vanishes at z = 0.5, which the theta=0 grid node hits
        f = ComplexSeries([0, 1, -2.0] + [0] * 10)
        with pytest.raises(EvaluationSingularity):
            spiral_membership(f, 0.0, 0.5, 4096)

    def test_alpha_domain(self):
        with pytest.raises(ParameterDomainError):
            spiral_membership(identity(4), 1.6)

    def test_starlike_order_membership(self):
        # z/(1-z) has Re(zf'/f) > 1/2, with margin (1-r)/(2(1+r)) at |z|=r
        f = member_from_schwarz(identity(1), ClassParams(0.5, 0, 1, -1), 512)
        rep = starlike_membership(f, 0.5, 0.9, 1024)
        assert rep.member
        assert rep.min_re == pytest.approx(0.1 / (2 * 1.9), abs=1e-9)
        rep_tight = starlike_membership(f, 0.55, 0.9, 1024)
        assert not rep_tight.member


class TestQuotientDeviation:
    def test_identity_has_zero_deviation(self):
        rep = gb_membership(identity(4), 1.0, 0.9, 256)
        assert rep.member
        assert rep.max_dev == pytest.approx(0.0, abs=1e-13)

    def test_half_plane_map_deviation_equals_radius(self):
        # f = z/(1-z): the quotient is exactly 1 + z, so the deviation on
        # |z| = r is r at every angle (order 512 keeps the f'' tail at
        # radius 0.9 far below the tolerance)
        f = member_from_schwarz(identity(1), ClassParams(1, 1, 1, -1), 512)
        rep = gb_membership(f, 1.0, 0.9, 512)
        assert rep.member
        assert rep.max_dev == pytest.approx(0.9, abs=1e-9)

    def test_koebe_fails_small_deviation(self):
        f = member_from_schwarz(identity(1), STARLIKE, 256)
        rep = gb_membership(f, 0.1, 0.9, 512)
        assert not rep.member

    def test_b_domain(self):
        with pytest.raises(ParameterDomainError):
            gb_membership(identity(4), 0.0)


class TestThreshold:
    def test_alpha_zero(self):
        assert gb_spiral_threshold(0.0) == pytest.approx(0.5, abs=1e-10)

    def test_alpha_quarter_pi(self):
        assert gb_spiral_threshold(math.pi / 4) == pytest.approx(
            math.sqrt(2.0) / 4.0, abs=1e-10
        )

    def test_vanishes_toward_the_boundary(self):
        assert gb_spiral_threshold(1.5) < 0.04
        assert gb_threshold_closed_form(1.5) == pytest.approx(
            abs(1 + cmath.exp(-3j)) / 4, abs=1e-15
        )

    def test_matches_closed_form_to_rounding(self):
        # the zooming grid's last bracket is narrow enough that the minimum is
        # exact to rounding; the bracket crosses t = 0 = 2*pi near alpha = 0
        alphas = [*np.linspace(-1.5707963, 1.5707963, 401), 0.0, 1e-12, -1e-12]
        for alpha in alphas:
            assert gb_spiral_threshold(float(alpha)) == pytest.approx(
                gb_threshold_closed_form(float(alpha)), rel=2e-15, abs=0.0
            )

    def test_evaluates_at_most_300_points(self, monkeypatch):
        points = []
        exp = np.exp

        def counting_exp(x, *args, **kwargs):
            points.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counting_exp)
        gb_spiral_threshold(0.7)
        assert 0 < sum(points) <= 300

    def test_matches_closed_form_50_angles(self):
        for alpha in np.linspace(-1.5, 1.5, 50):
            assert gb_spiral_threshold(float(alpha)) == pytest.approx(
                gb_threshold_closed_form(float(alpha)), abs=1e-8
            )

    @pytest.mark.parametrize("alpha", [0.4, 1.0, -1.2])
    def test_sharp_threshold_is_cos_alpha(self, alpha):
        # the Jack-lemma constant cos(alpha)/2 suffices but is not sharp: a
        # deviation b*omega has 1/(z*f'/f) = 1 - b*W with |W| < 1, so b up to
        # cos(alpha) is spiral-like, and omega = e^{i*alpha}*z fails past it on
        # |z| > cos(alpha)/b, here 0.98 < 0.99
        assert gb_spiral_threshold(alpha) == pytest.approx(math.cos(alpha) / 2.0)
        omega = monomial(cmath.exp(1j * alpha), 1, 1)
        for factor, member in [(0.98, True), (1.02, False)]:
            f = build_gb_instance(omega, factor * math.cos(alpha), 2048)
            assert spiral_membership(f, alpha, 0.99, 4096).member is member


class TestForwardInstances:
    def test_zero_source_gives_identity(self):
        p = quotient_source_ratio(monomial(0, 0, 6), 6)
        assert p == monomial(1, 0, 6)
        assert solve_log_derivative(p) == identity(7)

    def test_identity_omega_alpha_zero_gives_koebe(self):
        # the ratio solves to (1+z)/(1-z) and the member is the Koebe shape
        f = build_spiral_instance(identity(1), 0.0, 8)
        for n in range(1, 9):
            assert f.coefficient(n) == pytest.approx(n, abs=1e-10)

    def test_ratio_is_half_plane_map_for_identity_omega(self):
        a = cmath.exp(-2j * 0.0)
        om = np.array(identity(256).coeffs)
        v = om * a
        v[0] += 1.0
        source = reference_div(reference_div(om * (a + 1.0), v), v)
        p = quotient_source_ratio(ComplexSeries(source), 256)
        assert np.allclose(p.coeffs[:8], [1, 2, 2, 2, 2, 2, 2, 2], atol=1e-12)
        vals = p.eval_on_circle(0.95, 512)
        assert float(np.min(vals.real)) > 0.0

    def test_spiral_instances_pass_membership(self):
        rng = np.random.default_rng(23)
        for i in range(40):
            alpha = float(rng.uniform(-1.2, 1.2))
            sample = sample_schwarz((31, i), 4)
            f = build_spiral_instance(sample, alpha, 512)
            rep = spiral_membership(f, alpha, 0.95, 2048)
            assert rep.member, (alpha, i, rep.min_re)

    def test_gb_instances_pass_membership(self):
        rng = np.random.default_rng(24)
        for i in range(40):
            alpha = float(rng.uniform(-1.2, 1.2))
            b = gb_threshold_closed_form(alpha)
            sample = sample_schwarz((37, i), 4)
            f = build_gb_instance(sample, b, 512)
            rep = spiral_membership(f, alpha, 0.95, 2048)
            assert rep.member, (alpha, i, rep.min_re)

    @pytest.mark.parametrize("build, message", [
        (lambda: build_spiral_instance(identity(1), 0.3, 0), "order must be >= 2, got 0"),
        (lambda: build_gb_instance(identity(1), 0.5, 0), "order must be >= 2, got 0"),
        (lambda: quotient_source_ratio(monomial(0, 0, 6), -1), "width >= 1, got 0"),
        (lambda: member_from_schwarz(identity(1), STARLIKE, 0), "order must be >= 2, got 0"),
        (lambda: build_spiral_instance(identity(1), 0.3, 1), "order must be >= 2, got 1"),
        (lambda: build_gb_instance(identity(1), 0.5, 1), "order must be >= 2, got 1"),
        (lambda: member_from_schwarz(identity(1), STARLIKE, 1), "order must be >= 2, got 1"),
    ], ids=["spiral", "gb", "ratio", "member", "spiral-order1", "gb-order1", "member-order1"])
    def test_empty_row_refused(self, build, message):
        # the member builders apply the order rule, params.check_order, before
        # series.fit_row fits their input; the ratio's width has only fit_row's
        with pytest.raises(ParameterDomainError, match=message):
            build()

    def test_unimodular_omega_builds_a_member(self):
        # 1/(1 + A*z)^2 never decays; its coefficients grow like k
        f = build_spiral_instance(identity(511), 0.4, 512)
        assert f.order == 512
        assert spiral_membership(f, 0.4).member

    def test_gb_instance_deviation_within_b(self):
        sample = sample_schwarz((41, 0), 3)
        b = 0.4
        f = build_gb_instance(sample, b, 256)
        rep = gb_membership(f, b, 0.95, 1024)
        assert rep.member
        assert rep.max_dev <= b * grid_sup(sample) / 0.99 + 1e-6


def spiral_closed_form(alpha: float, theta: float, order: int) -> np.ndarray:
    """a_0..a_order of the alpha-spiral member of omega = e^{i*theta}*z, which
    is z/(1 - e^{i*theta}*z)^c with c = 2*cos(alpha)*e^{-i*alpha}, by the
    one-term recurrence a_{n+1} = a_n*e^{i*theta}*(n - 1 + c)/n."""
    c = 2.0 * math.cos(alpha) * cmath.exp(-1j * alpha)
    u = cmath.exp(1j * theta)
    out = np.zeros(order + 1, dtype=np.complex128)
    out[1] = 1.0
    for n in range(1, order):
        out[n + 1] = out[n] * u * (n - 1 + c) / n
    return out


class TestBuildersMatchClosedForms:
    """The builders on unimodular omega = e^{i*theta}*z, where nothing
    decays.  Each tolerance is under 10x the error measured with numpy 2.4.
    The spiral member's coefficients grow like n^{cos(2*alpha)}, most at
    alpha = 0 and 0.4.  Its source is one division by the band
    (1 + A*omega)^2 and its member one exact recurrence, which keep the
    error at 1.9e-12 or below at order 512 and 8.7e-12 at 2048.  The gb
    members, whose source b*omega is exact, lose no more than 1e-13."""

    @pytest.mark.parametrize("alpha, theta, order, tol", [
        (0.0, 0.0, 512, 5e-14),
        (0.0, 0.0, 2048, 1e-12),
        (0.4, 0.0, 512, 8e-12),
        (0.4, 0.0, 2048, 4e-11),
        (0.4, 1.0, 512, 1.5e-12),
        (0.4, 1.0, 2048, 1e-11),
        (-1.2, 0.3, 512, 4e-14),
        (-1.2, 0.3, 2048, 1.5e-13),
        (1.2, 2.0, 512, 5e-14),
        (1.2, 2.0, 2048, 8e-14),
    ])
    def test_spiral(self, alpha, theta, order, tol):
        f = build_spiral_instance(monomial(cmath.exp(1j * theta), 1, 1), alpha, order)
        assert max_norm_error(f.coeffs, spiral_closed_form(alpha, theta, order)) <= tol

    @pytest.mark.parametrize("theta, order, tol", [
        (0.0, 512, 1.5e-14),
        (0.0, 2048, 3e-14),
        (1.0, 512, 2e-13),
        (1.0, 2048, 8e-13),
    ])
    def test_gb(self, theta, order, tol):
        # deviation 1*omega: the ratio is 1/(1 - u*z), so a_n = u^(n-1)
        u = cmath.exp(1j * theta)
        f = build_gb_instance(monomial(u, 1, 1), 1.0, order)
        expected = np.concatenate([[0.0], u ** np.arange(order)])
        assert max_norm_error(f.coeffs, expected) <= tol


class TestSpiralBuilderEdges:
    """Rows the band division does not see: a zero omega, and divisors
    (1 + A*omega)^2 as wide as the row or wider, which the full-width
    division takes truncated.  Oracle: the source by two reference
    divisions, then the weighted reference recurrence."""

    ALPHA = 0.4

    def oracle(self, omega: np.ndarray, order: int) -> np.ndarray:
        a = cmath.exp(-2j * self.ALPHA)
        om = np.zeros(order, dtype=np.complex128)
        om[: min(omega.size, order)] = omega[:order]
        v = om * a
        v[0] += 1.0
        return reference_quotient_member(reference_div(reference_div(om * (a + 1.0), v), v),
                                         order)

    def test_zero_omega_gives_identity(self):
        assert build_spiral_instance(monomial(0, 0, 6), self.ALPHA, 64) == identity(64)
        members = jack._quotient_members(
            jack._spiral_sources(np.zeros((3, 64), dtype=np.complex128), self.ALPHA))
        assert np.array_equal(members, np.tile(identity(64).coeffs, (3, 1)))

    def test_order_two_is_the_source_slope(self):
        # a_2 = s_1 = (A+1)*c_1, to the rounding of that product
        omega = sample_schwarz((1, 0), 4)
        f = build_spiral_instance(omega, self.ALPHA, 2)
        slope = omega.coefficient(1) * (cmath.exp(-2j * self.ALPHA) + 1.0)
        assert f.coeffs[:2] == (0, 1)
        assert f.coefficient(2) == pytest.approx(slope, rel=1e-15, abs=0.0)

    def test_degree_nine_at_order_three(self):
        omega = sample_schwarz((1, 0), 9)
        assert omega.order == 9
        f = build_spiral_instance(omega, self.ALPHA, 3)
        assert max_norm_error(f.coeffs, self.oracle(np.array(omega.coeffs), 3)) <= 1e-15

    def test_full_width_omega_with_a_tiny_constant(self):
        # series.fit_row admits |c_0| <= 1e-14; the divisor is then wider
        # than the row, and the member's a_0 and a_1 stay exact
        rng = np.random.default_rng(5)
        omega = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        omega *= 0.9 / np.sum(np.abs(omega))
        omega[0] = 1e-15
        f = build_spiral_instance(ComplexSeries(omega), self.ALPHA, 64)
        assert f.coeffs[:2] == (0, 1)
        assert max_norm_error(f.coeffs, self.oracle(omega, 64)) <= 1e-15


class TestGrowth:
    def test_koebe_growth_and_second_coefficient(self):
        f = member_from_schwarz(identity(1), STARLIKE, 256)
        rep = growth_check(f, 0.0)
        assert rep.ok
        assert rep.worst_slack >= -1e-9
        assert rep.beta == pytest.approx(0.5)
        assert not rep.narrow_hypothesis
        second = second_coeff_check(f, 0.0)
        assert second.ok
        assert second.value == pytest.approx(4.0, abs=1e-12)
        assert second.limit == pytest.approx(4.0, abs=1e-15)

    def test_identity_function_has_large_slack(self):
        # worst radius is 0.3: slack = 0.3/0.49 - 0.3
        rep = growth_check(identity(64), 0.0)
        assert rep.ok
        assert rep.worst_slack == pytest.approx(0.3 / 0.49 - 0.3, abs=1e-12)
        second = second_coeff_check(identity(64), 0.0)
        assert second.value == 0.0

    def test_half_order_member(self):
        f = member_from_schwarz(identity(1), ClassParams(0.5, 0, 1, -1), 256)
        rep = growth_check(f, 0.5)
        assert rep.ok
        assert rep.narrow_hypothesis
        assert rep.beta == pytest.approx(1.0)

    def test_precondition_enforced(self):
        bad = ComplexSeries([0, 1, 3] + [0] * 61)
        with pytest.raises(PreconditionNotVerified):
            growth_check(bad, 0.0)

    def test_fuzzed_members_satisfy_growth(self):
        for j, alpha in enumerate((0.0, 0.25, 0.5)):
            for i in range(20):
                sample = sample_schwarz((53 + j, i), 4)
                f = starlike_member(alpha, sample, 256)
                rep = growth_check(f, alpha)
                assert rep.ok, (alpha, i, rep.worst_slack)
                sec = second_coeff_check(f, alpha)
                assert sec.ok, (alpha, i, sec.value, sec.limit)


class TestGrowthExtremal:
    def test_beta_one_series_and_order(self):
        f = growth_extremal(1.0, 8)
        assert np.allclose(
            f.coeffs, [0, 1, -1, 1, -1, 1, -1, 1, -1], atol=1e-13
        )
        assert growth_extremal_starlike_order(1.0) == pytest.approx(0.5)

    def test_beta_half_is_koebe_rotation(self):
        f = growth_extremal(0.5, 8)
        for n in range(1, 9):
            assert abs(f.coefficient(n)) == pytest.approx(float(n), rel=1e-12)
        assert growth_extremal_starlike_order(0.5) == pytest.approx(0.0)

    @pytest.mark.parametrize("order", [64, 512])
    @pytest.mark.parametrize("beta", [0.05, 0.1, 0.8, 3.7])
    def test_matches_binomial_recurrence(self, beta, order):
        # z*(1+z)^(-1/beta) from the binomial term recurrence, independent of
        # the log-derivative solve
        f = growth_extremal(beta, order)
        expected = np.concatenate([[0.0], binomial_series(-1.0 / beta, 1.0, order - 1)])
        assert max_norm_error(f.coeffs, expected) <= 1e-14
        # built as the omega = -z member of Sstar(1/(2*beta)), it is bit for
        # bit the log-derivative solve of q = 1 - (1/beta)*z/(1+z)
        q = np.ones(order, dtype=np.complex128)
        q[2::2] = -1.0
        q[1:] *= -1.0 / beta
        assert np.array_equal(f.coeffs, reference_log_derivative(q))

    @pytest.mark.parametrize("beta", [0.05, 0.1, 0.5, 0.8, 3.7])
    def test_attains_every_sstar_bound(self, beta):
        # z*(1+z)^(-1/beta) is the omega = -z member of Sstar(1/(2*beta)),
        # a rotation of its omega = z extremal, so it attains every case-II
        # bound of that class
        f = growth_extremal(beta, 64)
        p = reduce_subclass("Sstar", gamma=0.5 / beta).params
        bounds = [coefficient_bound(p, n) for n in range(2, 65)]
        assert {b.case_tag for b in bounds} == {"II"}
        _, _, attained = sharpness_columns(np.array([b.value for b in bounds]),
                                           [abs(f.coefficient(b.n)) for b in bounds])
        assert attained.all(), (beta, np.flatnonzero(~attained) + 2)

    def test_fast_growth_flagged_not_univalent(self):
        profile = growth_extremal_profile(0.25, 8)
        assert profile["starlike_order"] < 0.0
        assert profile["not_univalent_expected"]
        profile_slow = growth_extremal_profile(1.0, 8)
        assert not profile_slow["not_univalent_expected"]

    def test_beta_one_attains_growth_bound(self):
        f = growth_extremal(1.0, 300)
        for r in np.arange(0.1, 0.95, 0.1):
            value = abs(f.eval_at([-r])[0])
            assert value == pytest.approx(r / (1.0 - r), abs=1e-10)

    def test_starlike_order_consistent_with_grid(self):
        # z*f'/f of z(1+z)^{-1/beta} has real part > 1 - 1/(2 beta)
        beta = 0.8
        f = growth_extremal(beta, 256)
        vals = ratio_on_circle(f, 0.95, 1024)
        order = growth_extremal_starlike_order(beta)
        assert float(np.min(vals.real)) > order
        assert float(np.min(vals.real)) < order + 0.05


class TestHalfPlaneBallEquivalence:
    def test_grid_equivalence(self):
        # Re(zf'/f) > alpha matches |2*alpha*f/(zf') - 1| < 1 pointwise
        rng = np.random.default_rng(29)
        for i in range(30):
            alpha = float(rng.uniform(0.05, 0.95))
            sample = sample_schwarz((61, i), 3)
            f = starlike_member(alpha, sample, 64)
            vals = ratio_on_circle(f, 0.9, 512)
            half_plane = vals.real > alpha
            ball = np.abs(2.0 * alpha / vals - 1.0) < 1.0
            assert np.array_equal(half_plane, ball)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: build_gb_instance(identity(1), 0.0, 8),
                 "need 0 < b <= 1, got 0.0", id="gb-b-zero"),
    pytest.param(lambda: build_gb_instance(identity(1), 1.5, 8),
                 "need 0 < b <= 1, got 1.5", id="gb-b-large"),
    pytest.param(lambda: starlike_membership(identity(8), 1.0, 0.5, 64),
                 "starlike order alpha must be in [0, 1), got 1.0", id="starlike-order"),
    pytest.param(lambda: quotient_source_ratio(ComplexSeries([0.5, 1.0]), 8),
                 "the series must vanish at the origin", id="source0"),
    pytest.param(lambda: build_spiral_instance(ComplexSeries([0.5, 1.0]), 0.3, 8),
                 "the series must vanish at the origin", id="spiral-omega0"),
    pytest.param(lambda: build_gb_instance(ComplexSeries([0.5, 1.0]), 0.5, 8),
                 "the series must vanish at the origin", id="gb-omega0"),
    pytest.param(lambda: growth_check(identity(8), -0.1),
                 "starlike order alpha must be in [0, 1), got -0.1", id="beta-for-growth"),
    pytest.param(lambda: growth_extremal_starlike_order(0),
                 "beta must be finite and positive, got 0", id="starlike-order-beta"),
])
def test_refusals(call, message):
    with pytest.raises(ParameterDomainError) as info:
        call()
    assert type(info.value) is ParameterDomainError and message in str(info.value)

"""Spiral/quotient disk criteria, threshold minimization, growth bounds."""

import cmath
import math

import numpy as np
import pytest

from schlicht import (
    ClassParams,
    ComplexSeries,
    SpiralParams,
    build_gb_instance,
    build_spiral_instance,
    constant,
    gb_membership,
    gb_spiral_threshold,
    gb_threshold_closed_form,
    growth_check,
    growth_extremal,
    growth_extremal_profile,
    growth_extremal_starlike_order,
    identity,
    member_from_schwarz,
    quotient_source_ratio,
    sample_schwarz,
    second_coeff_check,
    solve_log_derivative,
    spiral_membership,
    starlike_membership,
)
from schlicht.errors import (
    EvaluationSingularity,
    ParameterDomainError,
    PreconditionNotVerified,
)

from conftest import binomial_series, grid_sup, max_norm_error


def ratio_on_circle(f: ComplexSeries, radius: float, angles: int) -> np.ndarray:
    """z*f'/f on the circle |z| = radius."""
    return f.z_derivative().eval_on_circle(radius, angles) / f.eval_on_circle(radius, angles)


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

    def test_matches_closed_form_50_angles(self):
        for alpha in np.linspace(-1.5, 1.5, 50):
            assert gb_spiral_threshold(float(alpha)) == pytest.approx(
                gb_threshold_closed_form(float(alpha)), abs=1e-8
            )


class TestForwardInstances:
    def test_zero_source_gives_identity(self):
        p = quotient_source_ratio(constant(0, 6), 6)
        assert p == constant(1, 6)
        assert solve_log_derivative(p) == identity(7)

    def test_identity_omega_alpha_zero_gives_koebe(self):
        # the ratio solves to (1+z)/(1-z) and the member is the Koebe shape
        f = build_spiral_instance(identity(1), 0.0, 8)
        for n in range(1, 9):
            assert f.coefficient(n) == pytest.approx(n, abs=1e-10)

    def test_ratio_is_half_plane_map_for_identity_omega(self):
        sp = SpiralParams(0.0)
        om = identity(256)
        v = om.scale(sp.a_spiral) + 1.0
        source = om.scale(sp.a_spiral + 1.0).div(v).div(v)
        p = quotient_source_ratio(source, 256)
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

    def test_gb_instance_deviation_within_b(self):
        sample = sample_schwarz((41, 0), 3)
        b = 0.4
        f = build_gb_instance(sample, b, 256)
        rep = gb_membership(f, b, 0.95, 1024)
        assert rep.member
        assert rep.max_dev <= b * grid_sup(sample) / 0.99 + 1e-6


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

"""Bound formulas: anchors, identity residuals, cross-checks, continuity."""

import math

import numpy as np
import pytest

from schlicht import (
    CauchyEulerParams,
    ClassParams,
    case_i_value,
    case_ii_value,
    case_iii_value,
    cauchy_euler_factor,
    coefficient_bound,
    coefficient_bound_cauchy_euler,
    identity,
    member_from_schwarz,
    monomial,
    reduce_subclass,
    spiral_bound_cross_check,
    spiral_product_bound,
    telescoping_identity_residual,
)
from schlicht.errors import HypothesisViolated, ParameterDomainError

from conftest import (
    draw_identity_params,
    draw_spiral_case_ii,
    draw_valid_params,
)

STARLIKE = ClassParams(1, 0, 1, -1)
CONVEX = ClassParams(1, 1, 1, -1)


class TestCoefficientBound:
    def test_starlike_case_ii_value(self):
        result = coefficient_bound(STARLIKE, 5)
        assert result.case_tag == "II"
        assert result.sharp == "true"
        assert result.value == pytest.approx(5.0, abs=1e-12)

    def test_convex_value_one(self):
        result = coefficient_bound(CONVEX, 7)
        assert result.value == pytest.approx(1.0, abs=1e-12)

    def test_case_i_value(self):
        result = coefficient_bound(ClassParams(-0.5, 0, 1, -1), 3)
        assert result.case_tag == "I"
        assert result.value == pytest.approx(0.5, abs=1e-14)

    def test_case_iii_reports_unknown_sharpness(self):
        result = coefficient_bound(ClassParams(2j, 0, 1, 0), 6)
        assert result.case_tag == "III"
        assert result.crossover_k == 3
        assert result.sharp == "unknown"

    def test_classical_anchors_to_fifty(self):
        for n in range(2, 51):
            assert coefficient_bound(STARLIKE, n).value == pytest.approx(
                float(n), abs=1e-9
            )
            assert coefficient_bound(CONVEX, n).value == pytest.approx(
                1.0, abs=1e-9
            )


class TestCauchyEuler:
    def test_factor_small_case(self):
        ce = CauchyEulerParams(2, 0.0)
        assert cauchy_euler_factor(ce, 2) == pytest.approx(1.0 / 3.0, abs=1e-15)
        result = coefficient_bound_cauchy_euler(STARLIKE, ce, 2)
        assert result.value == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_factor_matches_closed_form_order_two(self):
        ce = CauchyEulerParams(2, 0.75)
        for n in range(2, 12):
            expected = ((ce.mu + 1) * (ce.mu + 2)) / ((ce.mu + n) * (ce.mu + n + 1))
            assert cauchy_euler_factor(ce, n) == pytest.approx(expected, rel=1e-14)

    def test_factor_tends_to_one_for_large_mu(self):
        assert cauchy_euler_factor(CauchyEulerParams(2, 1e9), 2) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_transfer_shrinks_bound(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            p = draw_valid_params(rng)
            ce = CauchyEulerParams(int(rng.integers(2, 6)), float(rng.uniform(-0.9, 4)))
            for n in (2, 5, 9):
                assert (
                    coefficient_bound_cauchy_euler(p, ce, n).value
                    <= coefficient_bound(p, n).value
                )


class TestTelescopingIdentity:
    def test_m_two_is_exact(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            assert telescoping_identity_residual(draw_valid_params(rng), 2) == 0.0

    def test_starlike_m_five(self):
        assert telescoping_identity_residual(STARLIKE, 5) <= 1e-12

    def test_imaginary_gamma_small_coefficients(self):
        # |gamma*(A-B) - B| = |i + 1/2| >= 1, so m=3 is admissible; at m=4
        # the hypothesis |i + 1| >= 2 fails and the check must refuse
        p = ClassParams(1j, 0, 0.5, -0.5)
        assert telescoping_identity_residual(p, 3) <= 1e-12
        with pytest.raises(HypothesisViolated):
            telescoping_identity_residual(p, 4)

    def test_residual_500_draws(self):
        rng = np.random.default_rng(16)
        for _ in range(500):
            p, m = draw_identity_params(rng, m_max=12)
            assert telescoping_identity_residual(p, m) <= 1e-10

    def test_hypothesis_violation_raises(self):
        # gamma*(A-B) = -1 sits at distance |-1 + 3B...| small for m=5
        p = ClassParams(-0.5, 0, 1, -1)
        with pytest.raises(HypothesisViolated):
            telescoping_identity_residual(p, 5)


class TestSpiralProductBound:
    def test_zero_angle_starlike_value(self):
        assert spiral_product_bound(0.0, 1.0, -1.0, 3) == pytest.approx(3.0, abs=1e-14)

    def test_zero_angle_matches_reduction_everywhere(self):
        for n in range(2, 21):
            assert spiral_product_bound(0.0, 1.0, -1.0, n) == pytest.approx(
                coefficient_bound(STARLIKE, n).value, abs=1e-12
            )

    def test_quarter_angle_first_coefficient(self):
        value = spiral_product_bound(math.pi / 4, 1.0, -1.0, 2)
        assert value == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_cross_check_case_ii_draws(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            beta, a, b, n = draw_spiral_case_ii(rng)
            assert spiral_bound_cross_check(beta, a, b, n) <= 1e-12

    def test_cross_check_requires_case_ii(self):
        # beta near pi/2 shrinks gamma, and with B=0 the margins are
        # |gamma| - (k-1) < 0 from the start: case I, so the check refuses
        with pytest.raises(HypothesisViolated):
            spiral_bound_cross_check(1.55, 1.0, 0.0, 8)

    def test_domain_validation(self):
        with pytest.raises(ParameterDomainError):
            spiral_product_bound(2.0, 1.0, -1.0, 3)
        with pytest.raises(ParameterDomainError):
            spiral_product_bound(0.0, -1.0, 1.0, 3)


class TestSubclassBounds:
    def test_starlike_gamma_case_i(self):
        result = coefficient_bound(reduce_subclass("Sstar", gamma=-0.5).params, 4)
        assert result.case_tag == "I"
        assert result.value == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_convex_gamma_value_one(self):
        result = coefficient_bound(reduce_subclass("C", gamma=1.0).params, 6)
        assert result.value == pytest.approx(1.0, abs=1e-12)

    def test_m_class_boundary_tie_value(self):
        # beta=2 puts the first margin exactly at zero; the tie classifies II
        # and both formulas give 2|gamma|/(n-1) = 1
        result = coefficient_bound(reduce_subclass("M", beta=2.0).params, 3)
        assert result.case_tag == "II"
        assert result.value == pytest.approx(1.0, abs=1e-14)
        p = ClassParams(-1, 0, 1, -1)
        assert case_i_value(p, 3) == pytest.approx(result.value, abs=1e-14)

    def test_b_class_uses_order_two_transfer(self):
        red = reduce_subclass("B", gamma=1.0, lam=0.0, beta=0.0, mu=0.0)
        result = coefficient_bound_cauchy_euler(*red, 2)
        assert result.value == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_sc_matches_direct_reduction(self):
        direct = coefficient_bound(ClassParams(0.5j, 0.25, 0.5, -1), 5)
        red = reduce_subclass("Sc", gamma=0.5j, lam=0.25, beta=0.25)
        via_name = coefficient_bound(red.params, 5)
        assert via_name.value == pytest.approx(direct.value, rel=1e-15)


def test_third_coefficient_anchor_2000_draws():
    # a_3 = (base/(2*(1+2*lambda)))*(c_2 - (B - base)*c_1^2) with
    # base = gamma*(A-B), and |c_2 - mu*c_1^2| <= max(1, |mu|) over Schwarz
    # functions (Keogh and Merkes, Proc. AMS 20, 1969), attained by omega = z
    # when |mu| >= 1 and by omega = z^2 otherwise: an independent check of
    # the bound at n = 3 and of its attainment
    rng = np.random.default_rng(0)
    for _ in range(2000):
        p = draw_valid_params(rng)
        base = p.product_base()
        sharp = abs(base) * max(1.0, abs(base - p.b)) / (2.0 * (1.0 + 2.0 * p.lam))
        assert coefficient_bound(p, 3).value == pytest.approx(sharp, rel=1e-15, abs=0.0)
        attained = max(abs(member_from_schwarz(omega, p, 3).coefficient(3))
                       for omega in (identity(1), monomial(1.0, 2, 2)))
        assert attained == pytest.approx(sharp, rel=1e-15, abs=0.0)


class TestCaseBoundaryContinuity:
    def test_identities_500_draws(self):
        rng = np.random.default_rng(18)
        for _ in range(500):
            p = draw_valid_params(rng)
            n = int(rng.integers(3, 17))
            at_top = case_iii_value(p, n, n - 1)
            ii = case_ii_value(p, n)
            assert abs(at_top - ii) <= 1e-14 * max(1.0, abs(ii))
            at_bottom = case_iii_value(p, n, 1)
            i = case_i_value(p, n)
            assert abs(at_bottom - i) <= 1e-14 * max(1.0, abs(i))

    def test_adjacent_crossovers_agree_on_zero_margin(self):
        # margin zero at k=3 for gamma*(A-B)=2i: values at k=3 and k=2 agree
        p = ClassParams(2j, 0, 1, 0)
        assert case_iii_value(p, 6, 3) == pytest.approx(
            case_iii_value(p, 6, 2), rel=1e-14
        )


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: case_iii_value(STARLIKE, 5, 0), "crossover k=0 outside 1..4",
                 id="k-low"),
    pytest.param(lambda: case_iii_value(STARLIKE, 5, 5), "crossover k=5 outside 1..4",
                 id="k-high"),
    pytest.param(lambda: telescoping_identity_residual(STARLIKE, 1),
                 "m must be >= 2, got 1", id="telescoping-m"),
    pytest.param(lambda: spiral_product_bound(0.3, 1.0, -1.0, 1),
                 "index n must be >= 2, got 1", id="spiral-n"),
])
def test_refusals(call, message):
    with pytest.raises(ParameterDomainError) as info:
        call()
    assert type(info.value) is ParameterDomainError and message in str(info.value)


@pytest.mark.parametrize("n", [1, 0, -1])
def test_paper_formulas_refuse_an_index_below_two(n):
    # unchecked, case_ii_value(CONVEX, 1) would return 1.0, n = 0 would divide
    # by zero and n = -1 index past the running products
    for call in (lambda: case_i_value(CONVEX, n),
                 lambda: case_i_value(CONVEX, np.array([5.0, n, 3.0])),
                 lambda: case_ii_value(CONVEX, n),
                 lambda: case_iii_value(CONVEX, n, 1)):
        with pytest.raises(ParameterDomainError) as info:
            call()
        assert type(info.value) is ParameterDomainError
        assert str(info.value) in (f"index n must be >= 2, got {n}",
                                   f"index n must be >= 2, got {float(n)}")

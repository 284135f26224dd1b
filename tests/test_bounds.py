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
    reduce_subclass,
    spiral_bound_cross_check,
    spiral_product_bound,
    telescoping_identity_residual,
)
from schlicht.bounds import reduction_sweep
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
        (result,) = reduction_sweep(reduce_subclass("Sstar", gamma=-0.5), 4, 4)
        assert result.case_tag == "I"
        assert result.value == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_convex_gamma_value_one(self):
        (result,) = reduction_sweep(reduce_subclass("C", gamma=1.0), 6, 6)
        assert result.value == pytest.approx(1.0, abs=1e-12)

    def test_m_class_boundary_tie_value(self):
        # beta=2 puts the first margin exactly at zero; the tie classifies II
        # and both formulas give 2|gamma|/(n-1) = 1
        (result,) = reduction_sweep(reduce_subclass("M", beta=2.0), 3, 3)
        assert result.case_tag == "II"
        assert result.value == pytest.approx(1.0, abs=1e-14)
        p = ClassParams(-1, 0, 1, -1)
        assert case_i_value(p, 3) == pytest.approx(result.value, abs=1e-14)

    def test_b_class_uses_order_two_transfer(self):
        red = reduce_subclass("B", gamma=1.0, lam=0.0, beta=0.0, mu=0.0)
        (result,) = reduction_sweep(red, 2, 2)
        assert result.value == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_sc_matches_direct_reduction(self):
        direct = coefficient_bound(ClassParams(0.5j, 0.25, 0.5, -1), 5)
        red = reduce_subclass("Sc", gamma=0.5j, lam=0.25, beta=0.25)
        (via_name,) = reduction_sweep(red, 5, 5)
        assert via_name.value == pytest.approx(direct.value, rel=1e-15)


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

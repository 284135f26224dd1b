"""Parameter validation, margin sequences, classification, reductions."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schlicht import (
    CauchyEulerParams,
    ClassParams,
    case_margin_sequence,
    classify_case,
    reduce_subclass,
    spiral_gamma,
)
from schlicht.errors import ParameterDomainError
from conftest import draw_valid_params, spiral_gamma_closed_form


class TestValidation:
    def test_gamma_zero_rejected(self):
        with pytest.raises(ParameterDomainError):
            ClassParams(0, 0, 1, -1)

    def test_lambda_range(self):
        with pytest.raises(ParameterDomainError):
            ClassParams(1, -0.1, 1, -1)
        with pytest.raises(ParameterDomainError):
            ClassParams(1, 1.1, 1, -1)

    def test_moebius_coefficients_ordered(self):
        with pytest.raises(ParameterDomainError):
            ClassParams(1, 0, -0.5, 0.5)
        with pytest.raises(ParameterDomainError):
            ClassParams(1, 0, 1, -1.5)
        with pytest.raises(ParameterDomainError):
            ClassParams(1, 0, 1.2, -1)

    def test_equal_endpoints_rejected(self):
        with pytest.raises(ParameterDomainError):
            ClassParams(1, 0, 0.5, 0.5)

    def test_cauchy_euler_domain(self):
        with pytest.raises(ParameterDomainError):
            CauchyEulerParams(1, 0.0)
        with pytest.raises(ParameterDomainError):
            CauchyEulerParams(2, -1.0)
        ce = CauchyEulerParams(2, 0.0)
        assert (ce.m, ce.mu) == (2, 0.0)

    def test_json_round_trip(self):
        p = ClassParams(0.5 - 0.25j, 0.75, 0.8, -0.6)
        assert ClassParams.from_json_dict(p.to_json_dict()) == p


class TestMarginSequence:
    def test_starlike_margins_constant_two(self):
        p = ClassParams(1, 0, 1, -1)
        assert case_margin_sequence(p, 6) == pytest.approx([2, 2, 2, 2])

    def test_case_i_margins(self):
        p = ClassParams(-0.5, 0, 1, -1)
        assert case_margin_sequence(p, 5) == pytest.approx([-1, -1, -1])

    def test_imaginary_gamma_margins(self):
        # gamma*(A-B) = 2i gives margins |2i| - (k-1) = 2 - (k-1)
        p = ClassParams(2j, 0, 1, 0)
        assert case_margin_sequence(p, 6) == pytest.approx([1, 0, -1, -2])

    def test_empty_for_n_two(self):
        assert case_margin_sequence(ClassParams(1, 0, 1, -1), 2) == []


class TestClassification:
    def test_all_positive_is_case_ii(self):
        cls = classify_case(ClassParams(1, 0, 1, -1), 10)
        assert cls.case_tag == "II" and cls.crossover_k is None

    def test_first_negative_is_case_i(self):
        cls = classify_case(ClassParams(-0.5, 0, 1, -1), 5)
        assert cls.case_tag == "I"

    def test_crossover_case_iii(self):
        cls = classify_case(ClassParams(2j, 0, 1, 0), 6)
        assert cls.case_tag == "III"
        assert cls.crossover_k == 3  # margin zero at k=3, negative at k=4

    def test_zero_margin_counts_nonnegative(self):
        # gamma*(A-B) = i: margins 1-(k-1) start at exactly zero
        cls = classify_case(ClassParams(1j, 0, 1, 0), 6)
        assert cls.case_tag == "III"
        assert cls.crossover_k == 2

    def test_n_two_is_case_ii(self):
        cls = classify_case(ClassParams(-0.5, 0, 1, -1), 2)
        assert cls.case_tag == "II"

    def test_sign_prefix_property_1000_draws(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            p = draw_valid_params(rng)
            margins = case_margin_sequence(p, 20)
            seen_negative = False
            for value in margins:
                if seen_negative:
                    assert value < 0.0
                if value < 0.0:
                    seen_negative = True

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-2, 2, allow_nan=False),
        st.floats(-2, 2, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
        st.floats(-1, 0.98, allow_nan=False),
        st.floats(0.01, 2, allow_nan=False),
    )
    def test_classification_consistent_with_margins(self, g_re, g_im, lam, b, gap):
        gamma = complex(g_re, g_im)
        if abs(gamma) < 1e-6:
            gamma = 1.0
        a = min(b + gap, 1.0)
        if not b < a:
            return
        p = ClassParams(gamma, lam, a, b)
        n = 12
        cls = classify_case(p, n)
        margins = case_margin_sequence(p, n)
        if cls.case_tag == "II":
            assert margins[-1] >= 0.0
        elif cls.case_tag == "I":
            assert margins[0] < 0.0
        else:
            k = cls.crossover_k
            assert 2 <= k <= n - 2
            assert margins[k - 2] >= 0.0 and margins[k - 1] < 0.0


class TestReductions:
    def test_starlike_of_complex_order(self):
        red = reduce_subclass("Sstar", gamma=1.0)
        assert red.params == ClassParams(1, 0, 1, -1)

    def test_convex_of_complex_order(self):
        red = reduce_subclass("C", gamma=0.5j)
        assert red.params == ClassParams(0.5j, 1, 1, -1)

    def test_sc_reduction(self):
        red = reduce_subclass("Sc", gamma=1.0, lam=0.5, beta=0.25)
        assert red.params == ClassParams(1, 0.5, 0.5, -1)

    def test_b_reduction_carries_order_two_transfer(self):
        red = reduce_subclass("B", gamma=1.0, lam=0.0, beta=0.0, mu=1.5)
        assert red.cauchy_euler == CauchyEulerParams(2, 1.5)

    def test_m_reduction(self):
        red = reduce_subclass("M", beta=2.0)
        assert red.params == ClassParams(-1, 0, 1, -1)

    def test_n_reduction(self):
        red = reduce_subclass("N", beta=1.5)
        assert red.params == ClassParams(-0.5, 1, 1, -1)

    def test_sbeta_at_zero_angle(self):
        red = reduce_subclass("Sbeta", beta=0.0, a=1.0, b=-1.0)
        assert red.params == ClassParams(1, 0, 1, -1)

    def test_sp_delegates_to_sbeta(self):
        red = reduce_subclass("SP", alpha=0.3, a=1.0, b=-1.0)
        assert red.params.gamma == pytest.approx(spiral_gamma(0.3))

    def test_k_passthrough(self):
        red = reduce_subclass("K", gamma=1.0, lam=0.5, a=1.0, b=-1.0, m=3, mu=0.5)
        assert red.cauchy_euler == CauchyEulerParams(3, 0.5)

    def test_domain_errors(self):
        with pytest.raises(ParameterDomainError):
            reduce_subclass("Sc", gamma=1.0, lam=0.0, beta=1.0)
        with pytest.raises(ParameterDomainError):
            reduce_subclass("M", beta=1.0)
        with pytest.raises(ParameterDomainError):
            reduce_subclass("Sbeta", beta=math.pi / 2, a=1.0, b=-1.0)
        with pytest.raises(ParameterDomainError):
            reduce_subclass("nope", gamma=1.0)
        with pytest.raises(ParameterDomainError):
            reduce_subclass("Sstar")

    def test_spiral_gamma_identity(self):
        # 1/(1+i*tan b) = exp(-i*b)*cos(b)
        for beta in np.linspace(-1.5, 1.5, 31):
            assert abs(spiral_gamma(beta) - spiral_gamma_closed_form(beta)) < 1e-14

    def test_spiral_gamma_unit_circle_relation(self):
        beta = 0.7
        gamma = spiral_gamma(beta)
        assert abs(gamma - cmath.exp(-1j * beta) * math.cos(beta)) < 1e-15

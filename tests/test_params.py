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
    classify_case,
    fuzz_bounds,
    reduce_subclass,
    spiral_gamma,
)
from schlicht.errors import ParameterDomainError
from schlicht.jack import spiral_check
from schlicht.output import fixed_json_dumps
from schlicht.params import SUBCLASS_NAMES, SUBCLASS_PARAMS
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

    def test_json_document(self):
        p = ClassParams(0.5 - 0.25j, 0.75, 0.8, -0.6)
        doc = p.to_json_dict()
        assert doc == {"gamma": [0.5, -0.25], "lambda": 0.75, "A": 0.8, "B": -0.6}
        assert fixed_json_dumps(doc) == (
            '{"gamma":[5.00000000000000e-01,-2.50000000000000e-01],'
            '"lambda":7.50000000000000e-01,"A":8.00000000000000e-01,'
            '"B":-6.00000000000000e-01}'
        )


class TestMarginSequence:
    def test_starlike_margins_constant_two(self):
        p = ClassParams(1, 0, 1, -1)
        assert classify_case(p, 6).margins == pytest.approx([2, 2, 2, 2])

    def test_case_i_margins(self):
        p = ClassParams(-0.5, 0, 1, -1)
        assert classify_case(p, 5).margins == pytest.approx([-1, -1, -1])

    def test_imaginary_gamma_margins(self):
        # gamma*(A-B) = 2i gives margins |2i| - (k-1) = 2 - (k-1)
        p = ClassParams(2j, 0, 1, 0)
        assert classify_case(p, 6).margins == pytest.approx([1, 0, -1, -2])

    def test_empty_for_n_two(self):
        assert classify_case(ClassParams(1, 0, 1, -1), 2).margins == ()


class TestClassification:
    def test_all_positive_is_case_ii(self):
        cls = classify_case(ClassParams(1, 0, 1, -1), 10)
        assert cls.case == "II" and cls.crossover_k is None

    def test_first_negative_is_case_i(self):
        cls = classify_case(ClassParams(-0.5, 0, 1, -1), 5)
        assert cls.case == "I"

    def test_crossover_case_iii(self):
        cls = classify_case(ClassParams(2j, 0, 1, 0), 6)
        assert cls.case == "III"
        assert cls.crossover_k == 3  # margin zero at k=3, negative at k=4

    def test_zero_margin_counts_nonnegative(self):
        # gamma*(A-B) = i: margins 1-(k-1) start at exactly zero
        cls = classify_case(ClassParams(1j, 0, 1, 0), 6)
        assert cls.case == "III"
        assert cls.crossover_k == 2

    def test_n_two_is_case_ii(self):
        cls = classify_case(ClassParams(-0.5, 0, 1, -1), 2)
        assert cls.case == "II"

    def test_sign_prefix_property_1000_draws(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            p = draw_valid_params(rng)
            margins = classify_case(p, 20).margins
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
        margins = cls.margins
        if cls.case == "II":
            assert margins[-1] >= 0.0
        elif cls.case == "I":
            assert margins[0] < 0.0
        else:
            k = cls.crossover_k
            assert 2 <= k <= n - 2
            assert margins[k - 2] >= 0.0 and margins[k - 1] < 0.0


# one in-domain keyword set per subclass
VALID_KEYWORDS = {
    "S": {"gamma": 1.0, "lam": 0.0, "a": 1.0, "b": -1.0},
    "K": {"gamma": 1.0, "lam": 0.5, "a": 1.0, "b": -1.0, "m": 3, "mu": 0.5},
    "Sstar": {"gamma": 1.0},
    "C": {"gamma": 0.5j},
    "Sc": {"gamma": 1.0, "lam": 0.5, "beta": 0.25},
    "B": {"gamma": 1.0, "lam": 0.0, "beta": 0.0, "mu": 1.5},
    "M": {"beta": 2.0},
    "N": {"beta": 1.5},
    "Sbeta": {"beta": 0.0, "a": 1.0, "b": -1.0},
    "SP": {"alpha": 0.3, "a": 1.0, "b": -1.0},
}
ALL_KEYWORDS = ("gamma", "lam", "a", "b", "beta", "alpha", "m", "mu")


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

    @pytest.mark.parametrize("name", SUBCLASS_NAMES)
    def test_keyword_outside_or_missing_from_the_class_is_refused(self, name):
        valid = VALID_KEYWORDS[name]
        assert tuple(valid) == SUBCLASS_PARAMS[name]
        reduce_subclass(name, **valid)
        extra = next(key for key in ALL_KEYWORDS if key not in valid)
        with pytest.raises(ParameterDomainError, match=f"does not take '{extra}'$"):
            reduce_subclass(name, **valid, **{extra: 0.5})
        first, *rest = valid
        with pytest.raises(ParameterDomainError, match=f"is missing '{first}'$"):
            reduce_subclass(name, **{key: valid[key] for key in rest})

    def test_missing_keywords_are_reported_before_extra_ones(self):
        with pytest.raises(
            ParameterDomainError, match="subclass 'S' is missing 'lam', 'b'"
        ):
            reduce_subclass("S", gamma=1.0, a=1.0, beta=0.5)

    def test_spiral_gamma_identity(self):
        # 1/(1+i*tan b) = exp(-i*b)*cos(b)
        for beta in np.linspace(-1.5, 1.5, 31):
            assert abs(spiral_gamma(beta) - spiral_gamma_closed_form(beta)) < 1e-14

    def test_spiral_gamma_unit_circle_relation(self):
        beta = 0.7
        gamma = spiral_gamma(beta)
        assert abs(gamma - cmath.exp(-1j * beta) * math.cos(beta)) < 1e-15


@pytest.mark.parametrize("gamma, lam, a, b", [
    (complex(math.inf, 0), 0.0, 1.0, -1.0),
    (complex(1, math.nan), 0.0, 1.0, -1.0),
    (1.0, math.nan, 1.0, -1.0),
    (1.0, 0.0, math.inf, -1.0),
    (1.0, 0.0, 1.0, -math.inf),
])
def test_non_finite_parameters_refused(gamma, lam, a, b):
    with pytest.raises(ParameterDomainError) as info:
        ClassParams(gamma, lam, a, b)
    assert type(info.value) is ParameterDomainError
    assert "parameters must be finite" in str(info.value)


@pytest.mark.parametrize("count", [0, -3])
@pytest.mark.parametrize("call", [
    pytest.param(lambda count: fuzz_bounds(ClassParams(1, 0, 1, -1), 5, count, 0), id="fuzz"),
    pytest.param(lambda count: spiral_check(0.3, 0, count, 4, 8, 0.9, 16), id="spiral"),
])
def test_sample_count_refused_by_the_one_rule(call, count):
    # the fuzzer and the spiral check both refuse through params.check_samples
    with pytest.raises(ParameterDomainError) as info:
        call(count)
    assert str(info.value) == f"samples must be >= 1, got {count}"

"""Index sweeps against the per-index formulas they replace.

column_case_sweep and reduction_columns classify and bound a whole range
lo..hi in one pass; the references in conftest evaluate each n on its
own, as the package did before the sweeps, and so do the one-index forms
classify_case, coefficient_bound and coefficient_bound_cauchy_euler, one
call per n.  Values must agree to the last bit, and against exact
rational products to the rounding of a product of doubles.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schlicht import (
    CauchyEulerParams,
    ClassParams,
    Reduction,
    classify_case,
    coefficient_bound,
    coefficient_bound_cauchy_euler,
    reduce_subclass,
)
from schlicht.bounds import reduction_columns
from schlicht.errors import ParameterDomainError
from schlicht.params import column_case_sweep, modulus_column

from conftest import reference_bound, reference_case, reference_cauchy_euler


def _params(g_re, g_im, lam, b, gap, scale):
    gamma = scale * complex(g_re, g_im)
    if abs(gamma) < 1e-6:
        gamma = 1.0
    return ClassParams(gamma, lam, min(b + gap, 1.0), b)


def _rows(red, lo: int, hi: int) -> list[tuple]:
    """The rows of reduction_columns(red, lo, hi), in BoundResult's field order."""
    sweep = reduction_columns(red, lo, hi)
    return list(zip(sweep.n, sweep.value.tolist(), *sweep[2:]))


@settings(max_examples=80, deadline=None)
@given(
    g_re=st.floats(-4, 4, allow_nan=False),
    g_im=st.floats(-4, 4, allow_nan=False),
    lam=st.floats(0, 1, allow_nan=False),
    b=st.one_of(st.just(-1.0), st.just(0.0), st.floats(-1, 0.98, allow_nan=False)),
    gap=st.floats(0.02, 2, allow_nan=False),
    lo=st.integers(2, 200),
    width=st.integers(0, 198),
    # larger seeds move the case-III crossover out towards n = 200
    scale=st.sampled_from([1.0, 8.0, 40.0]),
)
# zero margins: gamma*(A-B) = 2i with B = 0 gives A_3 = 0 exactly
@example(g_re=0.0, g_im=2.0, lam=0.5, b=0.0, gap=1.0, lo=2, width=20, scale=1.0)
# gamma*(A-B) = i: the first margin is zero, case III with crossover 2
@example(g_re=0.0, g_im=1.0, lam=0.0, b=0.0, gap=1.0, lo=2, width=10, scale=1.0)
# B = -1 crossing with a zero margin: gamma*(A-B) = -4, A_k = |k-5| - (k-1)
@example(g_re=-2.0, g_im=0.0, lam=0.25, b=-1.0, gap=2.0, lo=2, width=40, scale=1.0)
# B = -1 crossing through complex gamma: gamma*(A-B) = -3 + 0.5i
@example(g_re=-1.5, g_im=0.25, lam=1.0, b=-1.0, gap=2.0, lo=3, width=60, scale=1.0)
# gamma*(A-B) = 57.5i with B = 0: crossover 58 from n = 60 on
@example(g_re=0.0, g_im=1.4375, lam=0.5, b=0.0, gap=1.0, lo=2, width=198, scale=40.0)
def test_sweep_is_bit_equal_to_per_index_formulas(
    g_re, g_im, lam, b, gap, lo, width, scale
):
    p = _params(g_re, g_im, lam, b, gap, scale)
    hi = min(lo + width, 200)
    margins = column_case_sweep(modulus_column(p.product_base(), p.b, hi - 1), lo, hi)[0]
    rows = _rows(Reduction(p), lo, hi)
    # one one-index call per n, each on its own column
    assert rows == [coefficient_bound(p, n) for n in range(lo, hi + 1)]
    for n, (_, value, case, k, _) in zip(range(lo, hi + 1), rows):
        ref_case, ref_k, ref_margins = reference_case(p, n)
        assert (case, k) == (ref_case, ref_k)
        assert margins[: n - 2].tolist() == ref_margins
        assert classify_case(p, n) == (case, k, tuple(ref_margins))
        assert value == reference_bound(p, n)[2]


def test_cauchy_euler_sweep_applies_the_transfer_per_row(rng):
    # K with m = 2..4, and B, whose transfer has order 2
    for draw in range(40):
        gamma = complex(*rng.uniform(-2, 2, 2))
        if draw % 2:
            red = reduce_subclass("B", gamma=gamma, lam=rng.uniform(),
                                  beta=rng.uniform(0, 0.99), mu=rng.uniform(-0.5, 2))
        else:
            red = Reduction(ClassParams(gamma, rng.uniform(), 1.0, -1.0),
                            CauchyEulerParams(int(rng.integers(2, 5)), rng.uniform(-0.5, 2)))
        p, ce = red.params, red.cauchy_euler
        rows = _rows(red, 2, 60)
        assert rows == [coefficient_bound_cauchy_euler(p, ce, n) for n in range(2, 61)]
        for n, (_, value, tag, crossover_k, _) in zip(range(2, 61), rows):
            case, k, _ = reference_bound(p, n)
            assert (tag, crossover_k) == (case, k)
            assert value == reference_cauchy_euler(p, ce, n)


def test_overflowing_products_stay_inf_under_raised_errors():
    # the CLI's numpy state: the Python-float products overflow to inf
    # without raising, and those rows reach the writer, which refuses them
    p = ClassParams(1000, 0, 1, -1)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        rows = _rows(Reduction(p), 2, 300)
    assert math.isinf(rows[-1][1])
    for n, (_, value, case, k, _) in zip(range(2, 301), rows):
        assert (case, k, value) == reference_bound(p, n)


def _exact_bound(base: Fraction, p: ClassParams, case: str, k, n: int, ii, iii):
    lam, b = Fraction(p.lam), Fraction(p.b)
    weight = 1 + lam * (n - 1)
    if case == "I":
        return abs(Fraction(p.gamma.real)) * (Fraction(p.a) - b) / ((n - 1) * weight)
    if case == "II":
        return ii[n - 1] / weight
    return iii[k] / ((n - 1) * weight)


def test_rational_gamma_against_exact_products():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(60):
        gamma = Fraction(int(rng.integers(1, 25)) * int(rng.choice([-1, 1])),
                         int(rng.integers(1, 13)))
        b8 = int(rng.integers(-8, 8))
        a8 = int(rng.integers(b8 + 1, 9))
        p = ClassParams(float(gamma), float(rng.choice([0.0, 0.25, 0.3, 1.0])),
                        a8 / 8, b8 / 8)
        # the products start from the double seed the package computes with
        base = Fraction(p.product_base().real)
        b = Fraction(p.b)
        ii, iii = [Fraction(1)], [Fraction(1)]
        for j in range(150):
            ii.append(ii[-1] * abs(base - j * b) / (j + 1))
            iii.append(iii[-1] * abs(base - j * b) / max(j, 1))
        for n, value, case, k, _ in _rows(Reduction(p), 2, 150):
            exact = _exact_bound(base, p, case, k, n, ii, iii)
            if exact == 0:
                assert value == 0.0
                continue
            worst = max(worst, float(abs(Fraction(value) - exact) / exact))
    assert worst <= 1e-14


@pytest.mark.parametrize("lo, hi", [(0, 5), (1, 1), (-3, 2)])
def test_sweep_refuses_indices_below_two(lo, hi):
    p = ClassParams(1, 0, 1, -1)
    with pytest.raises(ParameterDomainError, match="index n must be >= 2"):
        column_case_sweep(modulus_column(p.product_base(), p.b, hi - 1), lo, hi)
    with pytest.raises(ParameterDomainError, match="index n must be >= 2"):
        reduction_columns(Reduction(p), lo, hi)

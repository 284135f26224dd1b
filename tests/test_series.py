"""Series value type: division examples, round trips, evaluation, the one
row recurrence (the division, and the log-derivative solve as a division
with a diagonal) against 1-D reference loops, the band-blocked quotient
against the full-width division, and the traced product, log, exponential
and power."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schlicht import ComplexSeries, identity, monomial, solve_log_derivative
from schlicht.errors import (
    BranchPointAtOrigin,
    DivisionByNonUnit,
    NormalizationError,
    ParameterDomainError,
    RadiusOutOfRange,
)
from schlicht.series import (
    UNIT_TOLERANCE,
    _row_div,
    _row_log_derivative,
    circle_values,
)

from conftest import (
    binomial_series,
    max_norm_error,
    quotient_divisors,
    reference_div,
    reference_exp0,
    reference_log_derivative,
)


def geometric(order: int) -> ComplexSeries:
    return ComplexSeries([1.0] * (order + 1))


def max_abs_diff(s: ComplexSeries, t: ComplexSeries) -> float:
    n = min(s.order, t.order)
    a = np.array(s.coeffs[: n + 1])
    b = np.array(t.coeffs[: n + 1])
    return float(np.max(np.abs(a - b)))


def random_series(rng, order, radius=1.0, unit_constant=False):
    c = radius * (rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1))
    if unit_constant:
        c[0] = 1.0
    return ComplexSeries(c)


class TestArithmeticExamples:
    def test_equality_compares_order_and_coefficients(self):
        s = ComplexSeries([0.5, 1j, -2])
        assert s == ComplexSeries([0.5, 1j, -2])
        assert s != ComplexSeries([0.5, 1j, -2, 0])
        assert s != ComplexSeries([0.5, 1j, 2])

    def test_mul_difference_of_squares(self):
        prod = ComplexSeries([1, 1, 0]).mul(ComplexSeries([1, -1, 0]))
        assert prod.coeffs == (1, 0, -1)

    def test_mul_inverse_of_geometric(self):
        prod = geometric(8).mul(ComplexSeries([1, -1] + [0] * 7))
        assert max_abs_diff(prod, monomial(1, 0, 8)) == 0.0

    def test_koebe_coefficients(self):
        # z/(1-z)^2 has the coefficients n
        koebe = identity(6).div(ComplexSeries([1, -2, 1, 0, 0, 0, 0]))
        for n in range(1, 6):
            assert koebe.coefficient(n) == pytest.approx(n, abs=1e-14)

    def test_div_geometric(self):
        q = monomial(1, 0, 8).div(ComplexSeries([1, -1] + [0] * 7))
        assert max_abs_diff(q, geometric(8)) < 1e-14

    def test_div_self(self):
        s = ComplexSeries([1, 0.3 + 0.1j, -0.5, 0.25])
        assert max_abs_diff(s.div(s), monomial(1, 0, 3)) < 1e-14

    def test_div_alternating(self):
        q = identity(6).div(ComplexSeries([1, 1, 0, 0, 0, 0, 0]))
        expected = ComplexSeries([0, 1, -1, 1, -1, 1, -1])
        assert max_abs_diff(q, expected) < 1e-14

    def test_div_by_nonunit_rejected(self):
        with pytest.raises(DivisionByNonUnit):
            monomial(1, 0, 3).div(identity(3))


class TestTranscendental:
    def test_powc_inverse_square(self):
        out = ComplexSeries([1, -1] + [0] * 6).powc(-2)
        for k in range(7):
            assert out.coefficient(k) == pytest.approx(k + 1, abs=1e-12)

    def test_powc_reciprocal(self):
        out = ComplexSeries([1, 1] + [0] * 5).powc(-1)
        expected = ComplexSeries([(-1.0) ** k for k in range(7)])
        assert max_abs_diff(out, expected) < 1e-13

    def test_powc_complex_exponent_matches_binomial_recurrence(self):
        # (1-z)^(-2i) against the independent binomial oracle
        out = ComplexSeries([1, -1] + [0] * 14).powc(-2j)
        oracle = ComplexSeries(binomial_series(-2j, -1, 15))
        assert max_abs_diff(out, oracle) < 1e-12

    def test_branch_point_rejected(self):
        with pytest.raises(BranchPointAtOrigin):
            identity(4).powc(0.5)
        with pytest.raises(BranchPointAtOrigin):
            identity(4).log1()
        with pytest.raises(BranchPointAtOrigin):
            monomial(1, 0, 4).exp0()

    def test_log_exp_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = random_series(rng, 32, radius=0.5, unit_constant=True)
            back = s.log1().exp0()
            assert max_abs_diff(back, s) < 1e-12


class TestCalculusAndEval:
    def test_eval_constant(self):
        vals = monomial(1, 0, 4).eval_on_circle(0.5, 16)
        assert np.max(np.abs(vals - 1.0)) == 0.0

    def test_eval_identity(self):
        vals = identity(4).eval_on_circle(0.5, 8)
        assert vals[0] == pytest.approx(0.5, abs=1e-15)

    def test_eval_scaled_rotation_sup(self):
        vals = monomial(0.9, 1, 4).eval_on_circle(0.99, 64)
        assert np.max(np.abs(vals)) == pytest.approx(0.891, abs=1e-12)

    def test_radius_validated(self):
        with pytest.raises(RadiusOutOfRange):
            identity(4).eval_on_circle(1.0, 8)
        with pytest.raises(RadiusOutOfRange):
            identity(4).eval_on_circle(0.0, 8)


class TestCircleValues:
    """The FFT circle grid against Horner evaluation at the same nodes."""

    @staticmethod
    def rows(order: int) -> np.ndarray:
        # f, z*f' and z^2*f'' of a series with geometric decay and random phases
        rng = np.random.default_rng(order)
        ks = np.arange(order + 1)
        c = (rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1))
        c *= 0.99**ks
        return np.array([c, c * ks, c * ks * (ks - 1)])

    @pytest.mark.parametrize("order", [4, 64, 512])
    @pytest.mark.parametrize("angles", [8, 256, 2048])
    def test_matches_horner(self, order, angles):
        # angles < order + 1 folds aliased coefficients together
        rows = self.rows(order)
        radius = 0.95
        nodes = radius * np.exp(2j * np.pi * np.arange(angles) / angles)
        fft = circle_values(rows, radius, angles)
        assert fft.shape == (3, angles)
        for got, row in zip(fft, rows):
            horner = ComplexSeries(row).eval_at(nodes)
            assert np.max(np.abs(got - horner)) <= 1e-13 * np.max(np.abs(horner))

    def test_eval_on_circle_is_one_row(self):
        row = self.rows(64)[0]
        vals = ComplexSeries(row).eval_on_circle(0.9, 100)
        assert np.array_equal(vals, circle_values(row[None, :], 0.9, 100)[0])

    @pytest.mark.parametrize("radius", [0.0, 1.0, 1.5, -0.5, float("nan")])
    def test_radius_domain(self, radius):
        with pytest.raises(RadiusOutOfRange):
            circle_values(self.rows(4), radius, 8)

    @pytest.mark.parametrize("angles", [0, -1])
    def test_angles_domain(self, angles):
        with pytest.raises(ParameterDomainError):
            circle_values(self.rows(4), 0.5, angles)

    def test_radius_error_is_a_parameter_error(self):
        assert issubclass(RadiusOutOfRange, ParameterDomainError)


class TestInvariants:
    def test_ring_distributivity_100_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            s = random_series(rng, 64)
            t = random_series(rng, 64)
            u = random_series(rng, 64)
            left = ComplexSeries(np.add(s.coeffs, t.coeffs)).mul(u)
            right = ComplexSeries(np.add(s.mul(u).coeffs, t.mul(u).coeffs))
            assert max_abs_diff(left, right) < 1e-12

    def test_div_mul_round_trip_postcondition(self):
        # tolerance scales with the largest coefficient met along the way,
        # matching the operation's contract
        rng = np.random.default_rng(8)
        for _ in range(50):
            s = random_series(rng, 64)
            t = random_series(rng, 64, unit_constant=True)
            q = s.div(t)
            back = q.mul(t)
            scale = max(
                1.0,
                float(np.max(np.abs(np.array(s.coeffs)))),
                float(np.max(np.abs(np.array(q.coeffs)))),
            )
            assert max_abs_diff(back, s) < 1e-12 * scale

    def test_div_mul_round_trip_relative(self):
        # decaying coefficients keep the quotient well-scaled; then the
        # round trip holds to 1e-10 relative per coefficient
        rng = np.random.default_rng(12)
        decay = 0.5 ** np.arange(65)
        for _ in range(100):
            s = ComplexSeries(
                decay * (rng.uniform(-1, 1, 65) + 1j * rng.uniform(-1, 1, 65))
            )
            t_c = decay * (rng.uniform(-1, 1, 65) + 1j * rng.uniform(-1, 1, 65))
            t_c[0] = 1.0
            t = ComplexSeries(t_c)
            back = s.div(t).mul(t)
            a = np.array(s.coeffs)
            b = np.array(back.coeffs)
            assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))) < 1e-10

    def test_powc_round_trip(self):
        rng = np.random.default_rng(9)
        decay = 0.5 ** np.arange(65)
        for _ in range(100):
            c = decay * (rng.uniform(-1, 1, 65) + 1j * rng.uniform(-1, 1, 65))
            c[0] = 1.0
            s = ComplexSeries(c)
            alpha = complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0))
            back = s.powc(alpha).powc(1.0 / alpha)
            a = np.array(s.coeffs)
            b = np.array(back.coeffs)
            assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))) < 1e-10

    def test_truncation_stability(self):
        # recomputing from width 2N and truncating must be bit-identical, so
        # a coefficient never depends on the ones above it
        rng = np.random.default_rng(11)
        n = 24
        rows = 0.7 * (rng.uniform(-1, 1, (4, 2 * n + 1))
                      + 1j * rng.uniform(-1, 1, (4, 2 * n + 1)))
        rows[:, 0] = 1.0
        num, denom = rows[:2], rows[2:]
        assert np.array_equal(_row_div(num, denom)[:, : n + 1],
                              _row_div(num[:, : n + 1], denom[:, : n + 1]))
        assert np.array_equal(_row_log_derivative(rows)[:, : n + 2],
                              _row_log_derivative(rows[:, : n + 1]))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
            ),
            min_size=1,
            max_size=10,
        ),
        st.lists(
            st.tuples(
                st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
            ),
            min_size=1,
            max_size=10,
        ),
    )
    def test_mul_commutes(self, cs, ds):
        s = ComplexSeries([complex(re, im) for re, im in cs])
        t = ComplexSeries([complex(re, im) for re, im in ds])
        assert max_abs_diff(s.mul(t), t.mul(s)) < 1e-13


class TestSolveLogDerivative:
    def test_geometric_target_gives_koebe(self):
        # q = (1+z)/(1-z) drives z f' = f q to the coefficients a_n = n
        q = ComplexSeries([1] + [2] * 7)
        f = solve_log_derivative(q)
        for n in range(1, 9):
            assert f.coefficient(n) == pytest.approx(n, abs=1e-12)

    def test_unit_target_gives_identity(self):
        f = solve_log_derivative(monomial(1, 0, 6))
        assert max_abs_diff(f, identity(7)) == 0.0


def decaying_series(rng, order, rate=0.3, constant_term=1.0):
    """Coefficients of size <= sqrt(2)*rate^k, so a unit-constant divisor
    has no zero in the closed disk and every recurrence stays bounded."""
    c = rate ** np.arange(order + 1) * (
        rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1)
    )
    c[0] = constant_term
    return ComplexSeries(c)


class TestRecurrencesMatchOneDimensionalLoops:
    """div and solve_log_derivative are one-row calls of the one recurrence,
    _row_div, the solve through _row_log_derivative's diagonal, and exp0
    runs the solve; the 1-D np.dot loops they replaced are the references,
    for the solve with the jack builders' divisors (k-1)/k too."""

    @pytest.mark.parametrize("order", [1, 2, 17, 64, 512])
    def test_div_is_bit_equal(self, order):
        rng = np.random.default_rng(order)
        s = decaying_series(rng, order, constant_term=0.4 - 0.2j)
        t = decaying_series(rng, order, constant_term=0.8 + 0.5j)
        assert np.array_equal(s.div(t).coeffs, reference_div(s.coeffs, t.coeffs))

    @pytest.mark.parametrize("order", [1, 2, 17, 64, 512])
    def test_solve_log_derivative_is_bit_equal(self, order):
        q = decaying_series(np.random.default_rng(order + 1), order)
        f = solve_log_derivative(q)
        assert np.array_equal(f.coeffs, reference_log_derivative(q.coeffs))

    @pytest.mark.parametrize("order", [1, 2, 17, 64, 512])
    def test_weighted_log_derivative_is_bit_equal(self, order):
        # the jack builders' divisors (k-1)/k on one row
        q = decaying_series(np.random.default_rng(order + 3), order)
        divisors = quotient_divisors(order + 2)
        f = _row_log_derivative(np.array([q.coeffs]), divisors)[0]
        assert np.array_equal(f, reference_log_derivative(q.coeffs, divisors))

    @pytest.mark.parametrize("order", [1, 2, 17, 64, 512])
    def test_exp0_within_max_norm(self, order):
        w = decaying_series(np.random.default_rng(order + 2), order, constant_term=0.0)
        assert max_norm_error(w.exp0().coeffs, reference_exp0(w.coeffs)) <= 1e-15


class TestOneRowMatchesTheStack:
    """A one-row call of the recurrence steps on 1-D views; each row of a
    multi-row call must equal its one-row call bit for bit, and a division
    row, with or without an arbitrary diagonal, the 1-D reference loop's."""

    ROWS = 5

    KINDS = ["decaying", "ratio", "diagonal", "unit"]

    @pytest.mark.parametrize("width", [1, 2, 3, 64, 513])
    @pytest.mark.parametrize("kind", KINDS)
    def test_div(self, kind, width):
        self.check_div(kind, width, self.ROWS)

    @pytest.mark.parametrize("width", [11, 21])
    @pytest.mark.parametrize("kind", KINDS)
    def test_div_at_the_fuzz_shape(self, kind, width):
        # the fuzz workload's member stacks: 200 samples at n_max 10 and 20
        self.check_div(kind, width, 200)

    @staticmethod
    def check_div(kind, width, rows):
        rng = np.random.default_rng((width, len(kind)))
        diagonal = None
        if kind == "ratio":  # reciprocals, whose tails reach the subnormals
            num = unit_rows(rows, width)
            denom = ratio_divisors(rows, width)
        else:
            num, denom = (
                np.array([decaying_series(rng, width - 1, constant_term=c).coeffs
                          for _ in range(rows)])
                for c in (0.4 - 0.2j, 0.8 + 0.5j)
            )
        if kind == "unit":  # the log-derivative solve's numerator, steps without a subtract
            num = unit_rows(rows, width)
        if kind in ("diagonal", "unit"):  # non-constant complex w_k in place of denom_0
            diagonal = rng.uniform(1.0, 2.0, width) * np.exp(2j * np.pi * rng.random(width))
        stack = _row_div(num, denom, diagonal)
        for i, row in enumerate(stack):
            assert np.array_equal(_row_div(num[i : i + 1], denom[i : i + 1], diagonal)[0], row)
            assert np.array_equal(reference_div(num[i], denom[i], diagonal), row)

    @pytest.mark.parametrize("width", [1, 2, 3, 64, 513])
    @pytest.mark.parametrize("kind", ["decaying", "ratio"])
    def test_log_derivative(self, kind, width):
        rng = np.random.default_rng((width, len(kind)))
        if kind == "ratio":
            q = _row_div(unit_rows(self.ROWS, width), ratio_divisors(self.ROWS, width))
        else:
            q = np.array([decaying_series(rng, width - 1).coeffs for _ in range(self.ROWS)])
        stack = _row_log_derivative(q)
        for i, row in enumerate(stack):
            assert np.array_equal(_row_log_derivative(q[i : i + 1])[0], row)

    @pytest.mark.parametrize("width", [1, 2, 3, 64, 513])
    def test_weighted_log_derivative(self, width):
        # every row of a stack with the divisors (k-1)/k is the 1-D
        # reference loop's, and its one-row call's
        rng = np.random.default_rng((width, 7))
        q = np.array([decaying_series(rng, width - 1).coeffs for _ in range(self.ROWS)])
        divisors = quotient_divisors(width + 1)
        stack = _row_log_derivative(q, divisors)
        for i, row in enumerate(stack):
            assert np.array_equal(reference_log_derivative(q[i], divisors), row)
            assert np.array_equal(_row_log_derivative(q[i : i + 1], divisors)[0], row)

    @pytest.mark.parametrize("width", [1, 2, 3, 513])
    @pytest.mark.parametrize("rows", [1, ROWS])
    @pytest.mark.parametrize("unit", [True, False])
    @pytest.mark.parametrize("weighted", [True, False])
    def test_inputs_are_left_alone(self, weighted, unit, rows, width):
        # a unit numerator negates the reversed divisor's copy, which at
        # width 1 a contiguous reversal would return as a view of denom
        rng = np.random.default_rng((width, rows))
        num, denom = (np.array([decaying_series(rng, width - 1, constant_term=c).coeffs
                                for _ in range(rows)]) for c in (0.4 - 0.2j, 0.8 + 0.5j))
        if unit:
            num = unit_rows(rows, width)
        diagonal = rng.uniform(1.0, 2.0, width) * np.exp(2j * np.pi * rng.random(width))
        q = np.array([decaying_series(rng, width - 1).coeffs for _ in range(rows)])
        divisors = quotient_divisors(width + 1) if weighted else None
        inputs = [num, denom, diagonal, q]
        before = [a.copy() for a in inputs]
        _row_div(num, denom, diagonal if weighted else None)
        _row_log_derivative(q, divisors)
        # a band view of denom; a unit numerator is zero past the first
        # block, so that step negates the reach, which must be a copy
        _row_div(num, denom[:, :3])
        for got, expected in zip(inputs, before):
            assert got.tobytes() == expected.tobytes()

    def test_one_row_refusals(self):
        unit = unit_rows(1, 8)
        with pytest.raises(DivisionByNonUnit):
            _row_div(unit, unit * 1e-15)
        with pytest.raises(DivisionByNonUnit):  # a diagonal is the divisor
            _row_div(unit, unit, np.where(np.arange(8) == 5, 1e-15, 1.0 + 1j))
        with pytest.raises(NormalizationError):
            _row_log_derivative(unit * 0.5)
        # a divisor constant of modulus exactly UNIT_TOLERANCE is refused,
        # twice it is divided by
        with pytest.raises(DivisionByNonUnit):
            _row_div(unit, unit * UNIT_TOLERANCE)
        assert np.array_equal(_row_div(unit, unit * 2e-14), unit * (1.0 / 2e-14))

    def test_ratio_rows_reach_subnormals(self):
        # the "ratio" cases above really exercise subnormal tails
        tiny = np.finfo(np.float64).tiny
        for rows in (1, 10):
            d = ratio_divisors(rows, 513)
            loop = np.abs(_row_log_derivative(_row_div(unit_rows(rows, 513), d)))
            assert np.all(np.any((loop > 0.0) & (loop < tiny), axis=1))


def schwarz_like_rows(rng, rows: int, width: int, scale: float) -> np.ndarray:
    """Rows scale*z*(c_0 + ... + c_3 z^3) truncated to width, with
    sum_j |c_j| = 1, so every row is bounded by scale on the closed disk."""
    out = np.zeros((rows, width), dtype=np.complex128)
    c = rng.standard_normal((rows, 4)) + 1j * rng.standard_normal((rows, 4))
    c *= scale / np.sum(np.abs(c), axis=1, keepdims=True)
    out[:, 1:5] = c[:, : width - 1]
    return out


def ratio_divisors(rows: int, width: int) -> np.ndarray:
    """Rows 1 - sum_k b*omega_k z^k/k, the quotient ratio's denominator,
    seeded by the shape.  The reciprocal decays like (b*rho)^k and so
    passes through the subnormal range before width 513."""
    rng = np.random.default_rng((width, rows))
    d = schwarz_like_rows(rng, rows, width, rng.uniform(0.015, 0.03))
    d[:, 1:] /= -np.arange(1.0, width)
    d[:, 0] = 1.0
    return d


def unit_rows(rows: int, width: int) -> np.ndarray:
    unit = np.zeros((rows, width), dtype=np.complex128)
    unit[:, 0] = 1.0
    return unit


class TestBandQuotient:
    """A divisor with fewer columns than its numerator is a band d_0..d_m,
    divided in blocks of m: within BAND_RTOL in max-norm relative error of
    the full-width division by the zero-padded divisor, and every row of a
    batch bit-equal to its one-row call."""

    BAND_RTOL = 4e-15

    @staticmethod
    def band_rows(rows: int, band: int, width: int):
        """Numerator rows of the given width, and divisor rows d_0 + d_1 z +
        ... + d_band z^band with |d_0| = 1 and sum_{k>0} |d_k| = 0.9, seeded
        by the shape."""
        rng = np.random.default_rng((rows, band, width))
        num = rng.standard_normal((rows, width)) + 1j * rng.standard_normal((rows, width))
        denom = np.exp(2j * np.pi * rng.random((rows, band + 1)))
        tail = rng.standard_normal((rows, band)) + 1j * rng.standard_normal((rows, band))
        denom[:, 1:] = 0.9 * tail / np.sum(np.abs(tail), axis=1, keepdims=True)
        return num, denom

    @pytest.mark.parametrize("width", [1, 2, 17, 65, 513])
    @pytest.mark.parametrize("rows", [1, 10])
    @pytest.mark.parametrize("band", [1, 2, 8])
    def test_matches_the_padded_division(self, band, rows, width):
        num, denom = self.band_rows(rows, band, width)
        padded = np.zeros_like(num)
        padded[:, : min(width, band + 1)] = denom[:, :width]
        blocked = _row_div(num, denom)
        assert blocked.shape == num.shape
        for got, expected in zip(blocked, _row_div(num, padded)):
            assert max_norm_error(got, expected) <= self.BAND_RTOL

    @pytest.mark.parametrize("band", [1, 2, 8])
    def test_batch_row_is_its_one_row_call(self, band):
        num, denom = self.band_rows(10, band, 513)
        blocked = _row_div(num, denom)
        for i, row in enumerate(blocked):
            assert np.array_equal(_row_div(num[i : i + 1], denom[i : i + 1])[0], row)

    @pytest.mark.parametrize("support", ["one", "band"])
    @pytest.mark.parametrize("width", [17, 65, 513])
    @pytest.mark.parametrize("rows", [1, 10])
    @pytest.mark.parametrize("band", [1, 2, 8])
    def test_zero_tail_numerator(self, band, rows, width, support):
        # a numerator zero past the first block, as every spiral source's
        # (A+1)*omega is, steps H*((-R)*s_{K-1}) with no subtract: within
        # BAND_RTOL of the padded division, and each batch row bit-equal to
        # its one-row call
        num, denom = self.band_rows(rows, band, width)
        num[:, 1 if support == "one" else band :] = 0.0
        padded = np.zeros_like(num)
        padded[:, : band + 1] = denom
        blocked = _row_div(num, denom)
        for i, (got, expected) in enumerate(zip(blocked, _row_div(num, padded))):
            assert max_norm_error(got, expected) <= self.BAND_RTOL
            assert np.array_equal(_row_div(num[i : i + 1], denom[i : i + 1])[0], got)

    def test_refuses_a_non_unit_divisor(self):
        num, denom = self.band_rows(3, 2, 17)
        denom[1, 0] = 1e-15
        with pytest.raises(DivisionByNonUnit):
            _row_div(num, denom)


class TestSerialization:
    def test_json_round_trip(self):
        s = ComplexSeries([0, 1, 0.5 - 0.25j])
        doc = s.to_json_dict()
        assert doc["order"] == 2
        assert ComplexSeries.from_json_dict(doc) == s

    def test_json_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ComplexSeries.from_json_dict({"order": 3, "coeffs": [[0, 0], [1, 0]]})


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: solve_log_derivative(ComplexSeries([2.0, 1.0])),
                 NormalizationError, "source constant term must be 1", id="source-q0"),
    pytest.param(lambda: ComplexSeries([]), ValueError,
                 "coefficients must form a non-empty 1-d sequence", id="empty"),
    pytest.param(lambda: ComplexSeries([0.0, 1.0]).coefficient(2), IndexError,
                 "coefficient index 2 outside 0..1", id="coefficient-index"),
    pytest.param(lambda: monomial(1.0, 3, 2), ValueError,
                 "degree must lie in 0..order", id="monomial-degree"),
    pytest.param(
        lambda: ComplexSeries.from_json_dict({"order": 1, "coeffs": [[0, 0], [10**400, 0]]}),
        ParameterDomainError, "series coefficients must be finite", id="huge-integer"),
])
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and message in str(info.value)

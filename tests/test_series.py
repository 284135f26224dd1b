"""Series value type: division examples, round trips, evaluation, the two
row kernels against 1-D reference loops, the Newton kernels against the row
kernels, and the traced product, log, exponential and power."""

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
    _row_div,
    _row_log_derivative,
    _row_log_derivative_newton,
    _row_mul,
    _row_reciprocal,
    circle_values,
)

from conftest import (
    binomial_series,
    max_norm_error,
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
    """div and solve_log_derivative are one-row calls of the row kernels, and
    exp0 runs the log-derivative kernel; the 1-D np.dot loops they replaced
    are the references."""

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
    def test_exp0_within_max_norm(self, order):
        w = decaying_series(np.random.default_rng(order + 2), order, constant_term=0.0)
        assert max_norm_error(w.exp0().coeffs, reference_exp0(w.coeffs)) <= 1e-15


class TestOneRowMatchesTheStack:
    """A one-row call of a row kernel steps on 1-D views; each row of a
    multi-row call must equal its one-row call bit for bit."""

    ROWS = 5

    @pytest.mark.parametrize("width", [1, 2, 3, 64, 513])
    @pytest.mark.parametrize("kind", ["decaying", "ratio"])
    def test_div(self, kind, width):
        rng = np.random.default_rng((width, len(kind)))
        if kind == "ratio":  # reciprocals, whose tails reach the subnormals
            num = unit_rows(self.ROWS, width)
            denom = newton_divisors(kind, self.ROWS, width)
        else:
            num, denom = (
                np.array([decaying_series(rng, width - 1, constant_term=c).coeffs
                          for _ in range(self.ROWS)])
                for c in (0.4 - 0.2j, 0.8 + 0.5j)
            )
        stack = _row_div(num, denom)
        for i, row in enumerate(stack):
            assert np.array_equal(_row_div(num[i : i + 1], denom[i : i + 1])[0], row)

    @pytest.mark.parametrize("width", [1, 2, 3, 64, 513])
    @pytest.mark.parametrize("kind", ["decaying", "ratio"])
    def test_log_derivative(self, kind, width):
        rng = np.random.default_rng((width, len(kind)))
        if kind == "ratio":
            q = _row_div(unit_rows(self.ROWS, width), newton_divisors(kind, self.ROWS, width))
        else:
            q = np.array([decaying_series(rng, width - 1).coeffs for _ in range(self.ROWS)])
        stack = _row_log_derivative(q)
        for i, row in enumerate(stack):
            assert np.array_equal(_row_log_derivative(q[i : i + 1])[0], row)

    def test_one_row_refusals(self):
        unit = unit_rows(1, 8)
        with pytest.raises(DivisionByNonUnit):
            _row_div(unit, unit * 1e-15)
        with pytest.raises(NormalizationError):
            _row_log_derivative(unit * 0.5)


def schwarz_like_rows(rng, rows: int, width: int, scale: float) -> np.ndarray:
    """Rows scale*z*(c_0 + ... + c_3 z^3) truncated to width, with
    sum_j |c_j| = 1, so every row is bounded by scale on the closed disk."""
    out = np.zeros((rows, width), dtype=np.complex128)
    c = rng.standard_normal((rows, 4)) + 1j * rng.standard_normal((rows, 4))
    c *= scale / np.sum(np.abs(c), axis=1, keepdims=True)
    out[:, 1:5] = c[:, : width - 1]
    return out


def newton_divisors(kind: str, rows: int, width: int) -> np.ndarray:
    """Divisor rows with constant term 1, seeded by the shape.

    spiral: 1 + a*omega with |a| = 1 and |omega| <= 0.9 on the disk, the
    divisor of the spiral source.  ratio: 1 - sum_k b*omega_k z^k/k, the
    quotient ratio's denominator, whose reciprocal decays like (b*rho)^k
    and so passes through the subnormal range before width 513.
    """
    rng = np.random.default_rng((width, rows, len(kind)))
    if kind == "spiral":
        d = schwarz_like_rows(rng, rows, width, 0.9) * np.exp(-2j * rng.uniform(-1.2, 1.2))
    else:
        d = schwarz_like_rows(rng, rows, width, rng.uniform(0.015, 0.03))
        d[:, 1:] /= -np.arange(1.0, width)
    d[:, 0] = 1.0
    return d


def unit_rows(rows: int, width: int) -> np.ndarray:
    unit = np.zeros((rows, width), dtype=np.complex128)
    unit[:, 0] = 1.0
    return unit


class TestNewtonKernelsMatchRowKernels:
    """The whole-order kernels against the exact recurrences they stand in
    for: max-norm relative error at most NEWTON_RTOL per row, and every row
    of a batch bit-equal to its one-row call."""

    NEWTON_RTOL = 1e-14

    @pytest.mark.parametrize("width", [1, 2, 17, 65, 513])
    @pytest.mark.parametrize("rows", [1, 10])
    @pytest.mark.parametrize("kind", ["spiral", "ratio"])
    def test_reciprocal(self, kind, rows, width):
        d = newton_divisors(kind, rows, width)
        loop = _row_div(unit_rows(rows, width), d)
        newton = _row_reciprocal(d)
        for got, expected in zip(newton, loop):
            assert max_norm_error(got, expected) <= self.NEWTON_RTOL
        assert np.array_equal(_row_reciprocal(d[-1:])[0], newton[-1])

    @pytest.mark.parametrize("width", [1, 2, 17, 65, 513])
    @pytest.mark.parametrize("rows", [1, 10])
    @pytest.mark.parametrize("kind", ["spiral", "ratio"])
    def test_log_derivative(self, kind, rows, width):
        # the sources are the reciprocals: quotient ratios for "ratio"
        q = _row_div(unit_rows(rows, width), newton_divisors(kind, rows, width))
        loop = _row_log_derivative(q)
        newton = _row_log_derivative_newton(q)
        assert newton.shape == (rows, width + 1)
        for got, expected in zip(newton, loop):
            assert max_norm_error(got, expected) <= self.NEWTON_RTOL
        assert np.array_equal(_row_log_derivative_newton(q[-1:])[0], newton[-1])

    def test_ratio_rows_reach_subnormals(self):
        # the "ratio" cases above really exercise subnormal tails
        tiny = np.finfo(np.float64).tiny
        for rows in (1, 10):
            d = newton_divisors("ratio", rows, 513)
            loop = np.abs(_row_log_derivative(_row_div(unit_rows(rows, 513), d)))
            assert np.all(np.any((loop > 0.0) & (loop < tiny), axis=1))

    @pytest.mark.parametrize("width", [1, 2, 17, 65, 513])
    def test_row_product_matches_convolution(self, width):
        rng = np.random.default_rng(width)
        a = rng.standard_normal((3, width)) + 1j * rng.standard_normal((3, width))
        b = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        got = _row_mul(a, b, width)
        assert got.shape == (3, width)
        for row, x, y in zip(got, a, b):
            assert max_norm_error(row, np.convolve(x, y)[:width]) <= 1e-15

    def test_reciprocal_refuses_a_non_unit_divisor(self):
        d = newton_divisors("spiral", 3, 17)
        d[1, 0] = 1e-15
        with pytest.raises(DivisionByNonUnit):
            _row_reciprocal(d)

    def test_log_derivative_refuses_an_unnormalized_source(self):
        q = newton_divisors("spiral", 3, 17)
        q[2, 0] = 0.5
        with pytest.raises(NormalizationError):
            _row_log_derivative_newton(q)


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

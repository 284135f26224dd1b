"""Series arithmetic: frozen examples, round trips, and ring properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schlicht import ComplexSeries, constant, identity, monomial, solve_log_derivative
from schlicht.errors import (
    BranchPointAtOrigin,
    DivisionByNonUnit,
    NonvanishingInnerConstant,
    ParameterDomainError,
    RadiusOutOfRange,
)
from schlicht.series import circle_values


def binomial_series(alpha: complex, scale: complex, order: int) -> ComplexSeries:
    """Independent oracle: (1 + scale*z)^alpha via the term recurrence
    c_k = c_{k-1} * scale * (alpha - k + 1) / k."""
    coeffs = [1.0 + 0j]
    for k in range(1, order + 1):
        coeffs.append(coeffs[-1] * scale * (alpha - k + 1) / k)
    return ComplexSeries(coeffs)


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
    def test_add_cancellation(self):
        one_plus = ComplexSeries([1, 1])
        one_minus = ComplexSeries([1, -1])
        assert (one_plus + one_minus).coeffs == (2, 0)

    def test_add_identity(self):
        s = ComplexSeries([0.5, 1j, -2])
        assert s + constant(0, 2) == s

    def test_add_monomials(self):
        assert (identity(2) + monomial(1, 2, 2)).coeffs == (0, 1, 1)

    def test_mul_difference_of_squares(self):
        prod = ComplexSeries([1, 1, 0]) * ComplexSeries([1, -1, 0])
        assert prod.coeffs == (1, 0, -1)

    def test_mul_inverse_of_geometric(self):
        prod = geometric(8) * ComplexSeries([1, -1] + [0] * 7)
        assert max_abs_diff(prod, constant(1, 8)) == 0.0

    def test_koebe_coefficients(self):
        # oracle: (1-z)^(-2) has binomial coefficients k+1
        oracle = binomial_series(-2, -1, 5)
        koebe = identity(6) * oracle.extend(6)
        for n in range(1, 6):
            assert koebe.coefficient(n) == pytest.approx(n, abs=1e-14)

    def test_div_geometric(self):
        q = constant(1, 8) / ComplexSeries([1, -1] + [0] * 7)
        assert max_abs_diff(q, geometric(8)) < 1e-14

    def test_div_self(self):
        s = ComplexSeries([1, 0.3 + 0.1j, -0.5, 0.25])
        assert max_abs_diff(s / s, constant(1, 3)) < 1e-14

    def test_div_alternating(self):
        q = identity(6) / (constant(1, 6) + identity(6))
        expected = ComplexSeries([0, 1, -1, 1, -1, 1, -1])
        assert max_abs_diff(q, expected) < 1e-14

    def test_div_by_nonunit_rejected(self):
        with pytest.raises(DivisionByNonUnit):
            constant(1, 3).div(identity(3))


class TestCompose:
    def test_identity_inner(self):
        g = ComplexSeries([2, 1j, -0.5, 0.125])
        assert max_abs_diff(g.compose(identity(3)), g) < 1e-15

    def test_geometric_of_square(self):
        out = geometric(6).compose(monomial(1, 2, 6))
        assert max_abs_diff(out, ComplexSeries([1, 0, 1, 0, 1, 0, 1])) < 1e-14

    def test_moebius_target_at_identity(self):
        # ((1+w)/(1-w)) o z = 1 + 2z + 2z^2 + ...
        target = (constant(1, 8) + identity(8)) / (constant(1, 8) - identity(8))
        out = target.compose(identity(8))
        expected = ComplexSeries([1] + [2] * 8)
        assert max_abs_diff(out, expected) < 1e-13

    def test_nonzero_inner_rejected(self):
        with pytest.raises(NonvanishingInnerConstant):
            geometric(4).compose(constant(1, 4))


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
        oracle = binomial_series(-2j, -1, 15)
        assert max_abs_diff(out, oracle) < 1e-12

    def test_branch_point_rejected(self):
        with pytest.raises(BranchPointAtOrigin):
            identity(4).powc(0.5)
        with pytest.raises(BranchPointAtOrigin):
            identity(4).log1()
        with pytest.raises(BranchPointAtOrigin):
            constant(1, 4).exp0()

    def test_log_exp_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = random_series(rng, 32, radius=0.5, unit_constant=True)
            back = s.log1().exp0()
            assert max_abs_diff(back, s) < 1e-12


class TestCalculusAndEval:
    def test_derivative_monomial(self):
        assert monomial(1, 2, 4).derivative().coeffs == (0, 2, 0, 0)

    def test_integrate_constant(self):
        assert constant(1, 2).integrate().coeffs == (0, 1, 0, 0)

    def test_integrate_geometric_is_log_series(self):
        # termwise: integral of (1-t)^(-1) has coefficients 1/k
        out = geometric(7).integrate()
        for k in range(1, 9):
            assert out.coefficient(k) == pytest.approx(1.0 / k, abs=1e-15)

    def test_derivative_of_integral_recovers(self):
        rng = np.random.default_rng(6)
        s = random_series(rng, 16)
        assert max_abs_diff(s.integrate().derivative(), s) < 1e-15

    def test_eval_constant(self):
        vals = constant(1, 4).eval_on_circle(0.5, 16)
        assert np.max(np.abs(vals - 1.0)) == 0.0

    def test_eval_identity(self):
        vals = identity(4).eval_on_circle(0.5, 8)
        assert vals[0] == pytest.approx(0.5, abs=1e-15)

    def test_eval_scaled_rotation_sup(self):
        vals = identity(4).scale(0.9).eval_on_circle(0.99, 64)
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
            left = (s + t) * u
            right = s * u + t * u
            assert max_abs_diff(left, right) < 1e-12

    def test_div_mul_round_trip_postcondition(self):
        # tolerance scales with the largest coefficient met along the way,
        # matching the operation's contract
        rng = np.random.default_rng(8)
        for _ in range(50):
            s = random_series(rng, 64)
            t = random_series(rng, 64, unit_constant=True)
            q = s / t
            back = q * t
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
            back = (s / t) * t
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

    def test_compose_associativity(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            outer = random_series(rng, 16)
            i1 = random_series(rng, 16, radius=0.6)
            i2 = random_series(rng, 16, radius=0.6)
            i1 = ComplexSeries([0] + list(i1.coeffs[1:]))
            i2 = ComplexSeries([0] + list(i2.coeffs[1:]))
            left = outer.compose(i1.compose(i2))
            right = outer.compose(i1).compose(i2)
            assert max_abs_diff(left, right) < 1e-10

    def test_truncation_stability(self):
        # recomputing at order 2N and truncating must be bit-identical
        rng = np.random.default_rng(11)
        n = 24
        s2 = random_series(rng, 2 * n, radius=0.7, unit_constant=True)
        t2 = random_series(rng, 2 * n, radius=0.7, unit_constant=True)
        s1, t1 = s2.truncate(n), t2.truncate(n)
        assert s2.mul(t2).truncate(n) == s1.mul(t1)
        assert s2.div(t2).truncate(n) == s1.div(t1)
        assert s2.log1().truncate(n) == s1.log1()
        assert s2.powc(0.5 - 1j).truncate(n) == s1.powc(0.5 - 1j)
        w2 = ComplexSeries([0] + list(s2.coeffs[1:]))
        assert w2.exp0().truncate(n) == w2.truncate(n).exp0()
        inner2 = ComplexSeries([0] + list(t2.coeffs[1:]))
        assert s2.compose(inner2).truncate(n) == s1.compose(inner2.truncate(n))

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
        assert max_abs_diff(s * t, t * s) < 1e-13


class TestSolveLogDerivative:
    def test_geometric_target_gives_koebe(self):
        # q = (1+z)/(1-z) drives z f' = f q to the coefficients a_n = n
        q = ComplexSeries([1] + [2] * 7)
        f = solve_log_derivative(q)
        for n in range(1, 9):
            assert f.coefficient(n) == pytest.approx(n, abs=1e-12)

    def test_unit_target_gives_identity(self):
        f = solve_log_derivative(constant(1, 6))
        assert max_abs_diff(f, identity(7)) == 0.0


class TestSerialization:
    def test_json_round_trip(self):
        s = ComplexSeries([0, 1, 0.5 - 0.25j])
        doc = s.to_json_dict()
        assert doc["order"] == 2
        assert ComplexSeries.from_json_dict(doc) == s

    def test_json_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ComplexSeries.from_json_dict({"order": 3, "coeffs": [[0, 0], [1, 0]]})

"""Schwarz sampling, member construction, membership, and the fuzzer."""

import numpy as np
import pytest

from schlicht import (
    ClassParams,
    ComplexSeries,
    extremal_case_ii,
    fuzz_bounds,
    identity,
    is_member,
    member_from_schwarz,
    monomial,
    quadratic_sum_slack,
    sample_schwarz,
    schwarz_from_member,
)
from schlicht.errors import ParameterDomainError
from schlicht.output import fixed_json_dumps

from conftest import draw_valid_params, grid_sup, per_n_rows, reference_schwarz

STARLIKE = ClassParams(1, 0, 1, -1)
CONVEX = ClassParams(1, 1, 1, -1)


def functional_equation_residual(f, omega, p) -> float:
    """Independent oracle: members satisfy the coefficient identity

      sum (k-1)(1+lam(k-1)) a_k z^k
        = (gamma(A-B) z + sum_{k>=2} (gamma(A-B)-B(k-1))(1+lam(k-1)) a_k z^k)
          * omega(z).
    """
    n = f.order
    om = np.zeros(n + 1, dtype=np.complex128)
    om_coeffs = omega.coeffs[: n + 1]
    om[: len(om_coeffs)] = om_coeffs
    coeffs = np.array(f.coeffs)
    ks = np.arange(n + 1)
    weights = 1.0 + p.lam * np.maximum(ks - 1, 0)
    lhs = (ks - 1) * weights * coeffs
    base = p.product_base()
    rhs_inner = (base - p.b * (ks - 1)) * weights * coeffs
    rhs_inner[1] = base  # the seed term gamma*(A-B)*z
    rhs = np.convolve(rhs_inner, om)[: n + 1]
    return float(np.max(np.abs(lhs - rhs)))


class TestSampler:
    def test_rotation_is_unimodular_linear(self):
        s = sample_schwarz(3, 1, "rotation")
        assert s.order == 1
        assert s.coefficient(0) == 0
        assert abs(s.coefficient(1)) == pytest.approx(1.0, abs=1e-15)
        assert grid_sup(s) == pytest.approx(0.99, abs=1e-12)

    def test_monomial_scaled(self):
        # rho*z^d with rho drawn in (0, 1]
        s = sample_schwarz(3, 2, "monomial")
        coeffs = np.array(s.coeffs)
        rho = coeffs[2]
        assert rho.imag == 0.0 and 0.0 < rho.real <= 1.0
        assert np.all(np.delete(coeffs, 2) == 0)
        assert grid_sup(s) < rho.real

    def test_polynomial_certificate(self):
        for i in range(50):
            s = sample_schwarz((42, i), 5)
            total = sum(abs(c) for c in s.coeffs)
            assert total <= 1.0 + 1e-12
            assert grid_sup(s) < 1.0

    def test_seed_reproducibility(self):
        a = sample_schwarz(42, 4)
        b = sample_schwarz(42, 4)
        assert a == b
        assert grid_sup(a) == grid_sup(b)

    def test_construction_validated(self):
        with pytest.raises(ParameterDomainError):
            sample_schwarz(1, 1, "bogus")
        with pytest.raises(ParameterDomainError):
            sample_schwarz(1, 0)


class TestMemberConstruction:
    def test_identity_schwarz_gives_koebe(self):
        f = member_from_schwarz(identity(1), STARLIKE, 10)
        for n in range(1, 11):
            assert f.coefficient(n) == pytest.approx(n, abs=1e-12)

    def test_identity_schwarz_convex(self):
        f = member_from_schwarz(identity(1), CONVEX, 10)
        for n in range(1, 11):
            assert f.coefficient(n) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_zero_sample(self):
        f = member_from_schwarz(monomial(0, 0, 4), STARLIKE, 6)
        assert f == identity(6)

    def test_functional_equation_for_random_samples(self, rng):
        for i in range(100):
            p = draw_valid_params(rng)
            sample = sample_schwarz((99, i), 4)
            f = member_from_schwarz(sample, p, 16)
            assert functional_equation_residual(f, sample, p) < 1e-10


class TestSchwarzRecovery:
    def test_koebe_recovers_identity(self):
        f = member_from_schwarz(identity(1), STARLIKE, 12)
        omega = schwarz_from_member(f, STARLIKE)
        assert np.max(np.abs(np.array(omega.coeffs) - np.array(identity(11).coeffs))) < 1e-12

    def test_identity_member_recovers_zero(self):
        omega = schwarz_from_member(identity(8), STARLIKE)
        assert np.max(np.abs(np.array(omega.coeffs))) < 1e-14

    def test_round_trip_200_draws(self, rng):
        for i in range(200):
            p = draw_valid_params(rng)
            sample = sample_schwarz((7, i), 4)
            f = member_from_schwarz(sample, p, 32)
            back = member_from_schwarz(schwarz_from_member(f, p), p, 32)
            diff = np.max(np.abs(np.array(f.coeffs) - np.array(back.coeffs)))
            assert diff < 1e-10

    def test_inversion_is_bit_equal_to_series_chain(self, rng):
        for i in range(50):
            p = draw_valid_params(rng)
            order = int(rng.integers(4, 80))
            f = member_from_schwarz(sample_schwarz((9, i), 4), p, order)
            omega = schwarz_from_member(f, p)
            assert np.array_equal(omega.coeffs, reference_schwarz(f, p))

    @pytest.mark.parametrize("p", [STARLIKE, CONVEX, ClassParams(1j, 0.5, 1, 0)])
    def test_extremal_inversion_is_bit_equal_to_series_chain(self, p):
        f = extremal_case_ii(p, 64)
        assert np.array_equal(schwarz_from_member(f, p).coeffs, reference_schwarz(f, p))

    def test_omega_round_trip(self, rng):
        for i in range(50):
            p = draw_valid_params(rng)
            sample = sample_schwarz((8, i), 3)
            f = member_from_schwarz(sample, p, 24)
            omega = schwarz_from_member(f, p)
            target = np.zeros(omega.order + 1, dtype=np.complex128)
            target[: sample.order + 1] = sample.coeffs
            diff = np.max(np.abs(np.array(omega.coeffs) - target))
            assert diff < 1e-10


class TestMembership:
    def test_identity_function(self):
        report = is_member(identity(8), STARLIKE)
        assert report.member
        assert report.margin == pytest.approx(1.0, abs=1e-12)

    def test_koebe_margin(self):
        f = member_from_schwarz(identity(1), STARLIKE, 32)
        report = is_member(f, STARLIKE)
        assert report.member
        assert report.margin == pytest.approx(0.01, abs=1e-9)

    def test_violator_rejected(self):
        bad = ComplexSeries([0, 1, 5] + [0] * 29)
        report = is_member(bad, STARLIKE)
        assert not report.member
        assert report.margin < 0.0


class TestQuadraticInequality:
    def test_extremal_sits_at_equality(self):
        f = member_from_schwarz(identity(1), STARLIKE, 10)
        for n in range(2, 11):
            slack = quadratic_sum_slack(f, STARLIKE, n)
            assert abs(slack) < 1e-12

    def test_strict_members_have_positive_slack(self):
        f = member_from_schwarz(monomial(0.5, 1, 1), STARLIKE, 8)
        assert quadratic_sum_slack(f, STARLIKE, 5) > 0.0


class TestFuzzer:
    def test_starlike_fuzz_statistics(self):
        report = fuzz_bounds(STARLIKE, n_max=10, samples=1000, seed=7)
        assert report.total_violations == 0
        assert report.quadratic_inequality.violations == 0
        first = per_n_rows(report)[0]
        assert first["n"] == 2
        assert first["max_observed"] >= 1.9  # rotation samples reach the bound
        assert first["max_observed"] <= first["bound"] * (1 + 1e-9)

    def test_case_i_fuzz(self):
        p = ClassParams(-0.5, 0, 1, -1)
        report = fuzz_bounds(p, n_max=8, samples=500, seed=11)
        assert report.total_violations == 0
        for row in per_n_rows(report):
            assert row["bound"] == pytest.approx(1.0 / (row["n"] - 1), rel=1e-12)

    def test_case_iii_fuzz_gap_positive(self):
        p = ClassParams(1j, 0, 1, 0)
        report = fuzz_bounds(p, n_max=8, samples=500, seed=13)
        assert report.total_violations == 0
        for row in per_n_rows(report):
            if row["case"] == "III":
                assert row["max_observed"] < row["bound"]

    def test_determinism_bytes(self):
        a = fuzz_bounds(STARLIKE, n_max=6, samples=200, seed=21)
        b = fuzz_bounds(STARLIKE, n_max=6, samples=200, seed=21)
        assert fixed_json_dumps(a) == fixed_json_dumps(b)

    def test_seed_validation(self):
        with pytest.raises(ParameterDomainError):
            fuzz_bounds(STARLIKE, n_max=6, samples=10, seed=-1)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: member_from_schwarz(ComplexSeries([0.5, 0.5]), STARLIKE, 5),
                 "the series must vanish at the origin", id="omega0"),
    pytest.param(lambda: quadratic_sum_slack(member_from_schwarz(identity(1), STARLIKE, 5),
                                             STARLIKE, 1),
                 "index n must be >= 2, got 1", id="slack-n-low"),
    pytest.param(lambda: quadratic_sum_slack(member_from_schwarz(identity(1), STARLIKE, 5),
                                             STARLIKE, 6),
                 "index n must be <= 5, got 6", id="slack-n-high"),
])
def test_refusals(call, message):
    with pytest.raises(ParameterDomainError) as info:
        call()
    assert type(info.value) is ParameterDomainError and message in str(info.value)

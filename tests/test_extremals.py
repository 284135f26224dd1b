"""Extremal constructions and sharpness certification."""

import math

import numpy as np
import pytest

from schlicht import (
    CauchyEulerParams,
    ClassParams,
    ExtremalSpec,
    build_extremal,
    certify_sharpness,
    coefficient_bound,
    coefficient_bound_cauchy_euler,
    extremal_case_i,
    extremal_case_ii,
    identity,
    is_member,
    monomial,
    transfer_cauchy_euler,
)
from schlicht.bounds import reduction_columns
from schlicht.errors import NormalizationError, ParameterDomainError
from schlicht.extremals import KIND_CLASS, case_i_moduli, sharpness_columns
from schlicht.params import Reduction, reduce_subclass
from schlicht.subordination import MEMBERSHIP_RADIUS

from conftest import (
    draw_case_i_params,
    draw_case_ii_params,
    draw_valid_params,
    max_norm_error,
    reference_extremal,
)

STARLIKE = ClassParams(1, 0, 1, -1)
CONVEX = ClassParams(1, 1, 1, -1)


class TestCaseIExtremal:
    def test_square_root_source(self):
        # source z*(1-z^2)^{1/2} = z - z^3/2 - z^5/8 - ...
        f = extremal_case_i(ClassParams(-0.5, 0, 1, -1), 3, 8)
        expected = [0, 1, 0, -0.5, 0, -0.125, 0, -0.0625, 0]
        assert np.allclose(f.coeffs, expected, atol=1e-14)
        assert abs(f.coefficient(3)) == pytest.approx(0.5, abs=1e-14)

    def test_linear_source_at_n_two(self):
        f = extremal_case_i(ClassParams(-0.5, 0, 1, -1), 2, 4)
        assert np.allclose(f.coeffs, [0, 1, -1, 0, 0], atol=1e-14)
        assert abs(f.coefficient(2)) == pytest.approx(1.0, abs=1e-14)

    def test_exponential_limit_when_b_zero(self):
        f = extremal_case_i(ClassParams(1j, 0, 1, 0), 2, 6)
        assert f.coefficient(2) == pytest.approx(1j, abs=1e-14)
        assert abs(f.coefficient(2)) == pytest.approx(1.0, abs=1e-14)

    def test_weights_divided_out(self):
        p = ClassParams(-0.5, 0.5, 1, -1)
        f = extremal_case_i(p, 3, 6)
        bound = coefficient_bound(p, 3)
        assert bound.case_tag == "I"
        assert abs(f.coefficient(3)) == pytest.approx(bound.value, rel=1e-12)

    def test_order_must_reach_n(self):
        with pytest.raises(ParameterDomainError):
            extremal_case_i(STARLIKE, 5, 4)

    @pytest.mark.parametrize("indices",
                             [[2], [7], [3, 4, 5], [9, 2, 30, 5], list(range(2, 140))])
    def test_stacked_moduli_are_the_order_n_builds(self, rng, indices):
        # stacks of CASE_I_STACK rows, as wide as their largest n; exact, row for row
        for _ in range(5):
            p = draw_case_i_params(rng)
            expected = [abs(extremal_case_i(p, n, n).coefficient(n)) for n in indices]
            assert case_i_moduli(p, indices) == expected, p

    def test_no_indices(self):
        assert case_i_moduli(STARLIKE, []) == []

    def test_no_indices_build_no_stack(self, monkeypatch):
        def refuse(omegas, p):
            raise AssertionError(f"built a member stack of shape {omegas.shape}")

        monkeypatch.setattr("schlicht.extremals._member_rows", refuse)
        assert case_i_moduli(STARLIKE, []) == []


class TestCaseIIExtremal:
    def test_koebe(self):
        f = extremal_case_ii(STARLIKE, 12)
        for n in range(1, 13):
            assert f.coefficient(n) == pytest.approx(n, abs=1e-11)

    def test_convex_integral(self):
        f = extremal_case_ii(CONVEX, 12)
        for n in range(1, 13):
            assert f.coefficient(n) == pytest.approx(1.0, abs=1e-12)

    def test_exponential_case(self):
        f = extremal_case_ii(ClassParams(1j, 0, 1, 0), 10)
        for n in range(2, 11):
            assert abs(f.coefficient(n)) == pytest.approx(
                1.0 / math.factorial(n - 1), rel=1e-12
            )


class TestClosedFormReference:
    @pytest.mark.parametrize("order", [12, 64, 512])
    def test_extremals_match_closed_form(self, order):
        # the members of omega = z and z^(n-1) against z*(1 + B*z^m)^c and,
        # at B = 0, z*exp(gamma*A*z^m/m), with the weights divided out
        for gamma in (0.7 - 0.4j, -1.3 + 0.9j):
            for lam in (0.0, 0.3, 1.0):
                for b in (-1.0, 0.0, -0.4):
                    p = ClassParams(gamma, lam, 0.8, b)
                    f = extremal_case_ii(p, order)
                    expected = reference_extremal(p, 1, order)
                    assert max_norm_error(f.coeffs, expected) <= 1e-14, p
                    for n in (2, 3, 7):
                        f = extremal_case_i(p, n, order)
                        expected = reference_extremal(p, n - 1, order)
                        assert max_norm_error(f.coeffs, expected) <= 1e-14, (p, n)


class TestTransfer:
    def test_normalization_preserved(self):
        out = transfer_cauchy_euler(identity(6), CauchyEulerParams(3, 0.5))
        assert out == identity(6)

    def test_koebe_order_two_shift_zero(self):
        out = transfer_cauchy_euler(
            extremal_case_ii(STARLIKE, 10), CauchyEulerParams(2, 0.0)
        )
        for n in range(2, 11):
            assert out.coefficient(n) == pytest.approx(2.0 / (n + 1), rel=1e-11)

    def test_requires_normalized_input(self):
        with pytest.raises(NormalizationError):
            transfer_cauchy_euler(monomial(2.0, 1, 4), CauchyEulerParams(2, 0.0))


class TestCertification:
    def test_koebe_attains_to_fifty(self):
        spec = ExtremalSpec("case-ii", STARLIKE, 50)
        f = build_extremal(spec)
        for n in range(2, 51):
            record = certify_sharpness(spec, f, n)
            assert record.attained
            assert abs(record.gap) <= 1e-9

    def test_case_i_attains_at_own_index(self):
        p = ClassParams(-0.5, 0.3, 1, -1)
        spec = ExtremalSpec("case-i", p, 8, n=5)
        record = certify_sharpness(spec, build_extremal(spec), 5)
        assert record.attained
        assert abs(record.gap) <= 1e-9

    def test_case_iii_probe_not_attained(self):
        # the omega = z member undershoots the case-III bound; the gap is
        # recorded without any sharpness claim
        p = ClassParams(1j, 0, 1, 0)
        spec = ExtremalSpec("case-ii", p, 8)
        record = certify_sharpness(spec, build_extremal(spec), 6)
        assert coefficient_bound(p, 6).case_tag == "III"
        assert not record.attained
        assert record.gap > 0.0

    def test_kind_variants_delegate(self):
        gamma = 0.6 - 0.2j
        base = ClassParams(gamma, 0.5, 0.5, -0.5)
        koebe_like = build_extremal(ExtremalSpec("koebe-gamma", base, 8))
        direct = extremal_case_ii(ClassParams(gamma, 0, 1, -1), 8)
        assert koebe_like == direct
        conv = build_extremal(ExtremalSpec("convex-gamma", base, 8))
        direct_conv = extremal_case_ii(ClassParams(gamma, 1, 1, -1), 8)
        assert conv == direct_conv
        cor = build_extremal(ExtremalSpec("starlike-n", base, 8, n=4))
        direct_cor = extremal_case_i(ClassParams(gamma, 0, 1, -1), 4, 8)
        assert cor == direct_cor

    @pytest.mark.parametrize("gamma", [1.0, -0.5, 0.6 - 0.2j, 2j])
    @pytest.mark.parametrize("kind", ["koebe-gamma", "convex-gamma", "starlike-n"])
    def test_gamma_only_kind_builds_in_its_subclass(self, kind, gamma):
        # lambda, A and B of the given params are replaced by the subclass's
        spec = ExtremalSpec(kind, ClassParams(gamma, 0.3, 0.5, -0.5), 8, n=4)
        assert spec.params == reduce_subclass(KIND_CLASS[kind], gamma=gamma).params


class TestSharpnessInvariants:
    def test_case_ii_draws_attain_all_indices(self, rng):
        for _ in range(100):
            p = draw_case_ii_params(rng, 12)
            spec = ExtremalSpec("case-ii", p, 12)
            f = build_extremal(spec)
            for n in range(2, 13):
                record = certify_sharpness(spec, f, n)
                assert record.attained, (p, n, record)

    def test_case_i_draws_attain_target_index(self, rng):
        for _ in range(100):
            p = draw_case_i_params(rng)
            n = int(rng.integers(2, 13))
            spec = ExtremalSpec("case-i", p, 12, n=n)
            record = certify_sharpness(spec, build_extremal(spec), n)
            assert record.attained, (p, n, record)

    def test_transfer_attains_cauchy_euler_bound(self, rng):
        for _ in range(50):
            p = draw_case_ii_params(rng, 10)
            ce = CauchyEulerParams(int(rng.integers(2, 5)), float(rng.uniform(-0.9, 3)))
            spec = ExtremalSpec("case-ii", p, 10, cauchy_euler=ce)
            f = build_extremal(spec)
            for n in (2, 5, 10):
                record = certify_sharpness(spec, f, n)
                assert record.attained, (p, ce, n, record)
                direct = coefficient_bound_cauchy_euler(p, ce, n)
                assert record.bound == pytest.approx(direct.value, rel=1e-15)

    def test_sweep_rows_certify_like_one_row_calls(self, rng):
        # extremal and report certify from the rows of one sweep; each record
        # is bit-identical to certify_sharpness at that index alone
        for i in range(40):
            p = draw_valid_params(rng)
            ce = CauchyEulerParams(2, float(rng.uniform(-0.9, 3))) if i % 2 else None
            hi = int(rng.integers(2, 41))
            spec = ExtremalSpec("case-ii", p, hi, cauchy_euler=ce)
            f = build_extremal(spec)
            sweep = reduction_columns(Reduction(p, ce), 2, hi)
            observed = [abs(f.coefficient(n)) for n in sweep.n]
            columns = sharpness_columns(sweep.value, observed)
            swept = list(zip(sweep.n, sweep.value.tolist(), *(c.tolist() for c in columns)))
            assert swept == [certify_sharpness(spec, f, n) for n in range(2, hi + 1)]

    def test_extremals_pass_membership(self, rng):
        for _ in range(10):
            p = draw_case_ii_params(rng, 8)
            f = extremal_case_ii(p, 48)
            report = is_member(f, p)
            assert report.margin >= -1e-6
        for _ in range(10):
            p = draw_case_i_params(rng)
            f = extremal_case_i(p, 4, 48)
            report = is_member(f, p)
            assert report.margin >= -1e-6

    @pytest.mark.parametrize("order", [64, 512])
    def test_case_ii_margin_is_one_minus_the_radius(self, rng, order):
        # the case-II extremal is the member of omega = z, whose maximum on
        # |z| = MEMBERSHIP_RADIUS is the radius; the inverted member gives
        # that margin to within 1e-10 (at most 3.3e-14 off over these 40
        # draws, and 8.3e-12 over the first 200 of the same stream); the
        # inversion's pivot is 1 whatever A - B is, so A - B = 1e-15 and
        # 1e-16 follow (at most 6.4e-15 and 2.1e-16 off)
        draws = [draw_valid_params(rng) for _ in range(40)]
        for p in [*draws, ClassParams(1, 0, 1, 0.999999999999999),
                  ClassParams(1, 0, 0.5, 0.4999999999999999)]:
            report = is_member(extremal_case_ii(p, order), p)
            assert abs(report.margin - (1.0 - MEMBERSHIP_RADIUS)) <= 1e-10

    def test_case_i_recovered_schwarz_is_monomial(self):
        # the case-I member at index n is driven by omega = z^{n-1}
        from schlicht import schwarz_from_member

        p = ClassParams(-0.5, 0, 1, -1)
        f = extremal_case_i(p, 3, 12)
        omega = schwarz_from_member(f, p)
        coeffs = np.array(omega.coeffs)
        assert abs(coeffs[2]) == pytest.approx(1.0, abs=1e-10)
        mask = np.ones(len(coeffs), dtype=bool)
        mask[2] = False
        assert np.max(np.abs(coeffs[mask])) < 1e-10


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: ExtremalSpec("nope", STARLIKE, 5),
                 "unknown extremal kind 'nope'", id="kind"),
    pytest.param(lambda: ExtremalSpec("case-i", STARLIKE, 5, n=1),
                 "index n must be >= 2, got 1", id="n"),
    pytest.param(lambda: ExtremalSpec("case-i", STARLIKE, 5, n=6),
                 "extremal order 5 does not reach index 6", id="order"),
    pytest.param(lambda: certify_sharpness(ExtremalSpec("case-ii", STARLIKE, 5),
                                           extremal_case_ii(STARLIKE, 5), 1),
                 "index n must be >= 2, got 1", id="certify-n-low"),
    pytest.param(lambda: certify_sharpness(ExtremalSpec("case-ii", STARLIKE, 5),
                                           extremal_case_ii(STARLIKE, 5), 6),
                 "extremal order 5 does not reach index 6", id="certify-n-high"),
    pytest.param(lambda: build_extremal(ExtremalSpec("case-ii", STARLIKE, 1)),
                 "order must be >= 2, got 1", id="build-order1"),
])
def test_refusals(call, message):
    with pytest.raises(ParameterDomainError) as info:
        call()
    assert type(info.value) is ParameterDomainError and message in str(info.value)

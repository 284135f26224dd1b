"""Disk criteria for spiral-likeness and the associated growth bounds.

The membership tests here are grid evaluations on circles |z| = r: the
quantities z*f'/f (spiral/starlike tests) and (1 + z*f''/f')/(z*f'/f)
(the quotient-deviation class) are sampled at equispaced angles and the
relevant real-part minimum or deviation maximum is reported.  By the
maximum principle the largest test radius is the binding one.

Instances that satisfy the quotient criteria are constructed forward:
given a source s with s(0) = 0, z*p' = s*p^2 with p(0) = 1 is linear in
1/p, so p is the reciprocal 1/(1 - sum_k s_k z^k/k), and z*f'/f = p then
determines the member.  Constructing forward avoids inverting the
non-univalent target of the criterion, and exercises the implication in
the direction it is actually used.  The builders run series' whole-order
Newton kernels (reciprocal, FFT product, log-derivative solve), not the
exact recurrences: their instances have order 512 and more, where one
Python step per coefficient dominated the cost.  Their max-norm relative
error grows with the member's coefficients, which for omega = e^{i*theta}*z
grow like n^cos(2*alpha): 2e-13 to 1.9e-8 at order 512, and 1.8e-12 to
8.8e-4 at 2048, as alpha goes from +-1.2 to 0.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import series as srs
from .errors import (
    EvaluationSingularity,
    ParameterDomainError,
    PreconditionNotVerified,
)
from .output import JsonFields
from .params import check_angle, check_order
from .series import ComplexSeries
from .subordination import schwarz_rows

SINGULARITY_FLOOR = 1e-12

# the circle |z| = DEFAULT_RADIUS and its DEFAULT_ANGLES points of the
# spiral and gb membership tests
DEFAULT_RADIUS = 0.95
DEFAULT_ANGLES = 2048

# growth_check's grids: the growth bound is checked on GROWTH_RADII and the
# starlikeness precondition on GROWTH_MEMBERSHIP_RADIUS, GROWTH_ANGLES points each
GROWTH_RADII = (0.3, 0.5, 0.6)
GROWTH_ANGLES = 1024
GROWTH_MEMBERSHIP_RADIUS = 0.75
GROWTH_TOLERANCE = 1e-9

# gb_spiral_threshold samples THRESHOLD_POINTS points of its bracket per
# pass; THRESHOLD_PASSES passes shrink it from half-width pi to pi/16^8
THRESHOLD_POINTS = 33
THRESHOLD_PASSES = 8

# samples built and checked together by spiral_check
SPIRAL_BLOCK = 64


@dataclass(frozen=True)
class SpiralReport(JsonFields):
    member: bool
    min_re: float
    radius: float
    angles: int
    winding: int


@dataclass(frozen=True)
class DeviationReport(JsonFields):
    member: bool
    max_dev: float
    radius: float
    angles: int
    winding: int


@dataclass(frozen=True)
class GrowthReport(JsonFields):
    ok: bool
    worst_slack: float
    alpha: float
    beta: float
    radii: tuple
    narrow_hypothesis: bool


@dataclass(frozen=True)
class SecondCoeffReport(JsonFields):
    ok: bool
    value: float
    limit: float


def _windings(values: np.ndarray) -> list:
    """Winding around 0 of each row of a (rows, angles) array of samples of
    closed curves: the sum of its phase steps over 2*pi, rounded."""
    steps = np.angle(np.roll(values, -1, axis=1) / values)
    return np.rint(np.sum(steps, axis=1) / (2.0 * math.pi)).astype(int).tolist()


def winding_number(values: np.ndarray) -> int:
    """Winding of a sampled closed curve around 0 (sum of phase steps)."""
    return _windings(np.asarray(values)[None, :])[0]


def _grid_values(rows: np.ndarray, radius: float, angles: int, second: bool = False):
    """f, z*f' and, with second, z^2*f'' of each coefficient row on |z| = radius,
    shaped (2 or 3, rows, angles), from one circle_values call, and the
    winding of each f.  The criteria divide by f, and with second by f'.
    The phase steps of two or fewer samples cancel, so angles >= 3."""
    if angles < 3:
        raise ParameterDomainError(f"a winding needs angles >= 3, got {angles}")
    ks = np.arange(rows.shape[1])
    factors = np.stack([np.ones_like(ks), ks] + ([ks * (ks - 1)] if second else []))
    vals = srs.circle_values(rows * factors[:, None, :], radius, angles)
    floor = float(np.min(np.abs(vals[0])))
    if second:  # |f'| = |z*f'|/r on the circle
        floor = min(floor, float(np.min(np.abs(vals[1]))) / radius)
    if floor < SINGULARITY_FLOOR:
        raise EvaluationSingularity(
            f"|f| or |f'| < {SINGULARITY_FLOOR} on the radius-{radius} grid"
        )
    return vals, _windings(vals[0])


def _ratio_reports(rows, rotation: complex, shift: float, radius, angles) -> list:
    """Per row, the grid test of Re(rotation * z*f'/f) > shift.

    The circle criterion certifies f only when f has no zero in the
    punctured disk, so membership also needs winding(f) = 1.
    """
    (f_vals, zfp_vals), windings = _grid_values(rows, radius, angles)
    margins = np.min((rotation * (zfp_vals / f_vals)).real, axis=1) - shift
    return [
        SpiralReport(bool(m > 0.0) and w == 1, float(m), radius, angles, w)
        for m, w in zip(margins, windings)
    ]


def spiral_membership(
    f: ComplexSeries, alpha: float, radius: float = DEFAULT_RADIUS,
    angles: int = DEFAULT_ANGLES,
) -> SpiralReport:
    """Grid test of Re(exp(i*alpha) * z*f'/f) > 0, with winding(f) = 1."""
    check_angle(alpha, "alpha")
    return _ratio_reports(f._c[None, :], cmath.exp(1j * alpha), 0.0, radius, angles)[0]


def _growth_beta(alpha: float) -> float:
    """The growth exponent beta = 1/(2*(1-alpha)) of a starlikeness order
    alpha, which must lie in [0, 1)."""
    if not 0.0 <= alpha < 1.0:
        raise ParameterDomainError(f"starlike order alpha must be in [0, 1), got {alpha}")
    return 1.0 / (2.0 * (1.0 - alpha))


def starlike_membership(
    f: ComplexSeries, order_alpha: float, radius: float, angles: int
) -> SpiralReport:
    """Grid test of Re(z*f'/f) > order_alpha; min_re reports the margin."""
    _growth_beta(order_alpha)  # for its refusal of an order outside [0, 1)
    return _ratio_reports(f._c[None, :], 1.0, order_alpha, radius, angles)[0]


def _check_deviation(b: float) -> None:
    if not 0.0 < b <= 1.0:
        raise ParameterDomainError(f"need 0 < b <= 1, got {b}")


def gb_membership(
    f: ComplexSeries, b: float, radius: float = DEFAULT_RADIUS,
    angles: int = DEFAULT_ANGLES,
) -> DeviationReport:
    """Grid test of |(1 + z*f''/f')/(z*f'/f) - 1| <= b.

    Membership additionally requires winding(f) = 1 on the circle (no
    stray zeros of f inside, same guard as the spiral test) and a
    zero-free f' there, i.e. winding(z*f') = 1.
    """
    _check_deviation(b)
    vals, (winding,) = _grid_values(f._c[None, :], radius, angles, True)
    f_vals, zfp, zzfpp = vals[:, 0]
    max_dev = float(np.max(np.abs((1.0 + zzfpp / zfp) / (zfp / f_vals) - 1.0)))
    member = max_dev <= b and winding == 1 and winding_number(zfp) == 1
    return DeviationReport(member, max_dev, radius, angles, winding)


def gb_spiral_threshold(alpha: float) -> float:
    """Largest quotient deviation b certified to imply spiral-likeness.

    Minimizes m(t) = |(1+A)e^{i*t}/(1+A*e^{i*t})^2| for A = exp(-2i*alpha)
    on a zooming grid.  m has one minimum per period (|1 + A*e^{i*t}| peaks
    only at t = 2*alpha), within one grid step of the sampled argmin, so
    each pass recenters there and shrinks the half-width to that step; m is
    periodic, so a bracket may cross t = 0.  m is quadratic at its minimum,
    so the last value is exact to rounding.  It equals |1 + A|/4.
    """
    check_angle(alpha, "alpha")
    a = cmath.exp(-2j * alpha)
    center, half = 0.0, math.pi
    for _ in range(THRESHOLD_PASSES):
        ts = np.linspace(center - half, center + half, THRESHOLD_POINTS)
        ws = np.exp(1j * ts)
        vals = np.abs((1.0 + a) * ws / (1.0 + a * ws) ** 2)
        best = int(np.argmin(vals))
        center, half = ts[best], ts[1] - ts[0]
    return float(vals[best])


def gb_threshold_closed_form(alpha: float) -> float:
    """The grid-minimized threshold in closed form: |1 + exp(-2i*alpha)|/4."""
    check_angle(alpha, "alpha")
    return abs(1.0 + cmath.exp(-2j * alpha)) / 4.0


def _ratio_rows(sources: np.ndarray) -> np.ndarray:
    """Rows p with z*p' = s*p^2 and p(0) = 1 for source rows s with s(0) = 0.

    1/p solves z*(1/p)' = -s, so p = 1/(1 - sum_k s_k z^k/k): one Newton
    reciprocal.  Only the columns s_1.. are read: series.fit_row holds the
    builders' inputs to s(0) = 0, and the FFT products of _spiral_rows
    leave rounding noise at z^0, which is not tested.
    """
    denom = np.zeros(sources.shape, dtype=np.complex128)
    denom[:, 0] = 1.0
    denom[:, 1:] = sources[:, 1:] / -np.arange(1.0, sources.shape[1])
    return srs._row_reciprocal(denom)


def quotient_source_ratio(source: ComplexSeries, order: int) -> ComplexSeries:
    """Solve z*p' = source * p^2 with p(0) = 1 (source(0) must vanish)."""
    return ComplexSeries(_ratio_rows(srs.fit_row(source, order + 1))[0])


def _spiral_rows(omegas: np.ndarray, alpha: float) -> np.ndarray:
    """Members a_0..a_N for rows of Schwarz coefficients c_0..c_{N-1}.

    Pushes each row through the spiral criterion's target
    h(w) = (A+1)*w/(1+A*w)^2, A = exp(-2i*alpha), as (A+1)*omega*r*r with
    r = 1/(1 + A*omega), then solves for the quotient ratio and the member.
    The callers check alpha, once per call.
    """
    a = cmath.exp(-2j * alpha)
    width = omegas.shape[1]
    v = omegas * a
    v[:, 0] += 1.0
    r = srs._row_reciprocal(v)
    source = srs._row_mul(srs._row_mul(omegas * (a + 1.0), r, width), r, width)
    return srs._row_log_derivative_newton(_ratio_rows(source))


def build_spiral_instance(omega, alpha: float, order: int) -> ComplexSeries:
    """Member built to satisfy the spiral quotient criterion exactly; it is
    spiral-like with angle alpha by the criterion."""
    check_angle(alpha, "alpha")
    check_order(order)
    return ComplexSeries(_spiral_rows(srs.fit_row(omega, order), alpha)[0])


def build_gb_instance(omega, b: float, order: int) -> ComplexSeries:
    """Member of the quotient-deviation class with deviation b*omega."""
    _check_deviation(b)
    check_order(order)
    sources = srs.fit_row(omega, order) * complex(b)
    return ComplexSeries(srs._row_log_derivative_newton(_ratio_rows(sources))[0])


def spiral_check(
    alpha: float, seed: int, samples: int, degree: int, order: int, radius: float,
    angles: int,
) -> list:
    """spiral_membership of build_spiral_instance for Schwarz samples 0..samples-1.

    Sample i is sample_schwarz((seed, i), degree).  Blocks of samples are
    built and checked together as rows, which bounds the memory of the
    (2*block, angles) grid of values.  samples < 1 and order < 2 are
    refused here, a negative seed or degree < 1 by the sampler.
    """
    check_angle(alpha, "alpha")
    rotation = cmath.exp(1j * alpha)
    if samples < 1:
        raise ParameterDomainError(f"samples must be >= 1, got {samples}")
    check_order(order)
    reports = []
    for lo in range(0, samples, SPIRAL_BLOCK):
        block = range(lo, min(samples, lo + SPIRAL_BLOCK))
        _, omegas = schwarz_rows(seed, block, degree, order, "polynomial_normalized")
        members = _spiral_rows(omegas, alpha)
        reports += _ratio_reports(members, rotation, 0.0, radius, angles)
    return reports


def growth_check(f: ComplexSeries, alpha: float) -> GrowthReport:
    """Check |f(z)| <= |z|/(1-|z|)^{1/beta} for a starlike f of order alpha.

    f must be normalized and of order 2 at least (require_normalized).
    Membership (Re(z*f'/f) > alpha on |z| = GROWTH_MEMBERSHIP_RADIUS, 0.75)
    is verified next and a failure raises PreconditionNotVerified rather
    than reporting a bogus growth violation.  worst_slack is min of
    bound(|z|) - |f(z)| over the circles |z| in GROWTH_RADII (0.3, 0.5,
    0.6); ok means it stays above -GROWTH_TOLERANCE.  Every circle has
    GROWTH_ANGLES (1024) points.
    """
    beta = _growth_beta(alpha)
    srs.require_normalized(f, 2)
    radius = GROWTH_MEMBERSHIP_RADIUS
    membership = starlike_membership(f, alpha, radius, GROWTH_ANGLES)
    if not membership.member:
        raise PreconditionNotVerified(
            f"grid margin {membership.min_re} <= 0 at radius {radius}"
        )
    peaks = [float(np.max(np.abs(f.eval_on_circle(r, GROWTH_ANGLES))))
             for r in GROWTH_RADII]
    worst = min(r / (1.0 - r) ** (1.0 / beta) - peak
                for r, peak in zip(GROWTH_RADII, peaks))
    return GrowthReport(
        ok=worst >= -GROWTH_TOLERANCE,
        worst_slack=worst,
        alpha=alpha,
        beta=beta,
        radii=GROWTH_RADII,
        narrow_hypothesis=alpha >= 0.5,
    )


def second_coeff_check(f: ComplexSeries, alpha: float) -> SecondCoeffReport:
    """Check |f''(0)| <= 2/beta for the growth exponent tied to alpha, for f
    normalized and of order 2 at least."""
    limit = 2.0 / _growth_beta(alpha)
    srs.require_normalized(f, 2)
    value = 2.0 * abs(f.coefficient(2))
    return SecondCoeffReport(value <= limit + GROWTH_TOLERANCE, value, limit)


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < math.inf:
        raise ParameterDomainError(f"beta must be finite and positive, got {beta}")


def growth_extremal(beta: float, order: int) -> ComplexSeries:
    """The function z*(1+z)^{-1/beta} as a series: the solution of
    z*f'/f = q = 1 - (1/beta)*z/(1+z), so q_k = -(1/beta)*(-1)^(k-1) for
    k >= 1, through order."""
    _check_beta(beta)
    check_order(order)
    q = np.ones(order, dtype=np.complex128)
    q[2::2] = -1.0
    with np.errstate(over="raise", invalid="raise"):  # tiny beta overflows
        q[1:] *= -1.0 / beta
        return ComplexSeries(srs._row_log_derivative(q[None, :])[0])


def growth_extremal_starlike_order(beta: float) -> float:
    """Starlikeness order of z*(1+z)^{-1/beta}: its z*f'/f maps the disk
    onto the half-plane Re w > 1 - 1/(2*beta)."""
    _check_beta(beta)
    return 1.0 - 1.0 / (2.0 * beta)


def growth_extremal_profile(beta: float, order: int) -> dict:
    """Series, starlikeness order, and the univalence expectation flag."""
    f = growth_extremal(beta, order)
    star_order = growth_extremal_starlike_order(beta)
    return {
        "beta": beta,
        "starlike_order": star_order,
        "not_univalent_expected": star_order < 0.0,
        "series": f,
    }

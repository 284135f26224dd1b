"""Disk criteria for spiral-likeness and the associated growth bounds.

The membership tests here are grid evaluations on circles |z| = r: the
quantities z*f'/f (spiral/starlike tests) and (1 + z*f''/f')/(z*f'/f)
(the quotient-deviation class) are sampled at equispaced angles and the
relevant real-part minimum or deviation maximum is reported.  By the
maximum principle the largest test radius is the binding one.

Instances that satisfy the quotient criteria are constructed forward:
given a source s with s(0) = 0, z*p' = s*p^2 with p(0) = 1 is linear in
1/p, so p is the series division 1/(1 - sum_k s_k z^k/k), and z*f'/f = p
then determines the member.  Constructing forward avoids inverting the
non-univalent target of the criterion, and exercises the implication in
the direction it is actually used.
"""

import cmath
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import series as srs
from .errors import (
    EvaluationSingularity,
    ParameterDomainError,
    PreconditionNotVerified,
)
from .series import ComplexSeries
from .subordination import _fit_rows, schwarz_rows

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

# points of the dense grid that gb_spiral_threshold searches before refining
THRESHOLD_GRID = 100_000

# samples built and checked together by spiral_check
SPIRAL_BLOCK = 64


@dataclass(frozen=True)
class SpiralParams:
    """Rotation angle alpha with |alpha| < pi/2.

    a_spiral is the unimodular constant exp(-2i*alpha) of the Moebius
    target.  When the same alpha is reused as a starlikeness order
    (0 <= alpha < 1) the growth exponent satisfies 1/beta = 2*(1-alpha);
    beta_for_growth exposes that value.
    """

    alpha: float

    def __post_init__(self):
        if not abs(self.alpha) < math.pi / 2:
            raise ParameterDomainError(f"need |alpha| < pi/2, got {self.alpha}")

    @property
    def a_spiral(self) -> complex:
        return cmath.exp(-2j * self.alpha)

    @property
    def beta_for_growth(self) -> float:
        if not 0.0 <= self.alpha < 1.0:
            raise ParameterDomainError(
                f"growth exponent needs 0 <= alpha < 1, got {self.alpha}"
            )
        return 1.0 / (2.0 * (1.0 - self.alpha))


class _Report:
    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SpiralReport(_Report):
    member: bool
    min_re: float
    radius: float
    angles: int
    winding: int


@dataclass(frozen=True)
class DeviationReport(_Report):
    member: bool
    max_dev: float
    radius: float
    angles: int
    winding: int


@dataclass(frozen=True)
class GrowthReport(_Report):
    ok: bool
    worst_slack: float
    alpha: float
    beta: float
    radii: tuple
    narrow_hypothesis: bool


@dataclass(frozen=True)
class SecondCoeffReport(_Report):
    ok: bool
    value: float
    limit: float


def winding_number(values: np.ndarray) -> int:
    """Winding of a sampled closed curve around 0 (sum of phase steps)."""
    shifted = np.roll(values, -1)
    return int(round(float(np.sum(np.angle(shifted / values))) / (2.0 * math.pi)))


def _grid_values(rows: np.ndarray, radius: float, angles: int, second: bool = False):
    """f, z*f' and, with second, z^2*f'' of each coefficient row on |z| = radius,
    shaped (2 or 3, rows, angles), from one circle_values call, and the
    winding of each f.  The criteria divide by f, and with second by f'."""
    ks = np.arange(rows.shape[1])
    parts = [rows, rows * ks] + ([rows * (ks * (ks - 1))] if second else [])
    vals = srs.circle_values(np.concatenate(parts), radius, angles)
    vals = vals.reshape(len(parts), len(rows), angles)
    floor = float(np.min(np.abs(vals[0])))
    if second:  # |f'| = |z*f'|/r on the circle
        floor = min(floor, float(np.min(np.abs(vals[1]))) / radius)
    if floor < SINGULARITY_FLOOR:
        raise EvaluationSingularity(
            f"|f| or |f'| < {SINGULARITY_FLOOR} on the radius-{radius} grid"
        )
    return vals, [winding_number(row) for row in vals[0]]


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
    rotation = cmath.exp(1j * SpiralParams(alpha).alpha)
    return _ratio_reports(np.array([f.coeffs]), rotation, 0.0, radius, angles)[0]


def starlike_membership(
    f: ComplexSeries, order_alpha: float, radius: float, angles: int
) -> SpiralReport:
    """Grid test of Re(z*f'/f) > order_alpha; min_re reports the margin."""
    if not 0.0 <= order_alpha < 1.0:
        raise ParameterDomainError(f"order must be in [0, 1), got {order_alpha}")
    return _ratio_reports(np.array([f.coeffs]), 1.0, order_alpha, radius, angles)[0]


def gb_membership(
    f: ComplexSeries, b: float, radius: float = DEFAULT_RADIUS,
    angles: int = DEFAULT_ANGLES,
) -> DeviationReport:
    """Grid test of |(1 + z*f''/f')/(z*f'/f) - 1| <= b.

    Membership additionally requires winding(f) = 1 on the circle (no
    stray zeros of f inside, same guard as the spiral test) and a
    zero-free f' there, i.e. winding(z*f') = 1.
    """
    if not 0.0 < b <= 1.0:
        raise ParameterDomainError(f"need 0 < b <= 1, got {b}")
    vals, (winding,) = _grid_values(np.array([f.coeffs]), radius, angles, True)
    f_vals, zfp, zzfpp = vals[:, 0]
    max_dev = float(np.max(np.abs((1.0 + zzfpp / zfp) / (zfp / f_vals) - 1.0)))
    member = max_dev <= b and winding == 1 and winding_number(zfp) == 1
    return DeviationReport(member, max_dev, radius, angles, winding)


def gb_spiral_threshold(alpha: float) -> float:
    """Largest quotient deviation b certified to imply spiral-likeness.

    Minimizes |(1+A)e^{i*t}/(1+A*e^{i*t})^2| over t for A = exp(-2i*alpha)
    on a grid of THRESHOLD_GRID points, then sharpens with golden-section
    search.  The value equals |1 + A|/4.
    """
    a = SpiralParams(alpha).a_spiral

    def objective(t: float) -> float:
        w = cmath.exp(1j * t)
        return abs((1.0 + a) * w / (1.0 + a * w) ** 2)

    ts = np.linspace(0.0, 2.0 * math.pi, THRESHOLD_GRID, endpoint=False)
    ws = np.exp(1j * ts)
    vals = np.abs((1.0 + a) * ws / (1.0 + a * ws) ** 2)
    best = int(np.argmin(vals))
    step = 2.0 * math.pi / THRESHOLD_GRID
    lo, hi = ts[best] - step, ts[best] + step

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(80):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = objective(x2)
    return min(f1, f2, float(vals[best]))


def gb_threshold_closed_form(alpha: float) -> float:
    """The grid-minimized threshold in closed form: |1 + exp(-2i*alpha)|/4."""
    return abs(1.0 + SpiralParams(alpha).a_spiral) / 4.0


def _ratio_rows(sources: np.ndarray) -> np.ndarray:
    """Rows p with z*p' = s*p^2 and p(0) = 1 for source rows s with s(0) = 0.

    1/p solves z*(1/p)' = -s, so p = 1/(1 - sum_k s_k z^k/k): one division.
    """
    if np.any(np.abs(sources[:, 0]) > srs.UNIT_TOLERANCE):
        raise ParameterDomainError("quotient source must vanish at the origin")
    unit = np.zeros(sources.shape, dtype=np.complex128)
    unit[:, 0] = 1.0
    denom = unit.copy()
    denom[:, 1:] = sources[:, 1:] / -np.arange(1.0, sources.shape[1])
    return srs._row_div(unit, denom)


def quotient_source_ratio(source: ComplexSeries, order: int) -> ComplexSeries:
    """Solve z*p' = source * p^2 with p(0) = 1 (source(0) must vanish)."""
    return ComplexSeries(_ratio_rows(_fit_rows([source.coeffs], order + 1))[0])


def _spiral_rows(omegas: np.ndarray, alpha: float) -> np.ndarray:
    """Members a_0..a_N for rows of Schwarz coefficients c_0..c_{N-1}.

    Pushes each row through the spiral criterion's target
    h(w) = (A+1)*w/(1+A*w)^2 and solves the two recurrences.
    """
    a = SpiralParams(alpha).a_spiral
    one = np.zeros(omegas.shape[1], dtype=np.complex128)
    one[0] = 1.0
    v = one + omegas * a
    source = srs._row_div(srs._row_div(omegas * (a + 1.0), v), v)
    return srs._row_log_derivative(_ratio_rows(source))


def build_spiral_instance(omega, alpha: float, order: int) -> ComplexSeries:
    """Member built to satisfy the spiral quotient criterion exactly; it is
    spiral-like with angle alpha by the criterion."""
    rows = _fit_rows([omega.coeffs], max(order, 1))
    return ComplexSeries(_spiral_rows(rows, alpha)[0])


def build_gb_instance(omega, b: float, order: int) -> ComplexSeries:
    """Member of the quotient-deviation class with deviation b*omega."""
    if not 0.0 < b <= 1.0:
        raise ParameterDomainError(f"need 0 < b <= 1, got {b}")
    sources = _fit_rows([omega.coeffs], max(order, 1)) * complex(b)
    return ComplexSeries(srs._row_log_derivative(_ratio_rows(sources))[0])


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
    rotation = cmath.exp(1j * SpiralParams(alpha).alpha)
    if samples < 1:
        raise ParameterDomainError(f"samples must be >= 1, got {samples}")
    # order 1 leaves only f = z, which passes without testing anything
    if order < 2:
        raise ParameterDomainError(f"order must be >= 2, got {order}")
    reports = []
    for lo in range(0, samples, SPIRAL_BLOCK):
        block = range(lo, min(samples, lo + SPIRAL_BLOCK))
        _, omegas = schwarz_rows(seed, block, degree, order, "polynomial_normalized")
        members = _spiral_rows(omegas, alpha)
        reports += _ratio_reports(members, rotation, 0.0, radius, angles)
    return reports


def growth_check(f: ComplexSeries, alpha: float) -> GrowthReport:
    """Check |f(z)| <= |z|/(1-|z|)^{1/beta} for a starlike f of order alpha.

    Membership (Re(z*f'/f) > alpha on |z| = GROWTH_MEMBERSHIP_RADIUS, 0.75)
    is verified first and a failure raises PreconditionNotVerified rather
    than reporting a bogus growth violation.  worst_slack is min of
    bound(|z|) - |f(z)| over the circles |z| in GROWTH_RADII (0.3, 0.5,
    0.6); ok means it stays above -GROWTH_TOLERANCE.  Every circle has
    GROWTH_ANGLES (1024) points.
    """
    beta = SpiralParams(alpha).beta_for_growth
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
    """Check |f''(0)| <= 2/beta for the growth exponent tied to alpha."""
    limit = 2.0 / SpiralParams(alpha).beta_for_growth
    value = 2.0 * abs(f.coefficient(2))
    return SecondCoeffReport(value <= limit + GROWTH_TOLERANCE, value, limit)


def growth_extremal(beta: float, order: int) -> ComplexSeries:
    """The function z*(1+z)^{-1/beta} as a series: the solution of
    z*f'/f = q = 1 - (1/beta)*z/(1+z), so q_k = -(1/beta)*(-1)^(k-1) for
    k >= 1, through order."""
    if beta <= 0.0:
        raise ParameterDomainError(f"beta must be positive, got {beta}")
    if order < 2:
        raise ParameterDomainError(f"order must be >= 2, got {order}")
    q = np.ones(order, dtype=np.complex128)
    q[2::2] = -1.0
    with np.errstate(over="raise", invalid="raise"):  # tiny beta overflows
        q[1:] *= -1.0 / beta
        return srs.solve_log_derivative(ComplexSeries(q))


def growth_extremal_starlike_order(beta: float) -> float:
    """Starlikeness order of z*(1+z)^{-1/beta}: its z*f'/f maps the disk
    onto the half-plane Re w > 1 - 1/(2*beta)."""
    if beta <= 0.0:
        raise ParameterDomainError(f"beta must be positive, got {beta}")
    return 1.0 - 1.0 / (2.0 * beta)


def growth_extremal_profile(beta: float, order: int) -> dict:
    """Series, starlikeness order, and the univalence expectation flag."""
    f = growth_extremal(beta, order)
    star_order = growth_extremal_starlike_order(beta)
    return {
        "beta": beta,
        "starlike_order": star_order,
        "not_univalent_expected": star_order < 0.0,
        "series": f.to_json_dict(),
    }

"""Disk criteria for spiral-likeness and the associated growth bounds.

The membership tests here are grid evaluations on circles |z| = r: the
quantities z*f'/f (spiral/starlike tests) and (1 + z*f''/f')/(z*f'/f)
(the quotient-deviation class) are sampled at equispaced angles and the
relevant real-part minimum or deviation maximum is reported.  By the
maximum principle the largest test radius is the binding one.

Instances that satisfy the quotient criteria are constructed forward,
which avoids inverting the criterion's non-univalent target: given a
source s with s(0) = 0, z*p' = s*p^2 with p(0) = 1 is linear in 1/p, so
p = 1/(1 - S) with S = sum_k s_k z^k/k.  z*f'/f = p determines the
member through z*f'*(1 - S) = f, one exact recurrence for z*f'
(series._row_log_derivative with the diagonal (k-1)/k); spiral_check
reads the criterion on 1/(1 - S) and builds no member.  A positive
margin min Re(e^{i*alpha}/u) puts every grid sample of u = 1 - S in the
half-plane Re(e^{-i*alpha}*u) > 0, where each principal phase step is
the continuous one and the steps sum to winding(u) = 0, so only rows of
margin <= 0 are wound.  The spiral source (A+1)*omega/(1+A*omega)^2 is
one series._row_div by the divisor's band; on omega = e^{i*theta}*z,
whose spiral member grows like n^cos(2*alpha), the members are within
1.9e-12 of their closed form at order 512 and 8.7e-12 at 2048.
"""

import cmath
import math
from typing import NamedTuple

import numpy as np

from . import series as srs
from .errors import EvaluationSingularity, ParameterDomainError, PreconditionNotVerified
from .params import check_angle, check_order, check_samples, reduce_subclass
from .series import ComplexSeries
from .subordination import member_from_schwarz, schwarz_rows

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

# samples checked together by spiral_check, as rows of one grid
SPIRAL_BLOCK = 64


class SpiralReport(NamedTuple):
    member: bool
    min_re: float
    radius: float
    angles: int
    winding: int


class DeviationReport(NamedTuple):
    member: bool
    max_dev: float
    radius: float
    angles: int
    winding: int


class GrowthReport(NamedTuple):
    ok: bool
    worst_slack: float
    alpha: float
    beta: float
    radii: tuple
    narrow_hypothesis: bool


class SecondCoeffReport(NamedTuple):
    ok: bool
    value: float
    limit: float


def _windings(values: np.ndarray) -> np.ndarray:
    """Winding around 0 of each row of a (rows, angles) array of samples of
    closed curves: the sum of its phase steps over 2*pi, rounded."""
    steps = np.angle(np.roll(values, -1, axis=1) / values)
    return np.rint(np.sum(steps, axis=1) / (2.0 * math.pi)).astype(int)


def winding_number(values: np.ndarray) -> int:
    """Winding of a sampled closed curve around 0 (sum of phase steps)."""
    return int(_windings(np.asarray(values)[None, :])[0])


def _grid_values(rows: np.ndarray, radius: float, angles: int, terms: int = 2):
    """The first `terms` of f, z*f', z^2*f'' of each coefficient row on
    |z| = radius, shaped (terms, rows, angles), from one circle_values call.
    The criteria divide by f, and with three terms by f', so either below
    SINGULARITY_FLOOR on the grid raises; the callers take windings of these
    samples, whose phase steps cancel at two or fewer, so angles >= 3."""
    if angles < 3:
        raise ParameterDomainError(f"a winding needs angles >= 3, got {angles}")
    ks = np.arange(rows.shape[1])
    factors = np.stack([np.ones_like(ks), ks, ks * (ks - 1)][:terms])
    vals = srs.circle_values(rows * factors[:, None, :], radius, angles)
    floor = float(np.min(np.abs(vals[0])))
    if terms == 3:  # |f'| = |z*f'|/r on the circle
        floor = min(floor, float(np.min(np.abs(vals[1]))) / radius)
    if floor < SINGULARITY_FLOOR:
        raise EvaluationSingularity(
            f"|f|, |f'| or |1 - S| < {SINGULARITY_FLOOR} on the radius-{radius} grid")
    return vals


def _reports(margins, windings, radius, angles) -> list:
    """Per row, the grid test margin > 0 of a margin min Re(rotation * z*f'/f)
    - shift.  The circle criterion certifies f only when f has no zero in the
    punctured disk, so membership also needs winding(f) = 1."""
    return [SpiralReport(bool(m > 0.0) and w == 1, float(m), radius, angles, w)
            for m, w in zip(margins, windings)]


def _member_report(f: ComplexSeries, rotation: complex, shift: float, radius, angles):
    f_vals, zfp_vals = _grid_values(f._c[None, :], radius, angles)
    margins = np.min((rotation * (zfp_vals / f_vals)).real, axis=1) - shift
    return _reports(margins, _windings(f_vals).tolist(), radius, angles)[0]


def spiral_membership(
    f: ComplexSeries, alpha: float, radius: float = DEFAULT_RADIUS,
    angles: int = DEFAULT_ANGLES,
) -> SpiralReport:
    """Grid test of Re(exp(i*alpha) * z*f'/f) > 0, with winding(f) = 1."""
    check_angle(alpha, "alpha")
    return _member_report(f, cmath.exp(1j * alpha), 0.0, radius, angles)


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
    return _member_report(f, 1.0, order_alpha, radius, angles)


def _check_deviation(b: float) -> None:
    if not 0.0 < b <= 1.0:
        raise ParameterDomainError(f"need 0 < b <= 1, got {b}")


def gb_membership(
    f: ComplexSeries, b: float, radius: float = DEFAULT_RADIUS,
    angles: int = DEFAULT_ANGLES,
) -> DeviationReport:
    """Grid test of |(1 + z*f''/f')/(z*f'/f) - 1| <= b for a normalized f.

    Membership additionally requires winding(f) = 1 on the circle (no
    stray zeros of f inside, same guard as the spiral test) and a
    zero-free f' there, i.e. winding(z*f') = 1.
    """
    _check_deviation(b)
    srs.require_normalized(f)
    f_vals, zfp, zzfpp = _grid_values(f._c[None, :], radius, angles, 3)[:, 0]
    (winding,) = _windings(f_vals[None, :]).tolist()
    max_dev = float(np.max(np.abs((1.0 + zzfpp / zfp) / (zfp / f_vals) - 1.0)))
    member = max_dev <= b and winding == 1 and winding_number(zfp) == 1
    return DeviationReport(member, max_dev, radius, angles, winding)


def gb_spiral_threshold(alpha: float) -> float:
    """The Jack-lemma constant b0 = |1 + A|/4 = cos(alpha)/2, A = exp(-2i*alpha):
    the radius of the largest disk about 0 in h(D), h(w) = (1+A)*w/(1+A*w)^2.
    A quotient deviation b <= b0 implies spiral-likeness, but b0 is not
    sharp.  The deviation is z*p'/p^2 = b*omega for p = z*f'/f, so
    1/p = 1 - b*W with W = int_0^z omega(t)/t dt, |W| < 1 by Schwarz's
    lemma, and Re(exp(-i*alpha)/p) > cos(alpha) - b: b <= cos(alpha)
    suffices, and omega = exp(i*alpha)*z fails for any larger b on
    |z| > cos(alpha)/b.  The sharp value is b* = cos(alpha).

    Minimizes m(t) = |h(e^{i*t})| on a zooming grid.  m has one minimum per
    period (|1 + A*e^{i*t}| peaks only at t = 2*alpha), within one grid step
    of the sampled argmin, so each pass recenters there and shrinks the
    half-width to that step; m is periodic, so a bracket may cross t = 0.
    m is quadratic at its minimum, so the last value is exact to rounding.
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


def _one_plus_integral(sources: np.ndarray, sign: float) -> np.ndarray:
    """Rows 1 + sign*S with S = sum_k s_k z^k/k, for source rows s_0..s_{N-1}
    with s(0) = 0: only the columns s_1.. are read."""
    out = np.ones_like(sources)
    out[:, 1:] = sources[:, 1:] / (sign * np.arange(1.0, sources.shape[1]))
    return out


def quotient_source_ratio(source: ComplexSeries, order: int) -> ComplexSeries:
    """Solve z*p' = source * p^2 with p(0) = 1 (source(0) must vanish).

    1/p solves z*(1/p)' = -s, so p = 1/(1 - sum_k s_k z^k/k): one row
    division.
    """
    s = srs.fit_row(source, order + 1)
    unit = np.eye(1, s.shape[1], dtype=np.complex128)
    return ComplexSeries(srs._row_div(unit, _one_plus_integral(s, -1.0))[0])


def _quotient_members(sources: np.ndarray) -> np.ndarray:
    """Members a_0..a_N with z*f'/f = p, z*p' = s*p^2 and p(0) = 1, for
    source rows s_0..s_{N-1} with s(0) = 0.

    p = 1/(1 - S) with S = sum_k s_k z^k/k, so D = z*f' solves
    z*f'*(1 - S) = f: D_1 = 1 and D_k*(k-1)/k = sum_{j<k} D_j S_{k-j}, the
    exact log-derivative recurrence on q = 1 + S, and a_k = D_k/k.
    """
    k = np.arange(sources.shape[1] + 1.0)
    divisors = ((k - 1.0) / np.maximum(k, 1.0)).astype(np.complex128)
    members = srs._row_log_derivative(_one_plus_integral(sources, 1.0), divisors)
    members[:, 1:] /= k[1:]
    return members


def _spiral_sources(omegas: np.ndarray, alpha: float) -> np.ndarray:
    """Sources s_0..s_{N-1} for rows of Schwarz coefficients c_0..c_{N-1}.

    Pushes each row through the spiral criterion's target
    h(w) = (A+1)*w/(1+A*w)^2, A = exp(-2i*alpha).  With d the last
    nonzero column of the rows, the divisor (1+A*omega)^2 has the 2*d+1
    columns that d+1 slice products form, so the source is one division by
    a band (series._row_div).  The callers check alpha, once per call.
    """
    a = cmath.exp(-2j * alpha)
    degree = int(max(np.flatnonzero(np.any(omegas, axis=0)), default=0))
    v = omegas[:, : degree + 1] * a
    v[:, 0] += 1.0
    square = np.zeros((omegas.shape[0], 2 * degree + 1), dtype=np.complex128)
    for j in range(degree + 1):
        square[:, j : j + degree + 1] += v[:, j : j + 1] * v
    return srs._row_div(omegas * (a + 1.0), square)


def _spiral_rows(omegas: np.ndarray, alpha: float) -> np.ndarray:
    """The spiral members a_0..a_N of Schwarz rows c_0..c_{N-1}."""
    return _quotient_members(_spiral_sources(omegas, alpha))


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
    return ComplexSeries(_quotient_members(srs.fit_row(omega, order) * complex(b))[0])


def spiral_check(
    alpha: float, seed: int, samples: int, degree: int, order: int, radius: float,
    angles: int,
) -> list:
    """The spiral criterion for the members of Schwarz samples 0..samples-1.

    Sample i is sample_schwarz((seed, i), degree) to c_{order-1}, and its
    member f is build_spiral_instance's of that order, but is not built:
    z*f'/f = 1/u with u = 1 - S, so the margin is min Re(exp(i*alpha)/u)
    from S_1..S_{order-1}, the S that determine a_0..a_order.  The guard
    winding(f) = 1 keeps z*f'/f analytic inside the circle; 1/u is so when
    winding(u) = 0, which a positive margin implies (module docstring); a
    report's winding is 1 + winding(u).  Blocks of samples are rows of one
    (block, angles) grid, which bounds its memory.  samples < 1 and order < 2
    are refused here, a negative seed or degree < 1 by the sampler.
    """
    check_angle(alpha, "alpha")
    rotation = cmath.exp(1j * alpha)
    check_samples(samples)
    check_order(order)
    reports = []
    for lo in range(0, samples, SPIRAL_BLOCK):
        block = range(lo, min(samples, lo + SPIRAL_BLOCK))
        _, omegas = schwarz_rows(seed, block, degree, order, "polynomial_normalized")
        u = _one_plus_integral(_spiral_sources(omegas, alpha), -1.0)
        (vals,) = _grid_values(u, radius, angles, 1)
        margins = np.min((rotation / vals).real, axis=1)
        windings = np.ones(len(block), dtype=int)  # 1 + winding(u)
        failing = ~(margins > 0.0)  # winding(u) = 0 at a positive margin
        windings[failing] += _windings(vals[failing])
        reports += _reports(margins, windings.tolist(), radius, angles)
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
            f"grid margin {membership.min_re} <= 0 at radius {radius}")
    peaks = [float(np.max(np.abs(f.eval_on_circle(r, GROWTH_ANGLES))))
             for r in GROWTH_RADII]
    worst = min(r / (1.0 - r) ** (1.0 / beta) - peak
                for r, peak in zip(GROWTH_RADII, peaks))
    return GrowthReport(worst >= -GROWTH_TOLERANCE, worst, alpha, beta, GROWTH_RADII,
                        narrow_hypothesis=alpha >= 0.5)


def second_coeff_check(f: ComplexSeries, alpha: float) -> SecondCoeffReport:
    """Check |f''(0)| <= 2/beta for the growth exponent tied to alpha, for f
    normalized and of order 2 at least."""
    limit = 2.0 / _growth_beta(alpha)
    srs.require_normalized(f, 2)
    value = 2.0 * abs(f.coefficient(2))
    return SecondCoeffReport(value <= limit + GROWTH_TOLERANCE, value, limit)


def _check_beta(beta: float) -> None:
    if not (0.0 < beta < math.inf and 0.5 / beta < math.inf):
        raise ParameterDomainError(
            f"beta must be finite and positive, got {beta}; so must 1/(2*beta)")


def growth_extremal(beta: float, order: int) -> ComplexSeries:
    """The function z*(1+z)^{-1/beta} through order: the member of
    omega = -z in Sstar(1/(2*beta)), so z*f'/f = 1 - (1/beta)*z/(1+z).  A
    coefficient past the double range, as for tiny beta, raises the member
    builder's FloatingPointError, in which |gamma*(A-B)| = 1/beta."""
    _check_beta(beta)
    sstar = reduce_subclass("Sstar", gamma=0.5 / beta).params
    return member_from_schwarz(srs.monomial(-1.0, 1, 1), sstar, order)


def growth_extremal_starlike_order(beta: float) -> float:
    """Starlikeness order of z*(1+z)^{-1/beta}: its z*f'/f maps the disk
    onto the half-plane Re w > 1 - 1/(2*beta)."""
    _check_beta(beta)
    return 1.0 - 1.0 / (2.0 * beta)


def growth_extremal_profile(beta: float, order: int) -> dict:
    """Series, starlikeness order, and the univalence expectation flag."""
    f, star_order = growth_extremal(beta, order), growth_extremal_starlike_order(beta)
    return {"beta": beta, "starlike_order": star_order,
            "not_univalent_expected": star_order < 0.0, "series": f}

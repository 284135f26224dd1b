"""Schwarz-function construction, membership tests, and the bound fuzzer.

A Schwarz function here is a polynomial omega with omega(0) = 0 that maps
the unit disk into itself.  Members of the subordination class are built
from omega by solving z*F' = F*Q coefficient-wise with
Q = 1 + gamma*(A-B)*omega/(1 + B*omega), then dividing out the weights
1 + lambda*(k-1).  Recovering omega from a member inverts the Moebius
target pointwise on series: omega = (P-1)/(A - B*P).

The fuzzer drives many random Schwarz samples through this construction
and compares each |a_n| against the bound formulas.  Everything is keyed
off a single integer seed; sample i owns the RNG stream seeded by
(seed, i), so identical seeds give byte-identical reports.  The samples
of one run are built together: the recurrences step over the coefficient
index k with every sample in one row of a 2-D array.
"""

from dataclasses import dataclass

import numpy as np

from . import series as srs
from .bounds import coefficient_bound
from .errors import InversionSingular, ParameterDomainError
from .params import ClassParams
from .series import ComplexSeries

CONSTRUCTIONS = ("polynomial_normalized", "rotation", "monomial")

# Largest index the per-sample quadratic-sum inequality is checked at; the
# check needs all lower coefficients, so cost grows quadratically with it.
QUADRATIC_CHECK_LIMIT = 10

_SUP_GRID_RADIUS = 0.99
_SUP_GRID_ANGLES = 256


@dataclass(frozen=True)
class SchwarzSample:
    """A polynomial self-map of the disk with omega(0) = 0.

    sup_estimate is the max of |omega| over a fixed boundary-adjacent
    grid; the polynomial_normalized construction additionally guarantees
    sum_j |c_j| <= 1, which certifies |omega| < 1 analytically.
    """

    omega: ComplexSeries
    sup_estimate: float
    construction: str
    seed: tuple | None

    def to_json_dict(self) -> dict:
        return {
            "omega": self.omega.to_json_dict(),
            "sup_estimate": self.sup_estimate,
            "construction": self.construction,
            "seed": list(self.seed) if self.seed is not None else None,
        }


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    margin: float
    radius_used: float
    angles_used: int

    def to_json_dict(self) -> dict:
        return {
            "member": self.member,
            "margin": self.margin,
            "radius": self.radius_used,
            "angles": self.angles_used,
        }


def _grid_sup(omega: ComplexSeries) -> float:
    vals = omega.eval_on_circle(_SUP_GRID_RADIUS, _SUP_GRID_ANGLES)
    return float(np.max(np.abs(vals)))


def _draw_omega(
    seed,
    degree: int,
    construction: str,
    rho: float | None = None,
    theta: float | None = None,
) -> np.ndarray:
    """Coefficients c_0..c_m of a Schwarz polynomial drawn from seed's stream."""
    if degree < 1:
        raise ParameterDomainError(f"degree must be >= 1, got {degree}")
    if construction not in CONSTRUCTIONS:
        raise ParameterDomainError(
            f"unknown construction {construction!r}; expected one of {CONSTRUCTIONS}"
        )
    rng = np.random.default_rng(seed)

    if construction == "rotation":
        if theta is None:
            theta = float(rng.uniform(0.0, 2.0 * np.pi))
        return np.array([0.0, srs.exp_i(theta)], dtype=np.complex128)
    if rho is None:
        rho = 1.0 - float(rng.random())
    if not 0.0 < rho <= 1.0:
        raise ParameterDomainError(f"rho must be in (0, 1], got {rho}")
    coeffs = np.zeros(degree + 1, dtype=np.complex128)
    if construction == "monomial":
        coeffs[degree] = rho
        return coeffs
    c = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
    total = float(np.sum(np.abs(c)))
    if total == 0.0:
        c = np.ones(degree, dtype=np.complex128)
        total = float(degree)
    coeffs[1:] = c * (rho / total)
    return coeffs


def sample_schwarz(
    seed,
    degree: int,
    construction: str = "polynomial_normalized",
    rho: float | None = None,
    theta: float | None = None,
) -> SchwarzSample:
    """Draw a random Schwarz polynomial, reproducibly for a given seed.

    polynomial_normalized: omega = z * sum_{j<d} c_j z^j with the c_j
    rescaled so sum|c_j| = rho for a random rho in (0, 1].
    rotation: omega = exp(i*theta) * z.  monomial: omega = rho * z^d.
    """
    omega = ComplexSeries(_draw_omega(seed, degree, construction, rho, theta))
    seed_tuple = tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)
    return SchwarzSample(omega, _grid_sup(omega), construction, seed_tuple)


def member_from_schwarz(omega, p: ClassParams, order: int) -> ComplexSeries:
    """The unique normalized class member generated by a Schwarz polynomial.

    omega may be a SchwarzSample or a plain series with zero constant
    term; it is treated as an exact polynomial and zero-padded as needed.
    """
    if order < 1:
        raise ParameterDomainError("order must be at least 1")
    rows = _padded_row(omega, order)
    if abs(rows[0, 0]) > srs.UNIT_TOLERANCE:
        raise ParameterDomainError("omega must vanish at the origin")
    return ComplexSeries(_member_rows(rows, p)[0])


def _padded_row(series, width: int) -> np.ndarray:
    """The first width coefficients of a series (or of a SchwarzSample's
    omega), zero-padded, as one row."""
    coeffs = (series.omega if isinstance(series, SchwarzSample) else series).coeffs
    row = np.zeros((1, width), dtype=np.complex128)
    row[0, : min(width, len(coeffs))] = coeffs[:width]
    return row


def _member_rows(omegas: np.ndarray, p: ClassParams) -> np.ndarray:
    """Members a_0..a_N generated by each row of Schwarz coefficients c_0..c_{N-1}.

    Row for row this is Q = 1 + base*omega/(1 + B*omega), then
    series.solve_log_derivative(Q), then the 1 + lambda*(k-1) weights
    divided out, with the same floating-point operations in the same
    order as the series methods; the recurrences step over k with all
    rows at once.
    """
    one = np.zeros(omegas.shape[1], dtype=np.complex128)
    one[0] = 1.0
    denom = one + omegas * complex(p.b)
    num = omegas * complex(p.product_base())
    big_f = srs._row_log_derivative(one + srs._row_div(num, denom))
    ks = np.arange(big_f.shape[1])
    big_f[:, 1:] = big_f[:, 1:] / (1.0 + p.lam * (ks[1:] - 1))
    return big_f


def schwarz_from_member(f: ComplexSeries, p: ClassParams) -> SchwarzSample:
    """Recover the Schwarz series that generates a given member.

    Inverts P = (1+A*w)/(1+B*w) as omega = (P-1)/(A - B*P), where P is
    the subordinated quantity 1 + (1/gamma)*(zF'/F - 1).  The recovered
    series has order f.order - 1.
    """
    srs.require_normalized(f)
    coeffs = np.asarray(f.coeffs, dtype=np.complex128)
    ks = np.arange(len(coeffs))
    big_f = coeffs * (1.0 + p.lam * np.maximum(ks - 1, 0))
    u = ComplexSeries(big_f[1:])  # F/z, a unit series
    z_u_prime = u.z_derivative()
    ratio = z_u_prime.div(u).scale(1.0 / p.gamma)  # (1/gamma)*(zF'/F - 1)
    denom = ratio.scale(-p.b) + (p.a - p.b)  # A - B*P
    if abs(denom.coefficient(0)) <= srs.UNIT_TOLERANCE:
        raise InversionSingular("Moebius inversion is singular: A - B*P(0) ~ 0")
    omega = ratio.div(denom)
    return SchwarzSample(omega, _grid_sup(omega), "recovered", None)


def is_member(
    f: ComplexSeries,
    p: ClassParams,
    radius: float = 0.99,
    angles: int = 2048,
    tolerance: float = 1e-6,
) -> MembershipReport:
    """Grid membership test: recover omega and check |omega| < 1.

    The margin is 1 - max|omega| over the grid; boundary-touching
    extremal members sit at margin -> 0+, so a small negative tolerance
    still counts as membership.
    """
    sample = schwarz_from_member(f, p)
    vals = sample.omega.eval_on_circle(radius, angles)
    margin = 1.0 - float(np.max(np.abs(vals)))
    return MembershipReport(margin > -tolerance, margin, radius, angles)


def quadratic_sum_slack(f: ComplexSeries, p: ClassParams, n: int) -> float:
    """Normalized slack of the quadratic coefficient inequality at index n.

    Every member satisfies

      (n-1)^2 (1+lambda*(n-1))^2 |a_n|^2
        <= |gamma|^2 (A-B)^2
           + sum_{k=2}^{n-1} (|gamma*(A-B) - B*(k-1)|^2 - (k-1)^2)
                             * (1+lambda*(k-1))^2 |a_k|^2.

    Returns (rhs - lhs) / max(1, lhs, rhs); both sides grow like n^2 * n^2
    at the extremal members, so the slack is scaled before comparing it
    against a fixed tolerance.  Nonnegative up to rounding for members.
    """
    if n < 2 or n > f.order:
        raise ParameterDomainError(f"need 2 <= n <= {f.order}, got {n}")
    coeffs = np.asarray(f.coeffs[2 : n + 1], dtype=np.complex128)
    return float(_quadratic_slacks(_moduli(coeffs[None, :]), p)[0, -1])


def _moduli(z: np.ndarray) -> np.ndarray:
    """|z| elementwise, rounded as Python's abs(complex) rounds (np.abs is not)."""
    return np.hypot(z.real, z.imag)


def _quadratic_slacks(moduli: np.ndarray, p: ClassParams) -> np.ndarray:
    """quadratic_sum_slack at n = 2..m+1 for rows of moduli |a_2|..|a_{m+1}|.

    The right-hand side is a running sum over n.  The per-index factors
    are Python floats and squares go through pow (np.float_power), so each
    entry rounds as the scalar formula in quadratic_sum_slack's docstring
    does when evaluated left to right.
    """
    rows, m = moduli.shape
    base = p.product_base()
    ks = range(2, m + 2)
    lhs_scale = np.array([(k - 1) * (1.0 + p.lam * (k - 1)) for k in ks])
    weight_scale = np.array([(1.0 + p.lam * (k - 1)) ** 2 for k in ks])
    margins = np.array([abs(base - p.b * (k - 1)) ** 2 - (k - 1) ** 2 for k in ks])
    lhs = np.float_power(lhs_scale * moduli, 2.0)
    terms = margins * (weight_scale * np.float_power(moduli, 2.0))
    rhs = np.empty((rows, m))
    rhs[:, 0] = abs(base) ** 2
    rhs[:, 1:] = terms[:, :-1]
    np.cumsum(rhs, axis=1, out=rhs)
    return (rhs - lhs) / np.maximum(np.maximum(1.0, lhs), np.abs(rhs))


@dataclass(frozen=True)
class FuzzIndexStats:
    n: int
    bound: float
    case_tag: str
    max_observed: float
    argmax_index: int | None
    argmax_seed: tuple | None
    violations: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "bound": self.bound,
            "case": self.case_tag,
            "max_observed": self.max_observed,
            "argmax_index": self.argmax_index,
            "argmax_seed": list(self.argmax_seed) if self.argmax_seed else None,
            "violations": self.violations,
        }


@dataclass(frozen=True)
class FuzzReport:
    params: ClassParams
    seed: int
    samples: int
    degree: int
    n_max: int
    constructions: dict
    per_index: tuple
    quadratic_checked_to: int
    quadratic_violations: int
    quadratic_min_slack: float

    def total_violations(self) -> int:
        return sum(row.violations for row in self.per_index)

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json_dict(),
            "seed": self.seed,
            "samples": self.samples,
            "degree": self.degree,
            "n_max": self.n_max,
            "constructions": {k: self.constructions[k] for k in CONSTRUCTIONS},
            "per_n": [row.to_json_dict() for row in self.per_index],
            "quadratic_inequality": {
                "checked_to": self.quadratic_checked_to,
                "violations": self.quadratic_violations,
                "min_slack": self.quadratic_min_slack,
            },
            "total_violations": self.total_violations(),
        }


def _pick_construction(rng) -> str:
    u = rng.random()
    if u < 0.8:
        return "polynomial_normalized"
    if u < 0.9:
        return "rotation"
    return "monomial"


def fuzz_bounds(
    p: ClassParams,
    n_max: int,
    samples: int,
    seed: int,
    degree: int = 4,
    violation_rtol: float = 1e-9,
) -> FuzzReport:
    """Stress-test the bound formulas with random Schwarz samples.

    For each sample, builds the member, records |a_n| for 2 <= n <= n_max
    against the bound (violation when |a_n| > bound*(1+violation_rtol)),
    and checks the quadratic coefficient inequality for n up to 10.
    Sample i draws from the streams (seed, i) and (seed, i, 1) only, and
    all samples are then built and checked together as rows of one array.
    """
    if n_max < 2:
        raise ParameterDomainError(f"n_max must be >= 2, got {n_max}")
    if samples < 1:
        raise ParameterDomainError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ParameterDomainError("seed must be a nonnegative integer")
    indices = range(2, n_max + 1)
    bounds = [coefficient_bound(p, n) for n in indices]
    check_to = min(n_max, QUADRATIC_CHECK_LIMIT)

    # omega's coefficients c_0..c_{n_max-1} fix the member through a_{n_max}
    omegas = np.zeros((samples, n_max), dtype=np.complex128)
    construction_counts = {name: 0 for name in CONSTRUCTIONS}
    for index in range(samples):
        # the construction pick owns its own stream so it does not bias the
        # draws from (seed, index)
        construction = _pick_construction(np.random.default_rng((seed, index, 1)))
        construction_counts[construction] += 1
        coeffs = _draw_omega((seed, index), degree, construction)[:n_max]
        omegas[index, : coeffs.size] = coeffs

    moduli = _moduli(_member_rows(omegas, p)[:, 2:])
    limits = np.array([b.value for b in bounds]) * (1.0 + violation_rtol)
    violations = np.count_nonzero(moduli > limits, axis=0)
    max_observed = moduli.max(axis=0)
    # the first sample to reach the column maximum; none when every |a_n| is 0
    argmax = [
        int(i) if top > 0.0 else None
        for i, top in zip(moduli.argmax(axis=0), max_observed)
    ]
    min_slacks = _quadratic_slacks(moduli[:, : check_to - 1], p).min(axis=1)

    per_index = tuple(
        FuzzIndexStats(
            n,
            bound.value,
            bound.case_tag,
            float(max_observed[j]),
            argmax[j],
            None if argmax[j] is None else (seed, argmax[j]),
            int(violations[j]),
        )
        for j, (n, bound) in enumerate(zip(indices, bounds))
    )
    return FuzzReport(
        params=p,
        seed=seed,
        samples=samples,
        degree=degree,
        n_max=n_max,
        constructions=construction_counts,
        per_index=per_index,
        quadratic_checked_to=check_to,
        quadratic_violations=int(np.count_nonzero(min_slacks < -violation_rtol)),
        quadratic_min_slack=float(min_slacks.min()),
    )

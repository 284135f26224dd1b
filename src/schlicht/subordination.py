"""Schwarz-function construction, membership tests, and the bound fuzzer.

A Schwarz function here is a polynomial omega with omega(0) = 0 that maps
the unit disk into itself.  Members of the subordination class are built
from omega by solving z*F' = F*Q coefficient-wise with
Q = 1 + gamma*(A-B)*omega/(1 + B*omega), then dividing out the weights
1 + lambda*(k-1).  This is the only construction of a member from omega;
the extremals are the members of omega = z and omega = z^(n-1).
Recovering omega from a member inverts the Moebius target pointwise on
series: omega = (P-1)/(A - B*P).

The fuzzer drives many random Schwarz samples through this construction
and compares each |a_n| against the bound formulas.  Everything is keyed
off a single integer seed; sample i owns the RNG stream seeded by
(seed, i), so identical seeds give byte-identical reports.  The samples
of one run are built together: the recurrences step over the coefficient
index k with every sample in one row of a 2-D array.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from . import series as srs
from .bounds import bound_sweep
from .errors import InversionSingular, ParameterDomainError
from .params import ClassParams
from .series import ComplexSeries

CONSTRUCTIONS = ("polynomial_normalized", "rotation", "monomial")

# Largest index the per-sample quadratic-sum inequality is checked at; the
# check needs all lower coefficients, so cost grows quadratically with it.
QUADRATIC_CHECK_LIMIT = 10

# A fuzzed |a_n| violates its bound when it exceeds bound*(1+VIOLATION_RTOL);
# a quadratic slack below -VIOLATION_RTOL is a violation too.
VIOLATION_RTOL = 1e-9

# is_member's grid, MEMBERSHIP_ANGLES points of |z| = MEMBERSHIP_RADIUS, and
# how far below 0 the margin 1 - max|omega| may fall for a member
MEMBERSHIP_RADIUS = 0.99
MEMBERSHIP_ANGLES = 2048
MEMBERSHIP_TOLERANCE = 1e-6


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    margin: float

    def to_json_dict(self) -> dict:
        return {
            "member": self.member,
            "margin": self.margin,
            "radius": MEMBERSHIP_RADIUS,
            "angles": MEMBERSHIP_ANGLES,
        }


def _draw_omega(seed, degree: int, construction: str) -> np.ndarray:
    """Coefficients c_0..c_m of a Schwarz polynomial drawn from seed's stream."""
    if degree < 1:
        raise ParameterDomainError(f"degree must be >= 1, got {degree}")
    if construction not in CONSTRUCTIONS:
        raise ParameterDomainError(
            f"unknown construction {construction!r}; expected one of {CONSTRUCTIONS}"
        )
    rng = np.random.default_rng(seed)

    if construction == "rotation":
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        return np.array([0.0, cmath.exp(1j * theta)], dtype=np.complex128)
    rho = 1.0 - float(rng.random())  # in (0, 1]
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
    seed, degree: int, construction: str = "polynomial_normalized"
) -> ComplexSeries:
    """Draw a random Schwarz polynomial, reproducibly for a given seed.

    polynomial_normalized: omega = z * sum_{j<d} c_j z^j with the c_j
    rescaled so sum|c_j| = rho.  rotation: omega = exp(i*theta) * z.
    monomial: omega = rho * z^d.  rho in (0, 1] and theta in [0, 2*pi)
    are drawn from seed's stream too.
    """
    return ComplexSeries(_draw_omega(seed, degree, construction))


def member_from_schwarz(omega, p: ClassParams, order: int) -> ComplexSeries:
    """The unique normalized class member generated by a Schwarz polynomial.

    omega must have zero constant term; it is treated as an exact
    polynomial and zero-padded as needed.
    """
    if order < 1:
        raise ParameterDomainError("order must be at least 1")
    rows = _fit_rows([omega.coeffs], order)
    if abs(rows[0, 0]) > srs.UNIT_TOLERANCE:
        raise ParameterDomainError("omega must vanish at the origin")
    return ComplexSeries(_member_rows(rows, p)[0])


def _fit_rows(coeff_rows, width: int) -> np.ndarray:
    """Coefficient vectors as the rows of one array, each zero-padded or
    truncated to width."""
    rows = np.zeros((len(coeff_rows), width), dtype=np.complex128)
    for row, coeffs in zip(rows, coeff_rows):
        coeffs = np.asarray(coeffs)[:width]
        row[: coeffs.size] = coeffs
    return rows


def _weights(width: int, lam: float) -> np.ndarray:
    """Weights 1 + lambda*max(k-1, 0) of the coefficients a_0..a_{width-1}."""
    return 1.0 + lam * np.maximum(np.arange(width) - 1, 0)


def _member_rows(omegas: np.ndarray, p: ClassParams) -> np.ndarray:
    """Members a_0..a_N generated by each row of Schwarz coefficients c_0..c_{N-1}.

    Row for row this is Q = 1 + base*omega/(1 + B*omega), then
    series.solve_log_derivative(Q), then the weights divided out, with the
    same floating-point operations in the same order as the series
    methods; the recurrences step over k with all rows at once.  With
    B = 0 the division is skipped.
    """
    one = np.zeros(omegas.shape[1], dtype=np.complex128)
    one[0] = 1.0
    num = omegas * complex(p.product_base())
    if p.b != 0.0:
        # with B = 0 the divisor is the constant 1, and the quotient is num
        # up to the signs of zero parts
        num = srs._row_div(num, one + omegas * complex(p.b))
    big_f = srs._row_log_derivative(one + num)
    return big_f / _weights(big_f.shape[1], p.lam)


def schwarz_from_member(f: ComplexSeries, p: ClassParams) -> ComplexSeries:
    """Recover the Schwarz series that generates a given member.

    Inverts P = (1+A*w)/(1+B*w) as omega = (P-1)/(A - B*P), where P is
    the subordinated quantity 1 + (1/gamma)*(zF'/F - 1).  The recovered
    series has order f.order - 1.
    """
    srs.require_normalized(f)
    coeffs = np.asarray(f.coeffs, dtype=np.complex128)
    big_f = coeffs * _weights(coeffs.size, p.lam)
    u = ComplexSeries(big_f[1:])  # F/z, a unit series
    z_u_prime = u.z_derivative()
    ratio = z_u_prime.div(u).scale(1.0 / p.gamma)  # (1/gamma)*(zF'/F - 1)
    denom = ratio.scale(-p.b) + (p.a - p.b)  # A - B*P
    if abs(denom.coefficient(0)) <= srs.UNIT_TOLERANCE:
        raise InversionSingular("Moebius inversion is singular: A - B*P(0) ~ 0")
    return ratio.div(denom)


def is_member(f: ComplexSeries, p: ClassParams) -> MembershipReport:
    """Grid membership test: recover omega and check |omega| < 1.

    The margin is 1 - max|omega| over the fixed grid of MEMBERSHIP_ANGLES
    points on |z| = MEMBERSHIP_RADIUS (0.99, 2048); boundary-touching
    extremal members sit at margin -> 0+, so a margin above
    -MEMBERSHIP_TOLERANCE (-1e-6) still counts as membership.
    """
    omega = schwarz_from_member(f, p)
    vals = omega.eval_on_circle(MEMBERSHIP_RADIUS, MEMBERSHIP_ANGLES)
    margin = 1.0 - float(np.max(np.abs(vals)))
    return MembershipReport(margin > -MEMBERSHIP_TOLERANCE, margin)


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
    are doubles and squares go through pow (np.float_power), so each
    entry rounds as the scalar formula in quadratic_sum_slack's docstring
    does when evaluated left to right.
    """
    rows, m = moduli.shape
    base = p.product_base()
    ks = range(2, m + 2)
    weights = _weights(m + 2, p.lam)[2:]
    lhs_scale = np.arange(1, m + 1) * weights
    weight_scale = np.float_power(weights, 2.0)
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
    p: ClassParams, n_max: int, samples: int, seed: int, degree: int = 4
) -> FuzzReport:
    """Stress-test the bound formulas with random Schwarz samples.

    For each sample, builds the member, records |a_n| for 2 <= n <= n_max
    against the bound (violation when |a_n| > bound*(1+VIOLATION_RTOL)),
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
    bounds = bound_sweep(p, 2, n_max)
    check_to = min(n_max, QUADRATIC_CHECK_LIMIT)

    # the construction pick owns its own stream so it does not bias the
    # draws from (seed, index)
    constructions = [
        _pick_construction(np.random.default_rng((seed, index, 1)))
        for index in range(samples)
    ]
    # omega's coefficients c_0..c_{n_max-1} fix the member through a_{n_max}
    draws = [_draw_omega((seed, i), degree, c) for i, c in enumerate(constructions)]
    omegas = _fit_rows(draws, n_max)

    moduli = _moduli(_member_rows(omegas, p)[:, 2:])
    limits = np.array([b.value for b in bounds]) * (1.0 + VIOLATION_RTOL)
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
        constructions={name: constructions.count(name) for name in CONSTRUCTIONS},
        per_index=per_index,
        quadratic_checked_to=check_to,
        quadratic_violations=int(np.count_nonzero(min_slacks < -VIOLATION_RTOL)),
        quadratic_min_slack=float(min_slacks.min()),
    )

"""Extremal members that attain the sharp bounds, plus certification.

Both families are built from a closed-form source series G and the
coefficient-wise solution of lambda*z*f' + (1-lambda)*f = G, i.e.
a_k = g_k / (1 + lambda*(k-1)).  Solving the linear ODE this way avoids
fractional powers of t that show up in the equivalent integral forms and
produces identical coefficients.

B = 0 is a removable singularity of the exponents and is handled through
the exponential limit forms, never by evaluating gamma*(A-B)/B at B=0.
"""

import numpy as np
from dataclasses import dataclass

from . import series as srs
from .bounds import cauchy_euler_factor, reduction_bound
from .errors import ParameterDomainError
from .params import CauchyEulerParams, ClassParams, Reduction
from .series import ComplexSeries

EXTREMAL_KINDS = ("case-i", "case-ii", "koebe-gamma", "convex-gamma", "starlike-n")

# Relative tolerance for "the extremal attains the bound"; product chains of
# length <= 50 in double precision stay far inside this.
ATTAINMENT_RTOL = 1e-8


@dataclass(frozen=True)
class ExtremalSpec:
    """Which extremal to build, for which parameters, at which order."""

    kind: str
    params: ClassParams
    order: int
    n: int | None = None
    cauchy_euler: CauchyEulerParams | None = None

    def __post_init__(self):
        if self.kind not in EXTREMAL_KINDS:
            raise ParameterDomainError(
                f"unknown extremal kind {self.kind!r}; expected one of {EXTREMAL_KINDS}"
            )
        if self.kind in ("case-i", "starlike-n"):
            if self.n is None or self.n < 2:
                raise ParameterDomainError(f"kind {self.kind!r} needs a target n >= 2")
            if self.order < self.n:
                raise ParameterDomainError("order must be at least the target index n")


@dataclass(frozen=True)
class SharpnessRecord:
    """Gap between a bound and the |a_n| its candidate extremal achieves."""

    n: int
    bound: float
    observed: float
    gap: float
    attained: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "bound": self.bound,
            "observed": self.observed,
            "gap": self.gap,
            "attained": self.attained,
        }


def _solve_weighted_ode(source: ComplexSeries, lam: float) -> ComplexSeries:
    """Coefficients of f with lam*z*f' + (1-lam)*f = source (source(0)=0)."""
    g = np.asarray(source.coeffs, dtype=np.complex128)
    out = np.zeros_like(g)
    ks = np.arange(len(g))
    out[1:] = g[1:] / (1.0 + lam * (ks[1:] - 1))
    return ComplexSeries(out)


def extremal_case_i(p: ClassParams, n: int, order: int) -> ComplexSeries:
    """Member whose |a_n| equals the case-I bound at the single index n.

    Source: z*(1 + B*z^{n-1})^{gamma*(A-B)/(B*(n-1))} for B != 0, and its
    B -> 0 limit z*exp(gamma*A*z^{n-1}/(n-1)) otherwise.
    """
    if n < 2:
        raise ParameterDomainError(f"index n must be >= 2, got {n}")
    if order < n:
        raise ParameterDomainError(f"order {order} is below the target index {n}")
    if p.b != 0.0:
        exponent = p.product_base() / (p.b * (n - 1))
        base = srs.constant(1.0, order - 1) + srs.monomial(p.b, n - 1, order - 1)
        source = base.powc(exponent).times_z()
    else:
        arg = srs.monomial(p.gamma * p.a / (n - 1), n - 1, order - 1)
        source = arg.exp0().times_z()
    return _solve_weighted_ode(source, p.lam)


def extremal_case_ii(p: ClassParams, order: int) -> ComplexSeries:
    """Member whose |a_n| equals the case-II bound at every admissible n.

    Source: z*(1 + B*z)^{gamma*(A-B)/B} for B != 0, else z*exp(gamma*A*z).
    """
    if order < 1:
        raise ParameterDomainError("order must be at least 1")
    if p.b != 0.0:
        exponent = p.product_base() / p.b
        base = srs.constant(1.0, order - 1) + srs.monomial(p.b, 1, order - 1)
        source = base.powc(exponent).times_z()
    else:
        arg = srs.monomial(p.gamma * p.a, 1, order - 1)
        source = arg.exp0().times_z()
    return _solve_weighted_ode(source, p.lam)


def transfer_cauchy_euler(g: ComplexSeries, ce: CauchyEulerParams) -> ComplexSeries:
    """Map a class member to the matching Cauchy-Euler solution.

    Coefficient n picks up the factor prod_j (mu+j+1)/(mu+j+n), which is
    identically 1 at n = 1, so normalization survives the transfer.
    """
    srs.require_normalized(g)
    out = np.array(g.coeffs, dtype=np.complex128)
    for n in range(2, len(out)):
        out[n] *= cauchy_euler_factor(ce, n)
    return ComplexSeries(out)


def build_extremal(spec: ExtremalSpec) -> ComplexSeries:
    """Construct the series an ExtremalSpec describes."""
    p = spec.params
    if spec.kind == "case-i":
        f = extremal_case_i(p, spec.n, spec.order)
    elif spec.kind == "case-ii":
        f = extremal_case_ii(p, spec.order)
    elif spec.kind == "koebe-gamma":
        f = extremal_case_ii(ClassParams(p.gamma, 0.0, 1.0, -1.0), spec.order)
    elif spec.kind == "convex-gamma":
        f = extremal_case_ii(ClassParams(p.gamma, 1.0, 1.0, -1.0), spec.order)
    else:  # starlike-n
        f = extremal_case_i(ClassParams(p.gamma, 0.0, 1.0, -1.0), spec.n, spec.order)
    if spec.cauchy_euler is not None:
        f = transfer_cauchy_euler(f, spec.cauchy_euler)
    return f


def _bound_params_for(spec: ExtremalSpec) -> ClassParams:
    p = spec.params
    if spec.kind in ("koebe-gamma", "starlike-n"):
        return ClassParams(p.gamma, 0.0, 1.0, -1.0)
    if spec.kind == "convex-gamma":
        return ClassParams(p.gamma, 1.0, 1.0, -1.0)
    return p


def certify_sharpness(
    spec: ExtremalSpec, series: ComplexSeries, n: int
) -> SharpnessRecord:
    """Compare |a_n| of series, the spec's extremal as build_extremal(spec)
    returns it, against the matching bound.

    For case III parameters the gap is expected to stay positive; the
    record reports it without claiming anything about true sharpness.
    """
    if n < 2:
        raise ParameterDomainError("certification needs a target index n >= 2")
    if n > spec.order:
        raise ParameterDomainError(
            f"extremal order {spec.order} does not reach index {n}"
        )
    bound = reduction_bound(Reduction(_bound_params_for(spec), spec.cauchy_euler), n)
    observed = abs(series.coefficient(n))
    gap = bound.value - observed
    attained = abs(gap) <= ATTAINMENT_RTOL * max(1.0, bound.value)
    return SharpnessRecord(n, bound.value, observed, gap, attained)

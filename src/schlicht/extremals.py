"""Extremal members that attain the sharp bounds, plus certification.

The extremals are class members like any other: the case-II extremal is
the member of the Schwarz function omega = z and the case-I extremal at
index n is the member of omega = z^(n-1), both built by
subordination.member_from_schwarz.
"""

import numpy as np
from dataclasses import dataclass

from . import series as srs
from .bounds import BoundResult, cauchy_euler_factor, reduction_sweep
from .errors import ParameterDomainError
from .params import CauchyEulerParams, ClassParams, Reduction, reduce_subclass
from .series import ComplexSeries
from .subordination import member_from_schwarz

EXTREMAL_KINDS = ("case-i", "case-ii", "koebe-gamma", "convex-gamma", "starlike-n")

# the kinds that take only gamma, and the subclass each builds in
KIND_CLASS = {"koebe-gamma": "Sstar", "convex-gamma": "C", "starlike-n": "Sstar"}

# Relative tolerance for "the extremal attains the bound"; product chains of
# length <= 50 in double precision stay far inside this.
ATTAINMENT_RTOL = 1e-8


@dataclass(frozen=True)
class ExtremalSpec:
    """Which extremal to build, for which parameters, at which order.

    params are the parameters the extremal is built and certified with:
    a gamma-only kind keeps gamma and takes the rest from its KIND_CLASS.
    """

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
        if self.kind in KIND_CLASS:
            red = reduce_subclass(KIND_CLASS[self.kind], gamma=self.params.gamma)
            object.__setattr__(self, "params", red.params)
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


def extremal_case_i(p: ClassParams, n: int, order: int) -> ComplexSeries:
    """Member whose |a_n| equals the case-I bound at the single index n:
    the member of omega = z^(n-1)."""
    if n < 2:
        raise ParameterDomainError(f"index n must be >= 2, got {n}")
    if order < n:
        raise ParameterDomainError(f"order {order} is below the target index {n}")
    return member_from_schwarz(srs.monomial(1.0, n - 1, n - 1), p, order)


def extremal_case_ii(p: ClassParams, order: int) -> ComplexSeries:
    """Member whose |a_n| equals the case-II bound at every admissible n:
    the member of omega = z."""
    return member_from_schwarz(srs.identity(1), p, order)


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
    if spec.kind in ("case-i", "starlike-n"):
        f = extremal_case_i(spec.params, spec.n, spec.order)
    else:
        f = extremal_case_ii(spec.params, spec.order)
    if spec.cauchy_euler is not None:
        f = transfer_cauchy_euler(f, spec.cauchy_euler)
    return f


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
    (bound,) = reduction_sweep(Reduction(spec.params, spec.cauchy_euler), n, n)
    return sharpness_record(bound, series)


def sharpness_record(bound: BoundResult, series: ComplexSeries) -> SharpnessRecord:
    """Compare |a_n| of series against one bound row at its index n."""
    observed = abs(series.coefficient(bound.n))
    gap = bound.value - observed
    attained = abs(gap) <= ATTAINMENT_RTOL * max(1.0, bound.value)
    return SharpnessRecord(bound.n, bound.value, observed, gap, attained)

"""Extremal members that attain the sharp bounds, plus certification.

The extremals are class members like any other: the case-II extremal is
the member of the Schwarz function omega = z and the case-I extremal at
index n is the member of omega = z^(n-1), both built by
subordination.member_from_schwarz.
"""

import numpy as np
from dataclasses import dataclass
from typing import NamedTuple

from . import series as srs
from .bounds import cauchy_euler_factor, reduction_columns
from .errors import ParameterDomainError
from .params import CauchyEulerParams, ClassParams, Reduction, check_index, reduce_subclass
from .series import ComplexSeries
from .subordination import _member_rows, member_from_schwarz

EXTREMAL_KINDS = ("case-i", "case-ii", "koebe-gamma", "convex-gamma", "starlike-n")

# the kinds built for one target index n, the member of omega = z^(n-1)
INDEXED_KINDS = ("case-i", "starlike-n")

# the kinds that take only gamma, and the subclass each builds in
KIND_CLASS = {"koebe-gamma": "Sstar", "convex-gamma": "C", "starlike-n": "Sstar"}

# case_i_moduli's rows per stack: its memory is this many rows of the largest n
CASE_I_STACK = 64

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
        if self.kind in INDEXED_KINDS:
            if self.n is None:
                raise ParameterDomainError(f"kind {self.kind!r} needs a target n")
            _check_target(self.n, self.order)


def _check_target(n: int, order: int) -> None:
    """Refuse a target index n below 2 or above the extremal's order."""
    check_index(n)
    if order < n:
        raise ParameterDomainError(f"extremal order {order} does not reach index {n}")


class SharpnessRecord(NamedTuple):
    """Gap between a bound and the |a_n| its candidate extremal achieves."""

    n: int
    bound: float
    observed: float
    gap: float
    attained: bool


def extremal_case_i(p: ClassParams, n: int, order: int) -> ComplexSeries:
    """Member whose |a_n| equals the case-I bound at the single index n:
    the member of omega = z^(n-1)."""
    _check_target(n, order)
    return member_from_schwarz(srs.monomial(1.0, n - 1, n - 1), p, order)


def case_i_moduli(p: ClassParams, indices) -> list[float]:
    """abs(extremal_case_i(p, n, n).coefficient(n)) at each index n of
    indices, bit for bit: the members of omega = z^(n-1) are rows of stacks
    of CASE_I_STACK, each as wide as its largest n.  The recurrence is causal
    and a stacked row equals its one-row call, so row n's a_0..a_n are those
    of the order-n member."""
    index, moduli = np.asarray(indices, dtype=int), []
    for lo in range(0, index.size, CASE_I_STACK):
        part = index[lo : lo + CASE_I_STACK]
        rows = np.arange(part.size)
        omegas = np.zeros((part.size, part.max()), dtype=np.complex128)
        omegas[rows, part - 1] = 1.0
        moduli += map(abs, _member_rows(omegas, p)[rows, part].tolist())
    return moduli


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
    out = np.array(g._c)
    out[2:] *= cauchy_euler_factor(ce, np.arange(2, out.size))
    return ComplexSeries(out)


def build_extremal(spec: ExtremalSpec) -> ComplexSeries:
    """Construct the series an ExtremalSpec describes."""
    if spec.kind in INDEXED_KINDS:
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
    _check_target(n, spec.order)
    bound = reduction_columns(Reduction(spec.params, spec.cauchy_euler), n, n).value
    observed, gap, attained = sharpness_columns(bound, [abs(series.coefficient(n))])
    return SharpnessRecord(n, bound.item(), observed.item(), gap.item(), attained.item())


def sharpness_columns(value: np.ndarray, observed) -> tuple:
    """The observed, gap and attained columns of bound values and the
    |a_n| observed on their extremals: a bound is attained when |gap| <=
    ATTAINMENT_RTOL*max(1, bound), and a nan bound is not."""
    observed = np.array(observed, dtype=np.float64)
    gap = value - observed
    return observed, gap, np.abs(gap) <= ATTAINMENT_RTOL * np.fmax(1.0, value)

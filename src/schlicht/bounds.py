"""Sharp coefficient-bound formulas and their consistency checks.

All bounds are modulus products over the complex seed gamma*(A-B).
Factorial denominators are folded in factor by factor, which keeps every
intermediate on the order of the final bound.  A range of indices lo..hi
is one O(hi) sweep over one column of moduli |gamma*(A-B) - j*B|: its
margins give every case, and two running products over it give every
case-II and case-III value, bit-identical to evaluating each n on its
own.  The products multiply Python floats, so one that leaves the double
range (gamma = 1000, B = -1 does before n = 300) becomes inf without a
numpy overflow; the CLI refuses to write it and exits 2.

Case I and II bounds are sharp (an explicit member attains them); case
III bounds carry sharpness "unknown", which is the honest status: no
attaining member is known and none is claimed.
"""

import cmath
import math
from itertools import accumulate, repeat
from operator import mul
from typing import NamedTuple

import numpy as np

from .errors import HypothesisViolated, ParameterDomainError
from .params import (
    CauchyEulerParams,
    ClassParams,
    Reduction,
    check_index,
    column_case_sweep,
    modulus_column,
    spiral_gamma,
)

SHARP = "true"
SHARP_UNKNOWN = "unknown"


class BoundResult(NamedTuple):
    """A single coefficient bound together with its provenance."""

    n: int
    value: float
    case_tag: str
    crossover_k: int | None
    sharp: str

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "case": self.case_tag,
            "k": self.crossover_k,
            "bound": self.value,
            "sharp": self.sharp,
        }


def case_i_value(p: ClassParams, n: int) -> float:
    """|gamma|*(A-B) / ((n-1)*(1+lambda*(n-1)))."""
    return abs(p.gamma) * (p.a - p.b) / ((n - 1) * (1.0 + p.lam * (n - 1)))


def _running_products(column: np.ndarray, shift: int) -> list[float]:
    """prod_{j<m} column[j] / max(j+shift, 1) for m = 0..len(column).

    Shift 1 gives the case-II products (denominator m!), shift 0 the
    case-III ones ((m-1)!).  Each entry multiplies its factors left to
    right as Python floats, as a loop over j < m does, so it is
    bit-identical to that loop and overflows to inf without raising.
    """
    factors = column / np.maximum(np.arange(shift, column.size + shift), 1)
    return list(accumulate(factors.tolist(), mul, initial=1.0))


def case_ii_value(p: ClassParams, n: int) -> float:
    """prod_{j=0}^{n-2} |gamma*(A-B) - j*B| / ((n-1)! * (1+lambda*(n-1)))."""
    ii = _running_products(modulus_column(p.product_base(), p.b, n - 1), 1)
    return ii[n - 1] / (1.0 + p.lam * (n - 1))


def case_iii_value(p: ClassParams, n: int, k: int) -> float:
    """prod_{j=0}^{k-1} |gamma*(A-B) - j*B| / ((k-1)!*(n-1)*(1+lambda*(n-1)))."""
    if not 1 <= k <= n - 1:
        raise ParameterDomainError(f"crossover k={k} outside 1..{n - 1}")
    iii = _running_products(modulus_column(p.product_base(), p.b, k), 0)
    return iii[k] / ((n - 1) * (1.0 + p.lam * (n - 1)))


def bound_sweep(p: ClassParams, lo: int, hi: int) -> list[BoundResult]:
    """coefficient_bound at every n in lo..hi, in O(hi): one modulus
    column up to index hi, its case sweep and its two running products."""
    return reduction_sweep(Reduction(p), lo, hi)


def coefficient_bound(p: ClassParams, n: int) -> BoundResult:
    """Sharp (cases I/II) or best-known (case III) bound on |a_n|."""
    return bound_sweep(p, n, n)[0]


def cauchy_euler_factor(
    ce: CauchyEulerParams, n: int | np.ndarray
) -> float | np.ndarray:
    """prod_{j=0}^{m-1} (mu+j+1)/(mu+j+n); equals 1 at n=1, < 1 for n >= 2.

    n is an index or an integer array of them; an array takes m array
    steps, each rounding as the scalar loop does.
    """
    acc = 1.0
    for j in range(ce.m):
        acc *= (ce.mu + j + 1.0) / (ce.mu + j + n)
    return acc


def coefficient_bound_cauchy_euler(
    p: ClassParams, ce: CauchyEulerParams, n: int
) -> BoundResult:
    """Bound for solutions of the Cauchy-Euler equation sourced by the class."""
    return reduction_sweep(Reduction(p, ce), n, n)[0]


def telescoping_identity_residual(p: ClassParams, m: int) -> float:
    """Relative residual of the telescoping modulus-product identity.

    With X_k = |gamma*(A-B) - B*(k-1)| the identity states

      |gamma*(A-B)|^2
        + sum_{k=2}^{m-1} (|X_k^2 - (k-1)^2| / ((k-1)!)^2)
                          * prod_{j=0}^{k-2} |gamma*(A-B)-j*B|^2
        = prod_{j=0}^{m-2} |gamma*(A-B)-j*B|^2 / ((m-2)!)^2,

    provided X_{m-1} >= m-2 (that hypothesis makes every summand a clean
    telescoping difference).  Returns |lhs - rhs| / |rhs|.
    """
    if m < 2:
        raise ParameterDomainError(f"m must be >= 2, got {m}")
    # x[k-1] = X_k = |gamma*(A-B) - B*(k-1)|
    column = modulus_column(p.product_base(), p.b, m - 1)
    x = column.tolist()
    if x[m - 2] < (m - 2):
        raise HypothesisViolated(
            f"|gamma*(A-B) - B*(m-2)| >= m-2 fails for m={m}"
        )
    # ii[k-1]**2 = prod_{j=0}^{k-2} |gamma*(A-B) - j*B|^2 / ((k-1)!)^2, the
    # products the case-II bounds print
    ii = _running_products(column[: m - 2], 1)
    terms = (abs(x[k - 1] ** 2 - (k - 1) ** 2) * ii[k - 1] ** 2 for k in range(2, m))
    lhs = sum(terms, x[0] ** 2)
    rhs = _running_products(column, 0)[-1] ** 2
    return abs(lhs - rhs) / abs(rhs)


def spiral_product_bound(beta: float, a: float, b: float, n: int) -> float:
    """prod_{j=0}^{n-2} |(A-B)*exp(-i*beta)*cos(beta) - j*B| / (j+1); beta,
    A and B as ClassParams(spiral_gamma(beta), 0, A, B) takes them."""
    ClassParams(spiral_gamma(beta), 0.0, a, b)
    check_index(n)
    seed = (a - b) * cmath.exp(-1j * beta) * math.cos(beta)
    return _running_products(modulus_column(seed, b, n - 1), 1)[-1]


def spiral_bound_cross_check(beta: float, a: float, b: float, n: int) -> float:
    """|spiral product bound - reduced-class bound|; defined in case II only."""
    p = ClassParams(spiral_gamma(beta), 0.0, a, b)
    result = coefficient_bound(p, n)
    if result.case_tag != "II":
        raise HypothesisViolated(
            "cross-check is defined only when the reduction lands in case II; "
            f"got case {result.case_tag} for beta={beta}, A={a}, B={b}, n={n}"
        )
    return abs(spiral_product_bound(beta, a, b, n) - result.value)


def reduction_sweep(red: Reduction, lo: int, hi: int) -> list[BoundResult]:
    """Bounds at n = lo..hi for a reduced class, with its Cauchy-Euler
    transfer if it has one: one modulus column, its case sweep and its two
    running products, each value times one cauchy_euler_factor column."""
    p = red.params
    column = modulus_column(p.product_base(), p.b, hi - 1)
    _, cases = column_case_sweep(column, lo, hi)
    ii = _running_products(column, 1)
    iii = _running_products(column, 0)
    # Python floats, as the products are: an inf bound times an underflowed
    # factor is the nan the writer refuses, not a numpy error.  Without a
    # transfer every factor is 1.0, and x * 1.0 is x to the bit.
    factors = repeat(1.0)
    if red.cauchy_euler is not None:
        factors = cauchy_euler_factor(red.cauchy_euler, np.arange(lo, hi + 1)).tolist()
    rows = []
    for n, (tag, k), factor in zip(range(lo, hi + 1), cases, factors):
        weight = 1.0 + p.lam * (n - 1)
        if tag == "II":
            value, sharp = ii[n - 1] / weight, SHARP
        elif tag == "I":
            value, sharp = case_i_value(p, n), SHARP
        else:
            value, sharp = iii[k] / ((n - 1) * weight), SHARP_UNKNOWN
        rows.append(BoundResult(n, value * factor, tag, k, sharp))
    return rows

"""Sharp coefficient-bound formulas and their consistency checks.

All bounds are modulus products over the complex seed gamma*(A-B).
Factorial denominators are folded in factor by factor, which keeps every
intermediate on the order of the final bound.  A range of indices lo..hi
is computed as columns, with array operations only: one column of moduli
|gamma*(A-B) - j*B| gives the case-code and crossover columns through its
margins, and two running products over it give the case-II and case-III
values, so the value column is bit-identical to evaluating each n on its
own.  The BoundResult records of reduction_sweep are a view of those
columns, and the CLI writes CSV and tables straight from them.  A product
that leaves the double range (gamma = 1000, B = -1 does before n = 300)
becomes inf without a numpy overflow; the CLI refuses to write it and
exits 2.

Case I and II bounds are sharp (an explicit member attains them); case
III bounds carry sharpness "unknown", which is the honest status: no
attaining member is known and none is claimed.
"""

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import HypothesisViolated, ParameterDomainError
from .params import (
    CauchyEulerParams,
    ClassParams,
    Reduction,
    case_columns,
    check_index,
    column_case_sweep,
    modulus_column,
    spiral_gamma,
)

# the sharp field of each case, indexed by case code as params.CASE_TAGS is
SHARPNESS = np.array(["true", "true", "unknown"], dtype=object)


class BoundResult(NamedTuple):
    """A single coefficient bound together with its provenance."""

    n: int
    value: float
    case_tag: str
    crossover_k: int | None
    sharp: str


def case_i_value(p: ClassParams, n: int | np.ndarray) -> float | np.ndarray:
    """|gamma|*(A-B) / ((n-1)*(1+lambda*(n-1))); n is an index or a float
    array of them."""
    return abs(p.gamma) * (p.a - p.b) / ((n - 1) * (1.0 + p.lam * (n - 1)))


def _running_products(column: np.ndarray) -> np.ndarray:
    """Rows prod_{j<m} column[j] / max(j+shift, 1), m = 0..len(column), for
    shift 1 (the case-II products, denominator m!) and shift 0 (the
    case-III ones, (m-1)!).

    np.multiply.accumulate multiplies each row's factors left to right, as
    a loop over j < m does, so every entry is bit-identical to that loop; a
    product past the double range is inf, not a numpy overflow error.
    """
    d = np.arange(column.size + 1.0)
    d[0] = 1.0  # d[1:] is j+1 and d[:-1] is max(j, 1)
    products = np.ones((2, column.size + 1))
    with np.errstate(over="ignore"):
        np.multiply.accumulate(column / d[1:], out=products[0, 1:])
        np.multiply.accumulate(column / d[:-1], out=products[1, 1:])
    return products


def case_ii_value(p: ClassParams, n: int) -> float:
    """prod_{j=0}^{n-2} |gamma*(A-B) - j*B| / ((n-1)! * (1+lambda*(n-1)))."""
    ii, _ = _running_products(modulus_column(p.product_base(), p.b, n - 1))
    return float(ii[n - 1]) / (1.0 + p.lam * (n - 1))


def case_iii_value(p: ClassParams, n: int, k: int) -> float:
    """prod_{j=0}^{k-1} |gamma*(A-B) - j*B| / ((k-1)!*(n-1)*(1+lambda*(n-1)))."""
    if not 1 <= k <= n - 1:
        raise ParameterDomainError(f"crossover k={k} outside 1..{n - 1}")
    _, iii = _running_products(modulus_column(p.product_base(), p.b, k))
    return float(iii[k]) / ((n - 1) * (1.0 + p.lam * (n - 1)))


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
    ii, iii = _running_products(column).tolist()
    terms = (abs(x[k - 1] ** 2 - (k - 1) ** 2) * ii[k - 1] ** 2 for k in range(2, m))
    lhs = sum(terms, x[0] ** 2)
    rhs = iii[-1] ** 2
    return abs(lhs - rhs) / abs(rhs)


def spiral_product_bound(beta: float, a: float, b: float, n: int) -> float:
    """prod_{j=0}^{n-2} |(A-B)*exp(-i*beta)*cos(beta) - j*B| / (j+1); beta,
    A and B as ClassParams(spiral_gamma(beta), 0, A, B) takes them."""
    ClassParams(spiral_gamma(beta), 0.0, a, b)
    check_index(n)
    seed = (a - b) * cmath.exp(-1j * beta) * math.cos(beta)
    return float(_running_products(modulus_column(seed, b, n - 1))[0, -1])


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


class BoundColumns(NamedTuple):
    """The bounds at n = lo..hi as columns, in BoundResult's field order."""

    n: range
    value: np.ndarray
    case_tag: list[str]
    crossover_k: list[int | None]
    sharp: list[str]

    def records(self) -> list[BoundResult]:
        """The BoundResult of every row."""
        return list(map(BoundResult, self.n, self.value.tolist(), *self[2:]))


def reduction_columns(red: Reduction, lo: int, hi: int) -> BoundColumns:
    """Bounds at n = lo..hi for a reduced class, with its Cauchy-Euler
    transfer if it has one, as columns: one modulus column, its case sweep
    and its two running products, and the value column times one
    cauchy_euler_factor column.  Array operations only, each case formula
    in the operation order of evaluating one n on its own."""
    p = red.params
    column = modulus_column(p.product_base(), p.b, hi - 1)
    _, codes, last = column_case_sweep(column, lo, hi)
    tags, crossover_k = case_columns(codes, last)
    ii, iii = _running_products(column)
    n_1 = np.arange(lo - 1.0, hi)  # n - 1
    weight = 1.0 + p.lam * n_1
    values = ii[lo - 1 :] / weight
    # a class has case-I rows or case-III rows, never both
    if "I" in tags:
        values = np.where(codes == 0, case_i_value(p, n_1 + 1.0), values)
    elif "III" in tags:
        values = np.where(codes == 2, iii[last] / (n_1 * weight), values)
    if red.cauchy_euler is not None:
        # an inf bound times an underflowed factor is the nan the writer
        # refuses, not a numpy error
        with np.errstate(invalid="ignore"):
            values = values * cauchy_euler_factor(red.cauchy_euler, np.arange(lo, hi + 1))
    return BoundColumns(range(lo, hi + 1), values, tags, crossover_k,
                        SHARPNESS[codes].tolist())


def reduction_sweep(red: Reduction, lo: int, hi: int) -> list[BoundResult]:
    """reduction_columns as BoundResult records, one per n."""
    return reduction_columns(red, lo, hi).records()

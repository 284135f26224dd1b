"""Sharp coefficient-bound formulas and their consistency checks.

All bounds are modulus products over the complex seed gamma*(A-B).
Factorial denominators are folded in factor by factor, which keeps every
intermediate on the order of the final bound.  A range of indices lo..hi
is one O(hi) sweep: one pass over the margins gives every case, and two
running products give every case-II and case-III value, bit-identical to
evaluating each n on its own.  A product that leaves the double range
(gamma = 1000, B = -1 does before n = 300) becomes inf; the CLI refuses
to write it and exits 2.

Case I and II bounds are sharp (an explicit member attains them); case
III bounds carry sharpness "unknown", which is the honest status: no
attaining member is known and none is claimed.
"""

import cmath
import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

from .errors import HypothesisViolated, ParameterDomainError
from .params import (
    CauchyEulerParams,
    ClassParams,
    Reduction,
    case_sweep,
    check_index,
    spiral_gamma,
)

SHARP = "true"
SHARP_UNKNOWN = "unknown"


@dataclass(frozen=True)
class BoundResult:
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


def _modulus_products(base: complex, b: float, count: int, shift: int) -> list[float]:
    """prod_{j<m} |base - j*B| / max(j+shift, 1) for m = 0..count.

    Shift 1 gives the case-II products (denominator m!), shift 0 the
    case-III ones ((m-1)!).  Each entry multiplies its factors left to
    right, as a loop over j < m does, so it is bit-identical to that loop.
    """
    factors = (abs(base - j * b) / max(j + shift, 1) for j in range(count))
    return list(accumulate(factors, mul, initial=1.0))


def _bound_row(
    p: ClassParams,
    n: int,
    case_tag: str,
    k: int | None,
    ii: list[float] | None,
    iii: list[float] | None,
) -> BoundResult:
    """The bound at n in the given case, read off the running products:
    ii[m] = prod_{j<m} |gamma*(A-B) - j*B|/(j+1) and iii[m] the same over
    max(j, 1)."""
    if case_tag == "I":
        return BoundResult(n, case_i_value(p, n), "I", None, SHARP)
    weight = 1.0 + p.lam * (n - 1)
    if case_tag == "II":
        return BoundResult(n, ii[n - 1] / weight, "II", None, SHARP)
    return BoundResult(n, iii[k] / ((n - 1) * weight), "III", k, SHARP_UNKNOWN)


def case_ii_value(p: ClassParams, n: int) -> float:
    """prod_{j=0}^{n-2} |gamma*(A-B) - j*B| / ((n-1)! * (1+lambda*(n-1)))."""
    ii = _modulus_products(p.product_base(), p.b, n - 1, 1)
    return _bound_row(p, n, "II", None, ii, None).value


def case_iii_value(p: ClassParams, n: int, k: int) -> float:
    """prod_{j=0}^{k-1} |gamma*(A-B) - j*B| / ((k-1)!*(n-1)*(1+lambda*(n-1)))."""
    if not 1 <= k <= n - 1:
        raise ParameterDomainError(f"crossover k={k} outside 1..{n - 1}")
    iii = _modulus_products(p.product_base(), p.b, k, 0)
    return _bound_row(p, n, "III", k, None, iii).value


def bound_sweep(p: ClassParams, lo: int, hi: int) -> list[BoundResult]:
    """coefficient_bound at every n in lo..hi, in O(hi): one case_sweep
    and the two running products up to index hi."""
    _, cases = case_sweep(p, lo, hi)
    base = p.product_base()
    ii = _modulus_products(base, p.b, hi - 1, 1)
    iii = _modulus_products(base, p.b, hi - 1, 0)
    return [
        _bound_row(p, n, tag, k, ii, iii)
        for n, (tag, k) in zip(range(lo, hi + 1), cases)
    ]


def coefficient_bound(p: ClassParams, n: int) -> BoundResult:
    """Sharp (cases I/II) or best-known (case III) bound on |a_n|."""
    return bound_sweep(p, n, n)[0]


def cauchy_euler_factor(ce: CauchyEulerParams, n: int) -> float:
    """prod_{j=0}^{m-1} (mu+j+1)/(mu+j+n); equals 1 at n=1, < 1 for n >= 2."""
    acc = 1.0
    for j in range(ce.m):
        acc *= (ce.mu + j + 1.0) / (ce.mu + j + n)
    return acc


def _transferred(inner: BoundResult, ce: CauchyEulerParams) -> BoundResult:
    """A class bound carried over to the Cauchy-Euler solutions."""
    return BoundResult(
        inner.n,
        inner.value * cauchy_euler_factor(ce, inner.n),
        inner.case_tag,
        inner.crossover_k,
        inner.sharp,
    )


def coefficient_bound_cauchy_euler(
    p: ClassParams, ce: CauchyEulerParams, n: int
) -> BoundResult:
    """Bound for solutions of the Cauchy-Euler equation sourced by the class."""
    return _transferred(coefficient_bound(p, n), ce)


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
    base = p.product_base()
    if abs(base - p.b * (m - 2)) < (m - 2):
        raise HypothesisViolated(
            f"|gamma*(A-B) - B*(m-2)| >= m-2 fails for m={m}"
        )
    # ii[k-1]**2 = prod_{j=0}^{k-2} |base - j*B|^2 / ((k-1)!)^2, the
    # products the case-II bounds print
    ii = _modulus_products(base, p.b, m - 2, 1)
    terms = (abs(abs(base - p.b * (k - 1)) ** 2 - (k - 1) ** 2) * ii[k - 1] ** 2
             for k in range(2, m))
    lhs = sum(terms, abs(base) ** 2)
    rhs = _modulus_products(base, p.b, m - 1, 0)[-1] ** 2
    return abs(lhs - rhs) / abs(rhs)


def spiral_product_bound(beta: float, a: float, b: float, n: int) -> float:
    """prod_{j=0}^{n-2} |(A-B)*exp(-i*beta)*cos(beta) - j*B| / (j+1); beta,
    A and B as ClassParams(spiral_gamma(beta), 0, A, B) takes them."""
    ClassParams(spiral_gamma(beta), 0.0, a, b)
    check_index(n)
    seed = (a - b) * cmath.exp(-1j * beta) * math.cos(beta)
    return _modulus_products(seed, b, n - 1, 1)[-1]


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
    transfer if it has one; one bound_sweep."""
    results = bound_sweep(red.params, lo, hi)
    if red.cauchy_euler is not None:
        results = [_transferred(r, red.cauchy_euler) for r in results]
    return results

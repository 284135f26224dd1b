"""Parameter objects for the subordination-defined function classes.

The core class is pinned down by a tuple (gamma, lambda, A, B): the
weighted combination F = lambda*z*f' + (1-lambda)*f must satisfy
1 + (1/gamma)*(zF'/F - 1) subordinate to the Moebius target
(1 + A*w)/(1 + B*w).  Named subclasses from the literature reduce to
specific corners of this parameter space; `reduce_subclass` performs
those reductions.

The case machinery lives here too: the margin sequence
A_k = |gamma*(A-B) - B*(k-1)| - (k-1) is sign-monotone (once negative it
stays negative), and the position of its sign change selects which bound
formula applies (cases I/II/III).  column_case_sweep classifies a whole
index range with array operations over the margins, which it reads off
one column of moduli |gamma*(A-B) - j*B|, the column the bound products
multiply; it returns a case-code column and a crossover column, and
case_sweep's (case, crossover_k) pairs are a view of them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError
from .output import JsonFields


@dataclass(frozen=True)
class ClassParams:
    """Parameters (gamma, lambda, A, B) of the core subordination class.

    Domain: gamma nonzero complex, 0 <= lam <= 1, -1 <= b < a <= 1 with
    a, b real.  Validation is strict; out-of-domain values raise
    ParameterDomainError rather than being clamped.
    """

    gamma: complex
    lam: float
    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", complex(self.gamma))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (
            math.isfinite(self.gamma.real)
            and math.isfinite(self.gamma.imag)
            and math.isfinite(self.lam)
            and math.isfinite(self.a)
            and math.isfinite(self.b)
        ):
            raise ParameterDomainError("parameters must be finite")
        if self.gamma == 0:
            raise ParameterDomainError("gamma must be nonzero")
        if not 0.0 <= self.lam <= 1.0:
            raise ParameterDomainError(f"lambda {self.lam} not in [0, 1]")
        if not -1.0 <= self.b < self.a <= 1.0:
            raise ParameterDomainError(
                f"need -1 <= B < A <= 1, got A={self.a}, B={self.b}"
            )

    def product_base(self) -> complex:
        """gamma*(A-B), the seed of every modulus product."""
        return self.gamma * (self.a - self.b)

    def to_json_dict(self) -> dict:
        return {
            "gamma": [self.gamma.real, self.gamma.imag],
            "lambda": self.lam,
            "A": self.a,
            "B": self.b,
        }


@dataclass(frozen=True)
class CauchyEulerParams(JsonFields):
    """Order m >= 2 and shift mu > -1 of the Cauchy-Euler transfer."""

    m: int
    mu: float

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 2:
            raise ParameterDomainError(f"m must be an integer >= 2, got {self.m}")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "mu", float(self.mu))
        if not math.isfinite(self.mu) or self.mu <= -1.0:
            raise ParameterDomainError(f"mu must be > -1, got {self.mu}")


@dataclass(frozen=True)
class CaseClassification(JsonFields):
    """Which bound regime applies at index n.

    margins holds A_2..A_{n-1}; crossover_k is set only for case III and
    is the largest k with A_k >= 0 (so A_{k+1} < 0).
    """

    case: str
    crossover_k: int | None
    margins: tuple[float, ...]


def check_index(n: int, name: str = "index n") -> None:
    """Refuse an index below 2: a_0 = 0 and a_1 = 1 fix the first two."""
    if n < 2:
        raise ParameterDomainError(f"{name} must be >= 2, got {n}")


def check_samples(samples: int) -> None:
    """Refuse a sample count below 1."""
    if samples < 1:
        raise ParameterDomainError(f"samples must be >= 1, got {samples}")


def check_order(order: int) -> None:
    """Refuse a truncation order below 2, which leaves only f = z."""
    if order < 2:
        raise ParameterDomainError(f"order must be >= 2, got {order}")


def modulus_column(base: complex, b: float, count: int) -> np.ndarray:
    """|base - j*b| for j = 0..count-1, one np.hypot over the parts.

    np.hypot rounds as Python's abs(complex) does (np.abs does not), so
    each entry has the bits of abs(base - j * b).  A modulus past the
    double range raises FloatingPointError naming |gamma*(A-B)|.
    """
    try:
        with np.errstate(over="raise"):
            return np.hypot(base.real - np.arange(count) * b, base.imag)
    except FloatingPointError:
        raise FloatingPointError("overflow: bound moduli leave the double range, "
                                 f"|gamma*(A-B)| = {math.hypot(base.real, base.imag):g}"
                                 ) from None


def case_margin_sequence(p: ClassParams, n: int) -> list[float]:
    """Margins A_k = |gamma*(A-B) - B*(k-1)| - (k-1) for k = 2..n-1."""
    check_index(n)
    column = modulus_column(p.product_base(), p.b, n - 1)
    return (column[1:] - np.arange(1, column.size)).tolist()


def case_sweep(
    p: ClassParams, lo: int, hi: int
) -> tuple[list[float], list[tuple[str, int | None]]]:
    """Margins A_2..A_{hi-1} and the (case, crossover_k) of every n in lo..hi."""
    margins, codes, last = column_case_sweep(
        modulus_column(p.product_base(), p.b, hi - 1), lo, hi)
    return margins.tolist(), list(zip(*case_columns(codes, last)))


# the case tags, indexed by the case codes of column_case_sweep
CASE_TAGS = np.array(["I", "II", "III"], dtype=object)


def column_case_sweep(
    column: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Margins A_2..A_{hi-1} of the class whose moduli |gamma*(A-B) - j*B|,
    j < hi-1, are column, and two columns over n = lo..hi: the case code
    (an index into CASE_TAGS) and the largest k < n with A_k >= 0, which
    is the crossover of a case-III row.

    Array operations only: row n reads A_{n-1} = column[n-2] - (n-2), and
    A_1 = column[0] >= 0 makes n = 2 case II.  The last nonnegative k is a
    running maximum, so the margins need not be sign-monotone.
    """
    check_index(lo)
    shifted = column - np.arange(hi - 1)  # A_{j+1} for j >= 1
    nonnegative = shifted >= 0.0
    last = np.maximum.accumulate(np.arange(1, hi) * nonnegative)
    margins = shifted[1:]
    other = 0 if margins.size and margins[0] < 0.0 else 2  # I, or else III
    codes = np.where(nonnegative[lo - 2:], 1, other)
    return margins, codes, last[lo - 2:]


def case_columns(
    codes: np.ndarray, last: np.ndarray
) -> tuple[list[str], list[int | None]]:
    """The case tag and the crossover_k of every row of column_case_sweep:
    its last nonnegative k in case III, None otherwise."""
    return CASE_TAGS[codes].tolist(), np.where(codes == 2, last, None).tolist()


def classify_case(p: ClassParams, n: int) -> CaseClassification:
    """Select the bound regime at index n from the margin signs.

    Zero margins count as nonnegative, so II/III win ties against I
    (the formulas agree there).  n=2 is always case II; both formulas
    coincide at that index.
    """
    margins, [(tag, k)] = case_sweep(p, n, n)
    return CaseClassification(tag, k, tuple(margins))


@dataclass(frozen=True)
class Reduction:
    """Result of mapping a named subclass onto the core parameter tuple."""

    params: ClassParams
    cauchy_euler: CauchyEulerParams | None = None


# subclass -> the reduce_subclass keywords it takes, no more and no fewer
SUBCLASS_PARAMS = {
    "S": ("gamma", "lam", "a", "b"),
    "K": ("gamma", "lam", "a", "b", "m", "mu"),
    "Sstar": ("gamma",),
    "C": ("gamma",),
    "Sc": ("gamma", "lam", "beta"),
    "B": ("gamma", "lam", "beta", "mu"),
    "M": ("beta",),
    "N": ("beta",),
    "Sbeta": ("beta", "a", "b"),
    "SP": ("alpha", "a", "b"),
}
SUBCLASS_NAMES = tuple(SUBCLASS_PARAMS)


def reduce_subclass(name: str, **kw) -> Reduction:
    """Map a named subclass to its (gamma, lambda, A, B) representative.

    Each name takes exactly the keywords SUBCLASS_PARAMS lists for it; a
    missing or an unexpected keyword is refused, missing ones first, each
    list in its table (or call) order.
      S      (gamma, lam, a, b)       identity passthrough
      K      (gamma, lam, a, b) plus the Cauchy-Euler transfer (m, mu)
      Sstar  -> (gamma, 0, 1, -1)
      C      -> (gamma, 1, 1, -1)
      Sc     -> (gamma, lam, 1-2*beta, -1), 0 <= beta < 1
      B      Sc plus the order-2 transfer with shift mu
      M      -> (1-beta, 0, 1, -1), beta > 1
      N      -> (1-beta, 1, 1, -1), beta > 1
      Sbeta  -> (1/(1+i*tan(beta)), 0, a, b), |beta| < pi/2
      SP     Sbeta with beta=alpha (real-coefficient stand-in; the
             unimodular-target spiral machinery lives in the jack module)
    """
    if name not in SUBCLASS_PARAMS:
        raise ParameterDomainError(
            f"unknown subclass {name!r}; expected one of {SUBCLASS_NAMES}"
        )
    takes = SUBCLASS_PARAMS[name]
    missing = [key for key in takes if key not in kw]
    unexpected = [key for key in kw if key not in takes]
    for problem, keys in (("is missing", missing), ("does not take", unexpected)):
        if keys:
            raise ParameterDomainError(
                f"subclass {name!r} {problem} {', '.join(map(repr, keys))}"
            )
    if name == "S":
        return Reduction(ClassParams(kw["gamma"], kw["lam"], kw["a"], kw["b"]))
    if name == "K":
        return Reduction(
            ClassParams(kw["gamma"], kw["lam"], kw["a"], kw["b"]),
            CauchyEulerParams(kw["m"], kw["mu"]),
        )
    if name in ("Sstar", "C"):
        return Reduction(ClassParams(kw["gamma"], float(name == "C"), 1.0, -1.0))
    if name in ("Sc", "B"):
        beta = float(kw["beta"])
        if not 0.0 <= beta < 1.0:
            raise ParameterDomainError(f"{name} needs 0 <= beta < 1, got {beta}")
        return Reduction(
            ClassParams(kw["gamma"], kw["lam"], 1.0 - 2.0 * beta, -1.0),
            CauchyEulerParams(2, kw["mu"]) if name == "B" else None,
        )
    if name in ("M", "N"):
        beta = float(kw["beta"])
        if beta <= 1.0:
            raise ParameterDomainError(f"{name} needs beta > 1, got {beta}")
        return Reduction(ClassParams(1.0 - beta, float(name == "N"), 1.0, -1.0))
    # Sbeta, or SP with beta = alpha
    key = "beta" if name == "Sbeta" else "alpha"
    return Reduction(ClassParams(spiral_gamma(float(kw[key]), key), 0.0, kw["a"], kw["b"]))


def check_angle(value: float, name: str) -> None:
    """Refuse a spiral angle outside (-pi/2, pi/2), naming it as name."""
    if not abs(value) < math.pi / 2:
        raise ParameterDomainError(f"angle {name} must be in (-pi/2, pi/2), got {value}")


def spiral_gamma(beta: float, name: str = "beta") -> complex:
    """The reduction gamma = 1/(1+i*tan(beta)); equals exp(-i*beta)*cos(beta)."""
    check_angle(beta, name)
    return 1.0 / (1.0 + 1j * math.tan(beta))

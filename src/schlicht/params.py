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
formula applies (cases I/II/III).  case_sweep classifies a whole index
range from one pass over the margins.
"""

import math
from dataclasses import dataclass

from .errors import ParameterDomainError


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

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ClassParams":
        re, im = doc["gamma"]
        return cls(complex(re, im), doc["lambda"], doc["A"], doc["B"])


@dataclass(frozen=True)
class CauchyEulerParams:
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

    def to_json_dict(self) -> dict:
        return {"m": self.m, "mu": self.mu}


@dataclass(frozen=True)
class CaseClassification:
    """Which bound regime applies at index n.

    margins holds A_2..A_{n-1}; crossover_k is set only for case III and
    is the largest k with A_k >= 0 (so A_{k+1} < 0).
    """

    case_tag: str
    crossover_k: int | None
    margins: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "case": self.case_tag,
            "crossover_k": self.crossover_k,
            "margins": list(self.margins),
        }


def case_margin_sequence(p: ClassParams, n: int) -> list[float]:
    """Margins A_k = |gamma*(A-B) - B*(k-1)| - (k-1) for k = 2..n-1."""
    if n < 2:
        raise ParameterDomainError(f"index n must be >= 2, got {n}")
    base = p.product_base()
    return [abs(base - p.b * (k - 1)) - (k - 1) for k in range(2, n)]


def case_sweep(
    p: ClassParams, lo: int, hi: int
) -> tuple[list[float], list[tuple[str, int | None]]]:
    """Margins A_2..A_{hi-1} and the (case, crossover_k) of every n in lo..hi.

    One pass over n.  The crossover of a case-III index n is the largest
    k < n with A_k >= 0, kept as the last such k seen so far, so the
    margins need not be sign-monotone.
    """
    if lo < 2:
        raise ParameterDomainError(f"index n must be >= 2, got {lo}")
    margins = case_margin_sequence(p, hi)
    cases = []
    last_nonnegative = None
    for n in range(2, hi + 1):
        # margins[n - 3] is A_{n-1}, the last margin at index n
        if n > 2 and margins[n - 3] >= 0.0:
            last_nonnegative = n - 1
        if n < lo:
            continue
        if n == 2 or margins[n - 3] >= 0.0:
            cases.append(("II", None))
        elif margins[0] < 0.0:
            cases.append(("I", None))
        else:
            cases.append(("III", last_nonnegative))
    return margins, cases


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


SUBCLASS_NAMES = ("S", "K", "Sstar", "C", "Sc", "B", "M", "N", "Sbeta", "SP")


def reduce_subclass(name: str, **kw) -> Reduction:
    """Map a named subclass to its (gamma, lambda, A, B) representative.

    Supported names and their parameters:
      S      gamma, lam, a, b        (identity passthrough)
      K      gamma, lam, a, b, m, mu (adds the Cauchy-Euler transfer)
      Sstar  gamma                   -> (gamma, 0, 1, -1)
      C      gamma                   -> (gamma, 1, 1, -1)
      Sc     gamma, lam, beta        -> (gamma, lam, 1-2*beta, -1), 0 <= beta < 1
      B      gamma, lam, beta, mu    -> Sc plus the order-2 transfer
      M      beta                    -> (1-beta, 0, 1, -1), beta > 1
      N      beta                    -> (1-beta, 1, 1, -1), beta > 1
      Sbeta  beta, a, b              -> (1/(1+i*tan(beta)), 0, a, b), |beta| < pi/2
      SP     alpha, a, b             -> Sbeta with beta=alpha (real-coefficient
                                        stand-in; the unimodular-target spiral
                                        machinery lives in the jack module)
    """
    try:
        if name == "S":
            return Reduction(ClassParams(kw["gamma"], kw["lam"], kw["a"], kw["b"]))
        if name == "K":
            return Reduction(
                ClassParams(kw["gamma"], kw["lam"], kw["a"], kw["b"]),
                CauchyEulerParams(kw["m"], kw["mu"]),
            )
        if name == "Sstar":
            return Reduction(ClassParams(kw["gamma"], 0.0, 1.0, -1.0))
        if name == "C":
            return Reduction(ClassParams(kw["gamma"], 1.0, 1.0, -1.0))
        if name == "Sc":
            beta = float(kw["beta"])
            if not 0.0 <= beta < 1.0:
                raise ParameterDomainError(f"Sc needs 0 <= beta < 1, got {beta}")
            return Reduction(
                ClassParams(kw["gamma"], kw["lam"], 1.0 - 2.0 * beta, -1.0)
            )
        if name == "B":
            beta = float(kw["beta"])
            if not 0.0 <= beta < 1.0:
                raise ParameterDomainError(f"B needs 0 <= beta < 1, got {beta}")
            return Reduction(
                ClassParams(kw["gamma"], kw["lam"], 1.0 - 2.0 * beta, -1.0),
                CauchyEulerParams(2, kw["mu"]),
            )
        if name == "M":
            beta = float(kw["beta"])
            if beta <= 1.0:
                raise ParameterDomainError(f"M needs beta > 1, got {beta}")
            return Reduction(ClassParams(1.0 - beta, 0.0, 1.0, -1.0))
        if name == "N":
            beta = float(kw["beta"])
            if beta <= 1.0:
                raise ParameterDomainError(f"N needs beta > 1, got {beta}")
            return Reduction(ClassParams(1.0 - beta, 1.0, 1.0, -1.0))
        if name == "Sbeta":
            beta = float(kw["beta"])
            if not abs(beta) < math.pi / 2:
                raise ParameterDomainError(f"Sbeta needs |beta| < pi/2, got {beta}")
            gamma = 1.0 / (1.0 + 1j * math.tan(beta))
            return Reduction(ClassParams(gamma, 0.0, kw["a"], kw["b"]))
        if name == "SP":
            return Reduction(
                reduce_subclass("Sbeta", beta=kw["alpha"], a=kw["a"], b=kw["b"]).params
            )
    except KeyError as missing:
        raise ParameterDomainError(
            f"subclass {name!r} is missing parameter {missing.args[0]!r}"
        ) from None
    raise ParameterDomainError(
        f"unknown subclass {name!r}; expected one of {SUBCLASS_NAMES}"
    )


def spiral_gamma(beta: float) -> complex:
    """The reduction gamma = 1/(1+i*tan(beta)); equals exp(-i*beta)*cos(beta)."""
    if not abs(beta) < math.pi / 2:
        raise ParameterDomainError(f"need |beta| < pi/2, got {beta}")
    return 1.0 / (1.0 + 1j * math.tan(beta))

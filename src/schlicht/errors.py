"""Exception types shared across the package."""


class SchlichtError(Exception):
    """Base class for all package-specific errors."""


class ParameterDomainError(SchlichtError, ValueError):
    """A parameter lies outside the domain the formulas require."""


class DivisionByNonUnit(SchlichtError, ZeroDivisionError):
    """Series division needs a divisor whose constant term is a unit."""


class BranchPointAtOrigin(SchlichtError, ValueError):
    """log/exp/power of a series whose constant term sits on a branch point."""


class RadiusOutOfRange(ParameterDomainError):
    """Circle evaluation needs a radius strictly between 0 and 1."""


class HypothesisViolated(SchlichtError, ValueError):
    """The stated hypothesis of an identity or cross-check does not hold."""


class InversionSingular(SchlichtError, ZeroDivisionError):
    """Recovering a Schwarz function hit a singular Moebius inversion."""


class NormalizationError(SchlichtError, ValueError):
    """A series expected to be normalized (c0 = 0, c1 = 1) is not."""


class EvaluationSingularity(SchlichtError, ArithmeticError):
    """A grid evaluation would divide by a value too close to zero."""


class PreconditionNotVerified(SchlichtError, ValueError):
    """A numerical precondition check failed before the main computation."""


class NonFiniteOutput(SchlichtError, ArithmeticError):
    """A value to be written out is inf or nan, which JSON and CSV cannot carry."""

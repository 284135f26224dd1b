"""Truncated complex power series: a value type over two row kernels.

Every higher-level computation in this package runs on Taylor polynomials
c_0 + c_1 z + ... + c_N z^N with complex double coefficients.  The only
coefficient recurrences are _row_div (series quotient) and
_row_log_derivative (the normalized F with z*F' = F*q); both step over k
with every row of a 2-D array at once, and ComplexSeries.div and
solve_log_derivative are their one-row calls.  A quotient truncates to the
smaller operand order, so it never contains coefficients that both inputs
do not determine.  No logarithm or fractional power of a series is taken:
a power such as z*(1+z)^c is the solution of z*f'/f = 1 + c*z/(1+z), whose
coefficients are those of the principal branch, so the package needs no
branch convention.  circle_values is the one circle evaluator.

mul, log1, exp0 and powc stay only because the benchmark's tracer
(perfbench/tracing.py) wraps them by name; no package code calls them.
powc is exp(alpha*log(.)) of a series with constant term 1, so its branch
is the principal one.

Instances are immutable (the backing array is marked read-only) and all
operations are pure functions, so series can be shared freely between
concurrent tasks.
"""

import cmath

import numpy as np

from .errors import (
    BranchPointAtOrigin,
    DivisionByNonUnit,
    NormalizationError,
    ParameterDomainError,
    RadiusOutOfRange,
)

# Constant terms within this distance of the required unit value are accepted;
# anything farther is a hard error rather than a silent regularization.
UNIT_TOLERANCE = 1e-14


class ComplexSeries:
    """A complex Taylor polynomial of fixed truncation order.

    ``coeffs[k]`` is the coefficient of z^k; the order is ``len(coeffs)-1``.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=np.complex128)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must form a non-empty 1-d sequence")
        c.setflags(write=False)
        self._c = c

    # -- basic structure ---------------------------------------------------

    @property
    def order(self) -> int:
        return self._c.size - 1

    @property
    def coeffs(self) -> tuple:
        return tuple(complex(v) for v in self._c)

    def coefficient(self, k: int) -> complex:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient index {k} outside 0..{self.order}")
        return complex(self._c[k])

    def __repr__(self):
        head = ", ".join(f"{complex(v):.6g}" for v in self._c[:4])
        tail = ", ..." if self.order > 3 else ""
        return f"ComplexSeries(order={self.order}, [{head}{tail}])"

    def __eq__(self, other):
        if not isinstance(other, ComplexSeries):
            return NotImplemented
        return self.order == other.order and bool(np.all(self._c == other._c))

    # -- arithmetic ----------------------------------------------------------

    def div(self, other: "ComplexSeries") -> "ComplexSeries":
        """Series quotient; the divisor constant term must be a unit."""
        width = min(self.order, other.order) + 1
        return ComplexSeries(_row_div(self._c[None, :width], other._c[None, :width])[0])

    def scale(self, factor: complex) -> "ComplexSeries":
        return ComplexSeries(self._c * complex(factor))

    def __add__(self, other):
        """The series plus a scalar, which moves only the constant term."""
        out = np.array(self._c)
        out[0] += complex(other)
        return ComplexSeries(out)

    def z_derivative(self) -> "ComplexSeries":
        """The series z * d/dz of self (same order, coefficient k*c_k)."""
        return ComplexSeries(self._c * np.arange(self._c.size))

    # -- traced by the benchmark, called by no package code -------------------

    def mul(self, other: "ComplexSeries") -> "ComplexSeries":
        n = min(self.order, other.order)
        return ComplexSeries(np.convolve(self._c[: n + 1], other._c[: n + 1])[: n + 1])

    def log1(self) -> "ComplexSeries":
        """Principal log of a series with constant term 1: the integral of f'/f."""
        if abs(self._c[0] - 1.0) > UNIT_TOLERANCE:
            raise BranchPointAtOrigin(f"log1 needs constant term 1, got {self._c[0]}")
        k = np.arange(1, self._c.size)
        out = np.zeros(self._c.size, dtype=np.complex128)
        if k.size:
            out[1:] = _row_div((self._c[1:] * k)[None, :], self._c[None, :-1])[0] / k
        return ComplexSeries(out)

    def exp0(self) -> "ComplexSeries":
        """Exponential of a series with zero constant term."""
        if abs(self._c[0]) > UNIT_TOLERANCE:
            raise BranchPointAtOrigin(f"exp0 needs constant term 0, got {self._c[0]}")
        # exp(w) = F/z with z*F' = F*(1 + z*w'), F(0) = 0, F'(0) = 1
        q = self._c * np.arange(self._c.size)
        q[0] = 1.0
        return ComplexSeries(_row_log_derivative(q[None, :])[0, 1:])

    def powc(self, alpha: complex) -> "ComplexSeries":
        """Principal-branch power (1 + u)^alpha for a series 1 + u."""
        if abs(self._c[0] - 1.0) > UNIT_TOLERANCE:
            raise BranchPointAtOrigin(f"powc needs constant term 1, got {self._c[0]}")
        if complex(alpha) == 0:
            return constant(1.0, self.order)
        return self.log1().scale(alpha).exp0()

    # -- evaluation ------------------------------------------------------------

    def eval_at(self, points) -> np.ndarray:
        """Horner evaluation at arbitrary complex points."""
        pts = np.asarray(points, dtype=np.complex128)
        vals = np.full(pts.shape, self._c[-1], dtype=np.complex128)
        for k in range(self.order - 1, -1, -1):
            vals = vals * pts + self._c[k]
        return vals

    def eval_on_circle(self, radius: float, num_angles: int) -> np.ndarray:
        """Values on the circle of given radius at equispaced angles."""
        return circle_values(self._c[None, :], radius, num_angles)[0]

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [[float(v.real), float(v.imag)] for v in self._c],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ComplexSeries":
        coeffs = [complex(re, im) for re, im in doc["coeffs"]]
        if len(coeffs) != int(doc["order"]) + 1:
            raise ValueError("coefficient count does not match declared order")
        if not all(cmath.isfinite(c) for c in coeffs):
            raise ParameterDomainError("series coefficients must be finite")
        return cls(coeffs)


def constant(value: complex, order: int) -> ComplexSeries:
    out = np.zeros(order + 1, dtype=np.complex128)
    out[0] = complex(value)
    return ComplexSeries(out)


def monomial(coefficient: complex, degree: int, order: int) -> ComplexSeries:
    if not 0 <= degree <= order:
        raise ValueError("degree must lie in 0..order")
    out = np.zeros(order + 1, dtype=np.complex128)
    out[degree] = complex(coefficient)
    return ComplexSeries(out)


def identity(order: int) -> ComplexSeries:
    """The series z."""
    return monomial(1.0, 1, order)


def circle_values(rows: np.ndarray, radius: float, angles: int) -> np.ndarray:
    """Values of each coefficient row at radius*exp(2*pi*i*j/angles), j < angles.

    sum_k c_k r^k w^(jk) with w = exp(2*pi*i/angles) depends on k only mod
    angles, so one inverse FFT of the scaled rows folded mod angles gives
    every value (Trefethen & Weideman, SIAM Review 56, 2014).  This is the
    one place that checks the circle's domain.
    """
    if not 0.0 < radius < 1.0:
        raise RadiusOutOfRange(f"radius {radius} not in (0, 1)")
    if angles < 1:
        raise ParameterDomainError(f"angles must be >= 1, got {angles}")
    count, width = rows.shape
    scaled = np.zeros((count, -(-width // angles) * angles), dtype=np.complex128)
    scaled[:, :width] = rows * radius ** np.arange(width)
    folded = scaled.reshape(count, -1, angles).sum(axis=1)
    return np.fft.ifft(folded, axis=1, norm="forward")


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise unconjugated dot products of two (rows, k) arrays with unit
    strides along k; each row rounds exactly as np.dot does on one pair of
    contiguous vectors, since a stack of matmuls reaches the same BLAS dot."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _row_div(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Quotient num/denom of each row pair, stepping over k with all rows at once:
    out_k = (num_k - sum_{j<k} out_j*denom_{k-j}) / denom_0.  This and
    _row_log_derivative are the package's only coefficient recurrences."""
    if np.any(np.abs(denom[:, 0]) <= UNIT_TOLERANCE):
        raise DivisionByNonUnit(f"a divisor constant has modulus <= {UNIT_TOLERANCE}")
    width = num.shape[1]
    denom_rev = np.ascontiguousarray(denom[:, ::-1])
    out = np.zeros_like(num)
    out[:, 0] = num[:, 0] / denom[:, 0]
    for k in range(1, width):
        dots = _row_dots(out[:, :k], denom_rev[:, width - 1 - k : width - 1])
        out[:, k] = (num[:, k] - dots) / denom[:, 0]
    return out


def _row_log_derivative(q: np.ndarray) -> np.ndarray:
    """F with z*F' = F*q, F(0) = 0 and F'(0) = 1 for each row q with q(0) = 1,
    stepping over k with all rows at once; a width-w row gives width w+1."""
    if np.any(np.abs(q[:, 0] - 1.0) > UNIT_TOLERANCE):
        raise NormalizationError("source constant term must be 1")
    rows, width = q.shape
    q_rev = np.ascontiguousarray(q[:, ::-1])
    out = np.zeros((rows, width + 1), dtype=np.complex128)
    out[:, 1] = 1.0
    for k in range(2, width + 1):
        out[:, k] = _row_dots(out[:, 1:k], q_rev[:, width - k : width - 1]) / (k - 1)
    return out


def solve_log_derivative(q: ComplexSeries) -> ComplexSeries:
    """Normalized series F (F(0)=0, F'(0)=1) with z*F' = F*q.

    The source q must have constant term 1; coefficients follow the
    recurrence (k-1)*F_k = sum_{j=1}^{k-1} F_j q_{k-j}, so q of order M
    determines F through order M+1.
    """
    return ComplexSeries(_row_log_derivative(q._c[None, :])[0])


def require_normalized(f: ComplexSeries, tolerance: float = 1e-12) -> None:
    """Check f(0)=0 and f'(0)=1 up to tolerance."""
    if f.order < 1:
        raise NormalizationError("series order must be at least 1")
    if abs(f.coefficient(0)) > tolerance or abs(f.coefficient(1) - 1.0) > tolerance:
        raise NormalizationError(
            f"series is not normalized: c0={f.coefficient(0)}, c1={f.coefficient(1)}"
        )

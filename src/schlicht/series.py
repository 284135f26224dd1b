"""Truncated complex power series: a value type over its row kernels.

Every higher-level computation in this package runs on Taylor polynomials
c_0 + c_1 z + ... + c_N z^N with complex double coefficients.  The exact
coefficient recurrences are _row_div (series quotient) and
_row_log_derivative (the normalized F with z*F' = F*q); both step over k
with every row of a 2-D array at once, and subordination's member
construction and inversion and jack's growth extremal call them on rows.
A single row (an extremal, a report's member and its inversion) steps on
1-D views instead, which skips the per-step cost of a matmul stack; it
makes the same BLAS dot products, so a row comes out bit for bit the same
alone or in a stack.

The Newton kernels _row_reciprocal and _row_log_derivative_newton, with the
FFT row product _row_mul, compute the same series in O(N log N) per row
instead of O(N^2), not bit for bit, and lose digits as the coefficients
grow: 4e-16 off the recurrences on sampled Schwarz rows, but 1.9e-8 (order
512) and 8.8e-4 (2048) off the Koebe function, which the recurrences reach
to 1e-16.  Only the spiral and quotient-class builders of jack run them;
the member recurrences of subordination (fuzzing, extremals, reports) and
its inversion run the exact recurrences.  The choice is by caller,
not by shape, because of accuracy: Newton on the one 513-wide member row
of an order-512 extremal is 7.4e-9 to 7.5e-8 off, past extremals' 1e-8
attainment tolerance, and a rho^k dilation only adds error.  The tests pin
the recurrences bit for bit at order 512, and at the fuzzer's shapes
(hundreds of rows of width 11-21) the loop is 5-10x faster.

No logarithm or fractional power of a series is taken: a power such as
z*(1+z)^c is the solution of z*f'/f = 1 + c*z/(1+z), whose coefficients
are those of the principal branch, so the package needs no branch
convention.  circle_values is the one circle evaluator, and fit_row the
one rule that fits a series vanishing at 0 to a row of given width.

ComplexSeries holds construction, coefficients, circle evaluation and
JSON.  Its div, mul, log1, exp0, powc and eval_at, with
solve_log_derivative, stay only because the benchmark's tracer
(perfbench/tracing.py) wraps them by name; no package code calls them.
div truncates to the smaller operand order, and powc is exp(alpha*log(.))
of a series with constant term 1, so its branch is the principal one.

Instances are immutable (the backing array is marked read-only) and all
operations are pure functions, so series can be shared freely between
concurrent tasks.
"""

from itertools import chain

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

# require_normalized accepts |f(0)| and |f'(0) - 1| up to this
NORMALIZATION_TOLERANCE = 1e-12


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

    # -- traced by the benchmark, called by no package code -------------------

    def div(self, other: "ComplexSeries") -> "ComplexSeries":
        """Series quotient; the divisor constant term must be a unit."""
        width = min(self.order, other.order) + 1
        return ComplexSeries(_row_div(self._c[None, :width], other._c[None, :width])[0])

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
        return ComplexSeries(self.log1()._c * complex(alpha)).exp0()

    def eval_at(self, points) -> np.ndarray:
        """Horner evaluation at arbitrary complex points."""
        pts = np.asarray(points, dtype=np.complex128)
        vals = np.full(pts.shape, self._c[-1], dtype=np.complex128)
        for k in range(self.order - 1, -1, -1):
            vals = vals * pts + self._c[k]
        return vals

    # -- evaluation ------------------------------------------------------------

    def eval_on_circle(self, radius: float, num_angles: int) -> np.ndarray:
        """Values on the circle of given radius at equispaced angles."""
        return circle_values(self._c, radius, num_angles)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [[float(v.real), float(v.imag)] for v in self._c],
        }

    @classmethod
    def from_json_dict(cls, doc) -> "ComplexSeries":
        """The series of a to_json_dict document, {"order": n, "coeffs": [[re,
        im] x (n+1)]} with finite numbers; ParameterDomainError otherwise."""
        order = doc.get("order") if isinstance(doc, dict) else None
        pairs = doc.get("coeffs") if isinstance(doc, dict) else None
        if not (type(order) is int and type(pairs) is list and 0 <= order == len(pairs) - 1
                and set(map(type, pairs)) == {list} and set(map(len, pairs)) == {2}):
            raise ParameterDomainError('a series document is {"order": n, "coeffs": '
                                       "[[re, im] x (n+1)]}")
        parts = list(chain.from_iterable(pairs))
        if not set(map(type, parts)) <= {int, float}:
            raise ParameterDomainError("series coefficients must be numbers")
        try:
            values = np.array(parts, dtype=np.float64)
        except OverflowError:  # an integer beyond the double range
            values = np.array([np.inf])
        if not np.all(np.isfinite(values)):
            raise ParameterDomainError("series coefficients must be finite")
        return cls(values.view(np.complex128))


def fit_row(s: ComplexSeries, width: int) -> np.ndarray:
    """The coefficients c_0..c_{width-1} of s as a (1, width) row, zero-padded
    or truncated: the one order and origin rule of the one-series builders,
    whose inputs (a Schwarz function or a quotient source) vanish at 0."""
    if width < 1:
        raise ParameterDomainError(f"a series row needs width >= 1, got {width}")
    if abs(s._c[0]) > UNIT_TOLERANCE:
        raise ParameterDomainError("the series must vanish at the origin")
    row = np.zeros((1, width), dtype=np.complex128)
    row[0, : min(width, s._c.size)] = s._c[:width]
    return row


def monomial(coefficient: complex, degree: int, order: int) -> ComplexSeries:
    if not 0 <= degree <= order:
        raise ValueError("degree must lie in 0..order")
    out = np.zeros(order + 1, dtype=np.complex128)
    out[degree] = complex(coefficient)
    return ComplexSeries(out)


def identity(order: int) -> ComplexSeries:
    """The series z."""
    return monomial(1.0, 1, order)


def circle_values(coeffs: np.ndarray, radius: float, angles: int) -> np.ndarray:
    """Values of each coefficient row at radius*exp(2*pi*i*j/angles), j < angles.

    sum_k c_k r^k w^(jk) with w = exp(2*pi*i/angles) depends on k only mod
    angles, so one inverse FFT of the scaled rows folded mod angles gives
    every value (Trefethen & Weideman, SIAM Review 56, 2014).  The rows lie
    along the last axis of coeffs, of any leading shape.  This is the one
    place that checks the circle's domain.
    """
    if not 0.0 < radius < 1.0:
        raise RadiusOutOfRange(f"radius {radius} not in (0, 1)")
    if angles < 1:
        raise ParameterDomainError(f"angles must be >= 1, got {angles}")
    width = coeffs.shape[-1]
    scaled = coeffs * radius ** np.arange(width)
    for lo in range(angles, width, angles):  # fold into the first block
        scaled[..., : min(angles, width - lo)] += scaled[..., lo : lo + angles]
    return np.fft.ifft(scaled[..., :angles], angles, axis=-1, norm="forward")


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise unconjugated dot products of two (rows, k) arrays with unit
    strides along k; each row rounds exactly as np.dot does on one pair of
    contiguous vectors, since a stack of matmuls reaches the same BLAS dot."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _row_div(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Quotient num/denom of each row pair, stepping over k with all rows at once:
    out_k = (num_k - sum_{j<k} out_j*denom_{k-j}) / denom_0.  This and
    _row_log_derivative are the package's exact coefficient recurrences.

    One row steps on 1-D views with scalar updates, 3-4x faster at width
    513 than a stack of one.  It is bit for bit the stacked row: np.dot of
    the same unit-stride vectors is the BLAS dot a (1, k) @ (k, 1) matmul
    reaches, and numpy's complex scalars subtract and divide as its arrays
    do."""
    if np.any(np.abs(denom[:, 0]) <= UNIT_TOLERANCE):
        raise DivisionByNonUnit(f"a divisor constant has modulus <= {UNIT_TOLERANCE}")
    rows, width = num.shape
    denom_rev = np.ascontiguousarray(denom[:, ::-1])
    out = np.zeros_like(num)
    if rows == 1:
        n, d, d_rev, o = num[0], denom[0, 0], denom_rev[0], out[0]
        o[0] = n[0] / d
        for k in range(1, width):
            o[k] = (n[k] - np.dot(o[:k], d_rev[width - 1 - k : width - 1])) / d
        return out
    out[:, 0] = num[:, 0] / denom[:, 0]
    for k in range(1, width):
        dots = _row_dots(out[:, :k], denom_rev[:, width - 1 - k : width - 1])
        out[:, k] = (num[:, k] - dots) / denom[:, 0]
    return out


def _row_log_derivative(q: np.ndarray) -> np.ndarray:
    """F with z*F' = F*q, F(0) = 0 and F'(0) = 1 for each row q with q(0) = 1,
    stepping over k with all rows at once; a width-w row gives width w+1.
    One row steps on 1-D views, bit for bit as in _row_div."""
    if np.any(np.abs(q[:, 0] - 1.0) > UNIT_TOLERANCE):
        raise NormalizationError("source constant term must be 1")
    rows, width = q.shape
    q_rev = np.ascontiguousarray(q[:, ::-1])
    out = np.zeros((rows, width + 1), dtype=np.complex128)
    out[:, 1] = 1.0
    if rows == 1:
        q1_rev, o = q_rev[0], out[0]
        for k in range(2, width + 1):
            o[k] = np.dot(o[1:k], q1_rev[width - k : width - 1]) / (k - 1)
        return out
    for k in range(2, width + 1):
        out[:, k] = _row_dots(out[:, 1:k], q_rev[:, width - k : width - 1]) / (k - 1)
    return out


def _fft_size(n: int) -> int:
    """The smallest power of two that is at least n."""
    return 1 << (n - 1).bit_length()


def _newton_widths(n: int) -> list:
    """Precisions 1 = w_0 < w_1 < ... = n with w_{i+1} <= 2*w_i."""
    widths = [n]
    while widths[-1] > 1:
        widths.append((widths[-1] + 1) // 2)
    return widths[::-1]


def _row_mul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The first n coefficients of each row product a*b, by FFT at a
    power-of-two size large enough that no product term wraps."""
    a, b = a[:, :n], b[:, :n]
    size = _fft_size(a.shape[1] + b.shape[1] - 1)
    prod = np.fft.fft(a, size, axis=1) * np.fft.fft(b, size, axis=1)
    return np.fft.ifft(prod, axis=1)[:, :n]


def _reciprocal_step(g: np.ndarray, d_hat: np.ndarray, lo: int, hi: int) -> None:
    """One Newton step g <- g - g*(d*g - 1) for rows g = 1/d, from mod z^lo to
    mod z^hi (hi <= 2*lo), in place; d_hat is the transform of d mod z^hi.

    d*g - 1 vanishes below z^lo, so the cyclic product may wrap its top terms
    onto those coefficients (the transform size is at least hi), and g's
    transform serves both products of the step.
    """
    size = d_hat.shape[1]
    g_hat = np.fft.fft(g[:, :lo], size, axis=1)
    err = np.fft.ifft(d_hat * g_hat, axis=1)[:, lo:hi]
    step = np.fft.ifft(g_hat * np.fft.fft(err, size, axis=1), axis=1)
    g[:, lo:hi] = -step[:, : hi - lo]


def _row_reciprocal(d: np.ndarray) -> np.ndarray:
    """1/d of each row by Newton iteration, doubling the precision per step.
    The divisor check is _row_div's."""
    if np.any(np.abs(d[:, 0]) <= UNIT_TOLERANCE):
        raise DivisionByNonUnit(f"a divisor constant has modulus <= {UNIT_TOLERANCE}")
    widths = _newton_widths(d.shape[1])
    g = np.zeros_like(d)
    g[:, 0] = 1.0 / d[:, 0]
    for m, top in zip(widths, widths[1:]):
        _reciprocal_step(g, np.fft.fft(d[:, :top], _fft_size(top), axis=1), m, top)
    return g


def _row_log_derivative_newton(q: np.ndarray) -> np.ndarray:
    """_row_log_derivative by coupled Newton iteration for the exponential.

    F = z*E with E = exp(h), h = sum_{k>=1} q_k z^k/k (Brent & Kung, JACM
    25, 1978).  Each doubling m -> 2m first brings G = 1/E to mod z^m with
    the current E, then forms log E = integral of h' + G*(E' - E*h') and
    extends E by E*(h - log E) (Hanrot & Zimmermann, "Newton iteration
    revisited", 2004).  Below z^(m-1), E' - E*h' vanishes and E' has no
    terms above it, so only the middle product of E*h' is formed, and one
    transform of E serves all three of the step's products with E.  The
    source check is _row_log_derivative's.
    """
    if np.any(np.abs(q[:, 0] - 1.0) > UNIT_TOLERANCE):
        raise NormalizationError("source constant term must be 1")
    rows, width = q.shape
    dh = q[:, 1:]
    out = np.zeros((rows, width + 1), dtype=np.complex128)
    e = out[:, 1:]
    e[:, 0] = 1.0
    g = np.zeros((rows, width), dtype=np.complex128)
    g[:, 0] = 1.0
    widths = _newton_widths(width)
    # G = 1/E mod z^prev on entry to the step that takes E from z^m to z^top
    for prev, m, top in zip(widths[:1] + widths, widths, widths[1:]):
        size = _fft_size(top)
        e_hat = np.fft.fft(e[:, :m], size, axis=1)
        if prev < m:
            _reciprocal_step(g, e_hat, prev, m)
        mid = np.fft.ifft(e_hat * np.fft.fft(dh[:, : top - 1], size, axis=1), axis=1)
        # (h - log E)_k for k = m..top-1 is (G * mid)_{k-m} / k
        gap = _row_mul(g, mid[:, m - 1 : top - 1], top - m) / np.arange(m, top)
        step = np.fft.ifft(e_hat * np.fft.fft(gap, size, axis=1), axis=1)
        e[:, m:top] = step[:, : top - m]
    return out


def solve_log_derivative(q: ComplexSeries) -> ComplexSeries:
    """Normalized series F (F(0)=0, F'(0)=1) with z*F' = F*q; traced by the
    benchmark, called by no package code.

    The source q must have constant term 1; coefficients follow the
    recurrence (k-1)*F_k = sum_{j=1}^{k-1} F_j q_{k-j}, so q of order M
    determines F through order M+1.
    """
    return ComplexSeries(_row_log_derivative(q._c[None, :])[0])


def require_normalized(f: ComplexSeries, min_order: int = 1) -> None:
    """Check f(0)=0 and f'(0)=1 up to NORMALIZATION_TOLERANCE, and that f has
    order min_order at least."""
    if f.order < min_order:
        raise NormalizationError(f"series order {f.order} is below {min_order}")
    c0, c1 = f.coefficient(0), f.coefficient(1)
    if abs(c0) > NORMALIZATION_TOLERANCE or abs(c1 - 1.0) > NORMALIZATION_TOLERANCE:
        raise NormalizationError(f"series is not normalized: c0={c0}, c1={c1}")

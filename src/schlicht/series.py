"""Truncated complex power series: a value type over its row recurrence.

Every higher-level computation in this package runs on Taylor polynomials
c_0 + c_1 z + ... + c_N z^N with complex double coefficients.  The one
exact coefficient recurrence, _row_div, is the series quotient, and with
a diagonal the solve _row_log_derivative (the normalized F with d_k*F_k =
[z^k](F*q), which is z*F' = F*q for the default d_k = k-1); it steps over
k with every row of a 2-D array at once, each step one np.vecdot into a
preallocated buffer, a subtract and a divide.  Every member comes from
_row_log_derivative: subordination's class members with the default
divisors, jack's growth extremal (omega = -z in Sstar(1/(2*beta))) among
them, and jack's spiral and quotient-class members with d_k = (k-1)/k.
A single row (an extremal, a report's member and its inversion) steps on
1-D views, bit for bit as a row of the stack.  A divisor narrower than
its numerator, jack's spiral divisor (1+A*omega)^2, is a band, and
_row_div steps over blocks of that band instead of single coefficients.

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
        return tuple(self._c.tolist())

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
            "coeffs": self._c.view(np.float64).reshape(-1, 2).tolist(),
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
    along the last axis of coeffs, of any leading shape, which is left
    unchanged.  The scaled first block goes into one zeroed grid of the
    values' shape, the later blocks are added into it, and the transform
    runs in place there: one grid-sized array per call.  This is the one
    place that checks the circle's domain.
    """
    if not 0.0 < radius < 1.0:
        raise RadiusOutOfRange(f"radius {radius} not in (0, 1)")
    if angles < 1:
        raise ParameterDomainError(f"angles must be >= 1, got {angles}")
    width = coeffs.shape[-1]
    scale = radius ** np.arange(width)
    grid = np.zeros((*coeffs.shape[:-1], angles), dtype=np.complex128)
    head = min(width, angles)
    np.multiply(coeffs[..., :head], scale[:head], out=grid[..., :head])
    for lo in range(angles, width, angles):  # fold into the first block
        block = slice(lo, lo + angles)
        grid[..., : min(angles, width - lo)] += coeffs[..., block] * scale[block]
    return np.fft.ifft(grid, axis=-1, norm="forward", out=grid)


def _row_div(num: np.ndarray, denom: np.ndarray, diagonal=None) -> np.ndarray:
    """The package's one exact coefficient recurrence, stepping over k with
    all rows at once: out_k = (num_k - sum_{j<k} out_j*denom_{k-j}) / w_k,
    each step a dot, a subtract and a divide, into a new array.  w_k is
    each row's denom_0 (the quotient num/denom) or entry k of a diagonal
    shared by all rows (the weighted solve of _row_log_derivative).

    A stack steps with np.vecdot(conj(d), o), BLAS zdotc over one
    contiguous copy of the conjugated reversed divisor.  One row steps on
    1-D views with scalar updates and ndarray.dot, zdotu without np.dot's
    dispatch, about 3.3x faster at width 513 than a stack of one.  The row
    is bit for bit the stacked row: zdotc of conj(d) and zdotu of d run
    one kernel whose partial sums differ only by exact negations, and
    numpy's complex scalars subtract and divide as its arrays do.

    A divisor wider than num is truncated to its width.  A narrower one is
    a band d_0..d_m, and the quotient steps over blocks s_K of m
    coefficients by forward substitution, s_K = H*(r_K - R*s_{K-1}): H is
    the lower-triangular Toeplitz block of the first m terms of 1/denom,
    which the recurrence above gives in m steps, and R the band's reach
    into the previous block: ceil(width/m) steps, not width, of einsums,
    which round a row alike in a stack of any size.  A num zero past the
    first block (a spiral source) steps s_K = H*((-R)*s_{K-1}) on a negated
    copy of the reach, no subtract: the one negation left, as H*(0 - R*s)
    read 1.024x on the disk workload's rounds, faster in 4 of 12 pairs.
    The band is a quotient's only; a diagonal needs a full-width divisor."""
    rows, width = num.shape
    w = denom[:, :1] if diagonal is None else diagonal
    if np.any(np.abs(w) <= UNIT_TOLERANCE):
        raise DivisionByNonUnit(f"a divisor constant has modulus <= {UNIT_TOLERANCE}")
    if denom.shape[1] < width:
        band = max(denom.shape[1] - 1, 1)
        padded = np.zeros((rows, 2 * band), dtype=np.complex128)
        padded[:, : denom.shape[1]] = denom
        unit = np.eye(1, band, dtype=np.complex128).repeat(rows, 0)
        h = _row_div(unit, padded[:, :band])
        i = np.arange(band)
        lower = np.tril(h[:, (i[:, None] - i) % band])
        reach = padded[:, band + i[:, None] - i]  # zero below its diagonal
        zero_tail = not num[:, band:].any()  # r_K = 0 past the first block
        if zero_tail:  # reach is a copy of denom's band
            np.negative(reach, out=reach)
        blocks = np.zeros((rows, -(-width // band), band), dtype=np.complex128)
        blocks.reshape(rows, -1)[:, :width] = num
        blocks[:, 0] = np.einsum("rij,rj->ri", lower, blocks[:, 0])
        rest = np.empty((rows, band), dtype=np.complex128)
        for k in range(1, blocks.shape[1]):
            np.einsum("rij,rj->ri", reach, blocks[:, k - 1], out=rest)
            if not zero_tail:
                np.subtract(blocks[:, k], rest, out=rest)
            np.einsum("rij,rj->ri", lower, rest, out=blocks[:, k])
        return blocks.reshape(rows, -1)[:, :width]
    w = [denom[:, 0]] * width if diagonal is None else diagonal
    rev = denom[:, width - 1 :: -1]
    out = np.empty_like(num)
    out[:, 0] = num[:, 0] / w[0]
    if rows == 1:
        # Python scalars index fast; the dot's numpy scalar makes numpy subtract and divide
        d_rev = np.ascontiguousarray(rev[0])
        n, o = num[0].tolist(), out[0]
        w1 = [complex(denom[0, 0])] * width if diagonal is None else diagonal.tolist()
        for k in range(1, width):
            o[k] = (n[k] - o[:k].dot(d_rev[width - 1 - k : width - 1])) / w1[k]
        return out
    d_conj = np.conjugate(rev)
    dot = np.empty(rows, dtype=np.complex128)
    for k in range(1, width):
        np.vecdot(d_conj[:, width - 1 - k : width - 1], out[:, :k], out=dot)
        np.subtract(num[:, k], dot, out=dot)
        np.divide(dot, w[k], out=out[:, k])
    return out


def _row_log_derivative(q: np.ndarray, divisors=None) -> np.ndarray:
    """F with F(0) = 0, F'(0) = 1 and d_k*F_k = sum_{j=1}^{k-1} F_j q_{k-j} for
    each row q with q(0) = 1; a width-w row gives width w+1.  The divisors
    d_0..d_w (complex, only d_2.. read) default to d_k = k-1, which is
    z*F' = F*q; the jack builders pass d_k = (k-1)/k.  F/z is one _row_div
    of the unit row by q with the diagonal (1, -d_2, ..., -d_w), a step
    (0 - x)/(-d_k) that is x/d_k up to the sign of a zero part."""
    if np.any(np.abs(q[:, 0] - 1.0) > UNIT_TOLERANCE):
        raise NormalizationError("source constant term must be 1")
    rows, width = q.shape
    d = np.arange(-1.0, width, dtype=np.complex128) if divisors is None else divisors
    out = np.zeros((rows, width + 1), dtype=np.complex128)
    out[:, 1] = 1.0
    out[:, 1:] = _row_div(out[:, 1:], q, np.concatenate(([1.0], -d[2 : width + 1])))
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

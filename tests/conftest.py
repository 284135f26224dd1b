"""Shared parameter-draw helpers and recurrence references for the test suite.

Draws are constructive where a rejection loop would be slow: case-I
parameters pick gamma so that gamma*(A-B) lands within distance < 1 of B,
and the identity-hypothesis draws place gamma*(A-B) at a prescribed
distance from B*(m-2).  Case-II draws use rejection from a biased region.

The reference recurrences write the series division (with an arbitrary
diagonal too), the log-derivative solve (with the jack builders' divisors
(k-1)/k too) and the exponential out as 1-D np.dot loops over k,
independent of the package's recurrence; reference_quotient_member
chains the weighted solve into the member of a quotient source, and
reference_schwarz inverts the Moebius map of a member as one division,
omega = v/(u - B*v) with u = F/z, v = z*u'/(gamma*(A-B)) and pivot
u_0 = 1; binomial_series is the term recurrence of (1 + s*z)^alpha; the
extremal reference is the closed form of the member of omega = z^m, and
grid_sup evaluates by np.polyval.  The bound references evaluate one
index n at a time: the margin list and its max for the case, and a
product loop over j for the value; reference_cauchy_euler multiplies
that value by the transfer factor as a scalar loop over j < m.
spiral_gamma_closed_form is the second evaluation of the spiral reduction.
reference_json is the JSON writer as one plain recursion, without the
CLI's row tables, and bound_document is the record document of one bound
row; reference_rows is the CSV and table writer one cell at a time,
without the CLI's column formatting and row templates.
reference_draw and reference_pick draw a Schwarz sample and the fuzzer's
construction pick through one np.random.default_rng per stream, the way
the package drew them before it seeded all streams in one pass.
"""

import cmath
import math
from json.encoder import encode_basestring

import numpy as np
import pytest

from schlicht import ClassParams, classify_case
from schlicht.output import format_float


def draw_valid_params(rng) -> ClassParams:
    b = float(rng.uniform(-1.0, 0.99))
    a = float(rng.uniform(b + 0.01, 1.0))
    lam = float(rng.uniform(0.0, 1.0))
    while True:
        gamma = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(gamma) > 1e-3:
            return ClassParams(gamma, lam, a, b)


def draw_case_ii_params(rng, n: int, max_tries: int = 10_000) -> ClassParams:
    """Parameters classified II at index n (margins nonnegative through n-1)."""
    for _ in range(max_tries):
        b = float(rng.uniform(-1.0, -0.7))
        a = float(rng.uniform(max(b + 0.5, 0.3), 1.0))
        rho = float(rng.uniform(0.5, 2.0))
        phi = float(rng.uniform(-0.6, 0.6))
        lam = float(rng.uniform(0.0, 1.0))
        p = ClassParams(rho * np.exp(1j * phi), lam, a, b)
        if classify_case(p, n).case == "II":
            return p
    raise AssertionError("case-II rejection sampling exhausted")


def draw_case_i_params(rng) -> ClassParams:
    """Parameters with a strictly negative first margin (case I at every n)."""
    while True:
        b = float(rng.uniform(-1.0, 0.5))
        a = float(rng.uniform(b + 0.2, 1.0))
        delta = float(rng.uniform(0.05, 0.95)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        gamma = (b + delta) / (a - b)
        if abs(gamma) > 1e-3:
            lam = float(rng.uniform(0.0, 1.0))
            return ClassParams(gamma, lam, a, b)


def draw_identity_params(rng, m_max: int = 12):
    """(params, m) satisfying |gamma*(A-B) - B*(m-2)| >= m-2 by construction."""
    m = int(rng.integers(2, m_max + 1))
    b = float(rng.uniform(-1.0, 0.9))
    a = float(rng.uniform(b + 0.1, 1.0))
    radius = (m - 2) + float(rng.uniform(0.0, 3.0))
    w = radius * np.exp(1j * rng.uniform(0, 2 * np.pi))
    gamma = (b * (m - 2) + w) / (a - b)
    if abs(gamma) <= 1e-6:
        gamma = 1.0
    lam = float(rng.uniform(0.0, 1.0))
    return ClassParams(gamma, lam, a, b), m


def draw_spiral_case_ii(rng, max_tries: int = 10_000):
    """(beta, a, b, n) whose reduction classifies II at n."""
    from schlicht import spiral_gamma

    for _ in range(max_tries):
        beta = float(rng.uniform(-0.9, 0.9))
        b = float(rng.uniform(-1.0, -0.6))
        a = float(rng.uniform(max(b + 0.5, 0.4), 1.0))
        n = int(rng.integers(2, 13))
        p = ClassParams(spiral_gamma(beta), 0.0, a, b)
        if classify_case(p, n).case == "II":
            return beta, a, b, n
    raise AssertionError("spiral case-II rejection sampling exhausted")


def reference_case(p, n: int):
    """(case, crossover_k, margins A_2..A_{n-1}) at index n on its own."""
    base = p.product_base()
    margins = [abs(base - p.b * (k - 1)) - (k - 1) for k in range(2, n)]
    if n == 2 or margins[-1] >= 0.0:
        return "II", None, margins
    if margins[0] < 0.0:
        return "I", None, margins
    crossover = max(k for k, a_k in zip(range(2, n), margins) if a_k >= 0.0)
    return "III", crossover, margins


def reference_case_ii(p, n: int) -> float:
    """prod_{j<n-1} |gamma*(A-B) - j*B|/(j+1), over 1 + lambda*(n-1)."""
    base = p.product_base()
    acc = 1.0
    for j in range(n - 1):
        acc *= abs(base - j * p.b) / (j + 1)
    return acc / (1.0 + p.lam * (n - 1))


def reference_case_iii(p, n: int, k: int) -> float:
    """prod_{j<k} |gamma*(A-B) - j*B|/max(j, 1), over (n-1)*(1 + lambda*(n-1))."""
    base = p.product_base()
    acc = 1.0
    for j in range(k):
        acc *= abs(base - j * p.b) / max(j, 1)
    return acc / ((n - 1) * (1.0 + p.lam * (n - 1)))


def reference_bound(p, n: int):
    """(case, crossover_k, bound) at index n on its own."""
    case, k, _ = reference_case(p, n)
    if case == "I":
        value = abs(p.gamma) * (p.a - p.b) / ((n - 1) * (1.0 + p.lam * (n - 1)))
    elif case == "II":
        value = reference_case_ii(p, n)
    else:
        value = reference_case_iii(p, n, k)
    return case, k, value


def reference_cauchy_euler(p, ce, n: int) -> float:
    """reference_bound at n times prod_{j<m} (mu+j+1)/(mu+j+n), one scalar
    step per j."""
    factor = 1.0
    for j in range(ce.m):
        factor *= (ce.mu + j + 1.0) / (ce.mu + j + n)
    return reference_bound(p, n)[2] * factor


def reference_div(s, t, diagonal=None) -> np.ndarray:
    """out_k = (s_k - sum_{j<k} out_j t_{k-j}) / w_k: the coefficients of s/t
    for w_k = t_0, the default, or the weighted solve for a diagonal w."""
    s, t = np.asarray(s, dtype=np.complex128), np.asarray(t, dtype=np.complex128)
    out = np.zeros(min(s.size, t.size), dtype=np.complex128)
    w = np.full(out.size, t[0]) if diagonal is None else diagonal
    out[0] = s[0] / w[0]
    for k in range(1, out.size):
        out[k] = (s[k] - np.dot(out[:k], t[k:0:-1])) / w[k]
    return out


def reference_schwarz(f, p) -> np.ndarray:
    """omega = (P-1)/(A - B*P) of a member f as one reference_div, v/(u - B*v)
    with u = F/z and v = z*u'/gamma/(A-B), each formed in the package's order."""
    c = np.asarray(f.coeffs)
    u = (c * [1.0 + p.lam * max(k - 1, 0) for k in range(c.size)])[1:]
    v = u * np.arange(u.size) / complex(p.gamma) / (p.a - p.b)
    return reference_div(v, u - v * p.b)


def reference_log_derivative(q, divisors=None) -> np.ndarray:
    """F with F(0) = 0, F'(0) = 1 and d_k*F_k = sum_j F_j q_{k-j}, where d_k
    is divisors[k], or k-1 (z*F' = F*q) when divisors is None."""
    q = np.asarray(q, dtype=np.complex128)
    d = range(-1, q.size) if divisors is None else divisors
    out = np.zeros(q.size + 1, dtype=np.complex128)
    out[1] = 1.0
    for k in range(2, q.size + 1):
        out[k] = np.dot(out[1:k], q[k - 1 : 0 : -1]) / d[k]
    return out


def quotient_divisors(width: int) -> np.ndarray:
    """The divisors (k-1)/k, k = 0..width-1, of the jack builders' weighted
    log-derivative recurrence, as complex doubles; d_0 = -1 and d_1 = 0 are
    never read."""
    k = np.arange(float(width))
    return ((k - 1.0) / np.maximum(k, 1.0)).astype(np.complex128)


def reference_quotient_member(source, order: int) -> np.ndarray:
    """a_0..a_order of the member with z*f'/f = p, z*p' = s*p^2, p(0) = 1,
    for the source s_0..s_{order-1}: D = z*f' by the weighted reference
    recurrence on q = 1 + sum_k s_k z^k/k, then a_k = D_k/k."""
    s = np.asarray(source, dtype=np.complex128)
    k = np.arange(order + 1.0)
    q = np.ones(order, dtype=np.complex128)
    q[1:] = s[1:order] / k[1:-1]
    members = reference_log_derivative(q, quotient_divisors(order + 1))
    members[1:] /= k[1:]
    return members


def reference_exp0(w) -> np.ndarray:
    """exp(w) for w(0) = 0: k*E_k = sum_{j=1}^k j*w_j E_{k-j}."""
    w = np.asarray(w, dtype=np.complex128)
    jw = w * np.arange(w.size)
    out = np.zeros(w.size, dtype=np.complex128)
    out[0] = 1.0
    for k in range(1, w.size):
        out[k] = np.dot(jw[1 : k + 1], out[k - 1 :: -1]) / k
    return out


def binomial_series(alpha: complex, scale: complex, order: int) -> np.ndarray:
    """Coefficients of (1 + scale*z)^alpha through order, by the term
    recurrence c_k = c_{k-1} * scale * (alpha - k + 1) / k."""
    coeffs = [1.0 + 0j]
    for k in range(1, order + 1):
        coeffs.append(coeffs[-1] * scale * (alpha - k + 1) / k)
    return np.array(coeffs)


def spiral_gamma_closed_form(beta: float) -> complex:
    """The spiral reduction gamma = 1/(1+i*tan(beta)) evaluated as
    exp(-i*beta)*cos(beta), for cross-checking spiral_gamma."""
    return cmath.exp(-1j * beta) * math.cos(beta)


def reference_json(obj) -> str:
    """fixed_json_dumps(obj), formatting each float where it occurs."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        items = (f"{encode_basestring(str(key))}:{reference_json(value)}"
                 for key, value in obj.items())
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(reference_json, obj)) + "]"
    if hasattr(obj, "to_json_dict"):
        return reference_json(obj.to_json_dict())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def bound_document(result) -> dict:
    """The JSON object of one BoundResult row, from its five fields."""
    return {"n": result.n, "case": result.case_tag, "k": result.crossover_k,
            "bound": result.value, "sharp": result.sharp}


def reference_rows(header, widths, rows, fmt: str) -> str:
    """The CSV (fmt "csv") or right-aligned table text of header and rows.

    Each cell on its own: a float through format_float, None as "" in CSV
    and "-" in a table, anything else as its str(); a table is titled by
    the last word of each name and right-justifies every cell to its width.
    """
    blank = "" if fmt == "csv" else "-"
    cells = [[format_float(cell) if isinstance(cell, float)
              else blank if cell is None else str(cell) for cell in row] for row in rows]
    if fmt == "csv":
        return "".join(",".join(line) + "\n" for line in [list(header), *cells])
    titles = [name.rpartition("_")[2] for name in header]
    lines = [" ".join(map(str.rjust, line, widths)) for line in [titles, *cells]]
    return "\n".join(lines) + "\n"


def reference_extremal(p, m: int, order: int) -> np.ndarray:
    """a_0..a_order of the member of omega = z^m, from its closed form.

    That member is the weighted solve of z*(1 + B*z^m)^c with
    c = gamma*(A-B)/(B*m), or of z*exp(gamma*A*z^m/m) when B = 0: the
    coefficient of z^(1+j*m) is binom(c, j)*B^j, or (gamma*A/m)^j/j!,
    divided by the weight 1 + lambda*j*m.  The running product is kept in
    extended precision, since in doubles its rounding drifts to ~1e-14
    over 500 factors.
    """
    gamma = np.clongdouble(p.gamma)
    out = np.zeros(order + 1, dtype=np.complex128)
    term = np.clongdouble(1.0)
    for j, k in enumerate(range(1, order + 1, m)):
        out[k] = complex(term) / (1.0 + p.lam * (k - 1))
        if p.b != 0.0:
            c = gamma * (p.a - p.b) / (p.b * m)
            term *= (c - j) / (j + 1) * p.b
        else:
            term *= gamma * p.a / m / (j + 1)
    return out


def reference_draw(seed, degree: int, construction: str) -> np.ndarray:
    """Coefficients c_0..c_m of the Schwarz polynomial drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    if construction == "rotation":
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        return np.array([0.0, cmath.exp(1j * theta)], dtype=np.complex128)
    rho = 1.0 - float(rng.random())
    coeffs = np.zeros(degree + 1, dtype=np.complex128)
    if construction == "monomial":
        coeffs[degree] = rho
        return coeffs
    c = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
    total = float(np.sum(np.abs(c)))
    if total == 0.0:
        c = np.ones(degree, dtype=np.complex128)
        total = float(degree)
    coeffs[1:] = c * (rho / total)
    return coeffs


def reference_pick(seed: int, index: int) -> str:
    """The fuzzer's construction of sample index, from default_rng((seed, index, 1))."""
    u = np.random.default_rng((seed, index, 1)).random()
    if u < 0.8:
        return "polynomial_normalized"
    return "rotation" if u < 0.9 else "monomial"


def grid_sup(omega) -> float:
    """max |omega| over 256 equispaced points of |z| = 0.99."""
    z = 0.99 * np.exp(2j * np.pi * np.arange(256) / 256)
    return float(np.max(np.abs(np.polyval(np.asarray(omega.coeffs)[::-1], z))))


def max_norm_error(actual, expected) -> float:
    """max_k |actual_k - expected_k| over max_k |expected_k|."""
    error = np.abs(np.asarray(actual) - expected)
    return float(np.max(error) / np.max(np.abs(expected)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)

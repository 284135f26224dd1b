"""Schwarz-function construction, membership tests, and the bound fuzzer.

A Schwarz function here is a polynomial omega with omega(0) = 0 that maps
the unit disk into itself.  Members of the subordination class are built
from omega by solving z*F' = F*Q coefficient-wise with
Q = 1 + gamma*(A-B)*omega/(1 + B*omega), then dividing out the weights
1 + lambda*(k-1).  This is the only construction of a member from omega;
the extremals are the members of omega = z and omega = z^(n-1).
Recovering omega = (P-1)/(A - B*P) from a member is one series division,
v/(u - B*v) with u = F/z, v = z*u'/(gamma*(A-B)) and pivot u_0 = 1.

The fuzzer drives many random Schwarz samples through this construction
and compares each |a_n| against the bound formulas.  Everything is keyed
off a single integer seed; sample i draws from the stream
np.random.default_rng((seed, i)) and picks its construction from
default_rng((seed, i, 1)), so identical seeds give byte-identical
reports.  Those streams are not built one Generator at a time: the
SeedSequence hash of every sample's entropy runs as one vectorized
uint32 pass, each PCG64 start state and first double (O'Neill 2014,
XSL-RR output) follow on arrays of (hi, lo) uint64 limbs, and only the
normals of polynomial samples go through one reused PCG64.  SeedSequence
zero-pads entropy to its 4-word pool, so below seed 2^64 the stream
(seed, i) is (seed, i, 0) and one pass hashes both streams of every
sample.  The draws are bit for bit those of the per-sample Generators.
The samples of one run are then built together: the recurrences step
over the coefficient index k with every sample in one row of a 2-D array.
The per-index statistics stay columns too, and a report's per_n is one
output.Table of them, written without a record per index.
"""

import cmath
import math
from typing import NamedTuple

import numpy as np

from . import series as srs
from .bounds import reduction_columns
from .errors import ParameterDomainError
from .output import JSON, Column, Table
from .params import ClassParams, Reduction, check_index, check_order, check_samples
from .series import ComplexSeries

CONSTRUCTIONS = ("polynomial_normalized", "rotation", "monomial")

# Largest index the per-sample quadratic-sum inequality is checked at.  The
# slack is a running sum over n, so a larger limit would cost little, but it
# would change the verify and report bytes.
QUADRATIC_CHECK_LIMIT = 10

# A fuzzed |a_n| violates its bound when it exceeds bound*(1+VIOLATION_RTOL);
# a quadratic slack below -VIOLATION_RTOL is a violation too.
VIOLATION_RTOL = 1e-9

# is_member's grid, MEMBERSHIP_ANGLES points of |z| = MEMBERSHIP_RADIUS, and
# how far below 0 the margin 1 - max|omega| may fall for a member
MEMBERSHIP_RADIUS = 0.99
MEMBERSHIP_ANGLES = 2048
MEMBERSHIP_TOLERANCE = 1e-6

# a sample's construction is the first of CONSTRUCTIONS whose edge lies
# above the first double u of its (seed, i, 1) stream, the last when none does
PICK_EDGES = (0.8, 0.9)

# numpy's SeedSequence: a pool of 4 uint32 words mixed by multiply and a
# 16-bit xorshift; and the multiplier of PCG64's 128-bit LCG as (hi, lo)
# uint64 limbs, lo also in 32-bit halves
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 2**32 - 1
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_PCG_MULT_LO_HI, _PCG_MULT_LO_LO = np.uint64(0x4385DF64), np.uint64(0x9FCCF645)
_U1, _U11, _U32, _U58, _U63, _U64, _LOW32 = map(np.uint64, (1, 11, 32, 58, 63, 64, _MASK32))


class MembershipReport(NamedTuple):
    member: bool
    margin: float
    radius: float = MEMBERSHIP_RADIUS
    angles: int = MEMBERSHIP_ANGLES


def _entropy_words(entropy) -> list:
    """The uint32 words SeedSequence makes of an int or a sequence of ints:
    each int little-endian, 0 as one word."""
    if isinstance(entropy, (int, np.integer)):
        n = int(entropy)
        if n < 0:
            raise ParameterDomainError(f"seed must be a nonnegative integer, got {n}")
        words = [n & _MASK32]
        while n := n >> 32:
            words.append(n & _MASK32)
        return words
    return [word for part in entropy for word in _entropy_words(part)]


def _stream_entropy(seed: int, indices, *suffix) -> np.ndarray:
    """Entropy words of the streams (seed, i, *suffix), one row per index i.

    Every index is below 2**32, so it is one word and all rows have the
    same length.
    """
    prefix = _entropy_words(seed)
    rows = np.empty((len(indices), len(prefix) + 1 + len(suffix)), dtype=np.uint32)
    rows[:, : len(prefix)] = prefix
    rows[:, len(prefix)] = indices
    rows[:, len(prefix) + 1 :] = suffix
    return rows


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(words).generate_state(4, np.uint64) for each row of entropy.

    The hash constant advances once per hashmix call whatever the words
    are, so every row runs the same uint32 operations side by side.  The
    pool is one (4, rows) array, a line per word, and the calls that meet
    one source word (its destinations in the pool, the output's eight
    words) take consecutive constants in one call.
    """
    rows, length = entropy.shape
    chain_a, chain_b = [_INIT_A], [_INIT_B]
    for _ in range(_POOL_SIZE * max(length, _POOL_SIZE)):
        chain_a.append(chain_a[-1] * _MULT_A & _MASK32)
    for _ in range(8):
        chain_b.append(chain_b[-1] * _MULT_B & _MASK32)

    def hashmix(value, at, count, chain=np.array(chain_a, np.uint32)[:, None]):
        value = (value ^ chain[at : at + count]) * chain[at + 1 : at + count + 1]
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    pool = np.zeros((_POOL_SIZE, rows), dtype=np.uint32)
    pool[:length] = entropy.T[:_POOL_SIZE]
    pool = hashmix(pool, 0, _POOL_SIZE)
    for src in range(_POOL_SIZE):  # src meets the other words in order
        dst = [i for i in range(_POOL_SIZE) if i != src]
        at = _POOL_SIZE + (_POOL_SIZE - 1) * src
        pool[dst] = mix(pool[dst], hashmix(pool[src], at, _POOL_SIZE - 1))
    for src in range(_POOL_SIZE, length):
        pool = mix(pool, hashmix(entropy[:, src], _POOL_SIZE * src, _POOL_SIZE))
    state = hashmix(np.tile(pool, (2, 1)), 0, 8, np.array(chain_b, np.uint32)[:, None])
    return np.ascontiguousarray(state.T).view(np.uint64)


def _pcg_step(hi, lo, inc_hi, inc_lo) -> tuple:
    """(hi, lo) uint64 limbs of state*MULT + inc mod 2^128, elementwise.

    The high half of lo*MULT_LO comes from 32-bit halves, the other cross
    products wrap mod 2^64, and the low limb's sum carries into the high.
    """
    lo_lo, lo_hi = lo & _LOW32, lo >> _U32
    mid_a, mid_b = lo_hi * _PCG_MULT_LO_LO, lo_lo * _PCG_MULT_LO_HI
    mid = (lo_lo * _PCG_MULT_LO_LO >> _U32) + (mid_a & _LOW32) + (mid_b & _LOW32)
    high = lo_hi * _PCG_MULT_LO_HI + (mid_a >> _U32) + (mid_b >> _U32) + (mid >> _U32)
    new_lo = lo * _PCG_MULT_LO + inc_lo
    return high + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO + inc_hi + (new_lo < inc_lo), new_lo


def _first_draws(entropy: np.ndarray) -> tuple:
    """Each stream's first random() double, and a row of uint64 limbs
    (state_hi, state_lo, inc_hi, inc_lo) of its PCG64 after that draw.

    PCG64 seeds from words w0..w3 as inc = 2*(w2*2^64 + w3) + 1 and
    state = (inc + w0*2^64 + w1)*MULT + inc, all mod 2^128; a draw steps
    state = state*MULT + inc and outputs the XSL-RR of the new state,
    (hi ^ lo) rotated right by hi >> 58, whose top 53 bits make the double.
    """
    w0, w1, w2, w3 = _seed_words(entropy).T
    inc_hi, inc_lo = w2 << _U1 | w3 >> _U63, w3 << _U1 | _U1
    lo = inc_lo + w1
    hi, lo = _pcg_step(inc_hi + w0 + (lo < w1), lo, inc_hi, inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    xored, rot = hi ^ lo, hi >> _U58
    out = xored >> rot | xored << ((_U64 - rot) & _U63)
    u = (out >> _U11).astype(np.float64) * 2.0**-53
    return u, np.stack([hi, lo, inc_hi, inc_lo], axis=1)


def _normal_rows(limbs: np.ndarray, count: int) -> np.ndarray:
    """count standard normals from each PCG64 stream, resumed at its limbs."""
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    normals = np.empty((len(limbs), count))
    full = bit_generator.state
    pcg = full["state"]
    for row, (s_hi, s_lo, i_hi, i_lo) in zip(normals, limbs.tolist()):
        pcg["state"], pcg["inc"] = s_hi << 64 | s_lo, i_hi << 64 | i_lo
        bit_generator.state = full
        generator.standard_normal(out=row)
    return normals


def _normalized_rows(normals: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Rows c_j = x_j + i*y_j of the normals (x | y), rescaled so sum|c_j| = rho.

    A row whose c are all zero is replaced by c_j = 1 before rescaling.
    """
    degree = normals.shape[1] // 2
    c = normals[:, :degree] + 1j * normals[:, degree:]
    total = np.sum(np.abs(c), axis=1)
    zero = total == 0.0
    c[zero] = 1.0
    total[zero] = degree
    return c * (rho / total)[:, None]


def _check_draw(degree: int, construction) -> None:
    if degree < 1:
        raise ParameterDomainError(f"degree must be >= 1, got {degree}")
    if construction is not None and construction not in CONSTRUCTIONS:
        raise ParameterDomainError(
            f"unknown construction {construction!r}; expected one of {CONSTRUCTIONS}"
        )


def _omega_rows(draws: tuple, kinds: np.ndarray, degree: int, width: int):
    """Schwarz coefficients c_0..c_{width-1} of the streams whose _first_draws are draws.

    kinds indexes CONSTRUCTIONS (0 polynomial, 1 rotation, 2 monomial).
    The stream's first double u gives rho = 1 - u in (0, 1] and
    theta = 2*pi*u; polynomial rows then draw 2*degree normals, the real
    parts before the imaginary ones.
    """
    u, limbs = draws
    rho = 1.0 - u
    omegas = np.zeros((len(kinds), width), dtype=np.complex128)
    if width > 1:
        for row in np.flatnonzero(kinds == 1):
            omegas[row, 1] = cmath.exp(1j * float(0.0 + 2.0 * np.pi * u[row]))
    if degree < width:
        monomials = kinds == 2
        omegas[monomials, degree] = rho[monomials]
    polys = np.flatnonzero(kinds == 0)
    c = _normalized_rows(_normal_rows(limbs[polys], 2 * degree), rho[polys])
    span = max(0, min(degree, width - 1))
    omegas[polys, 1 : span + 1] = c[:, :span]
    return omegas


def schwarz_rows(
    seed: int, indices, degree: int, width: int, construction: str | None = None
) -> tuple:
    """Constructions and coefficient rows c_0..c_{width-1} of the samples
    `indices` of seed.

    Row i is sample_schwarz((seed, i), degree, name) zero-padded or
    truncated to width.  With construction None, name is picked by the
    first double of the stream (seed, i, 1) against PICK_EDGES, a stream
    of its own so that the pick does not bias the draws; else it is
    construction for every row.
    """
    _check_draw(degree, construction)
    if construction is not None:
        kinds = np.full(len(indices), CONSTRUCTIONS.index(construction))
        draws = _first_draws(_stream_entropy(seed, indices))
    else:
        picks = _stream_entropy(seed, indices, 1)
        if picks.shape[1] <= _POOL_SIZE:
            # zero-padded to the pool, (seed, i) hashes as (seed, i, 0)
            u, limbs = _first_draws(np.vstack([picks, _stream_entropy(seed, indices, 0)]))
            u, draws = u[: len(indices)], (u[len(indices) :], limbs[len(indices) :])
        else:
            u, draws = _first_draws(picks)[0], _first_draws(_stream_entropy(seed, indices))
        kinds = np.searchsorted(PICK_EDGES, u, side="right")
    omegas = _omega_rows(draws, kinds, degree, width)
    return [CONSTRUCTIONS[k] for k in kinds], omegas


def sample_schwarz(
    seed, degree: int, construction: str = "polynomial_normalized"
) -> ComplexSeries:
    """Draw a random Schwarz polynomial, reproducibly for a given seed.

    polynomial_normalized: omega = z * sum_{j<d} c_j z^j with the c_j
    rescaled so sum|c_j| = rho.  rotation: omega = exp(i*theta) * z.
    monomial: omega = rho * z^d.  rho in (0, 1] and theta in [0, 2*pi)
    are drawn from the stream default_rng(seed) too.
    """
    _check_draw(degree, construction)
    entropy = np.array([_entropy_words(seed)], dtype=np.uint32)
    kinds = np.array([CONSTRUCTIONS.index(construction)])
    width = 2 if construction == "rotation" else degree + 1
    return ComplexSeries(_omega_rows(_first_draws(entropy), kinds, degree, width)[0])


def member_from_schwarz(omega, p: ClassParams, order: int) -> ComplexSeries:
    """The unique normalized class member generated by a Schwarz polynomial.

    omega must have zero constant term; it is treated as an exact
    polynomial and zero-padded as needed.  order < 2 is refused.
    """
    check_order(order)
    return ComplexSeries(_member_rows(srs.fit_row(omega, order), p)[0])


def _weights(width: int, lam: float) -> np.ndarray:
    """Weights 1 + lambda*max(k-1, 0) of the coefficients a_0..a_{width-1}."""
    return 1.0 + lam * np.maximum(np.arange(width) - 1, 0)


def _member_rows(omegas: np.ndarray, p: ClassParams) -> np.ndarray:
    """Members a_0..a_N generated by each row of Schwarz coefficients c_0..c_{N-1}.

    Row for row this is Q = 1 + base*omega/(1 + B*omega), then the solve
    of z*F' = F*Q, then the weights divided out; the recurrences step over
    k with all rows at once.  A coefficient that leaves the double range
    raises FloatingPointError naming |gamma*(A-B)|, which sets its growth.
    """
    one = np.zeros(omegas.shape[1], dtype=np.complex128)
    one[0] = 1.0
    base = p.product_base()
    try:
        with np.errstate(over="raise", invalid="raise"):
            num = srs._row_div(omegas * complex(base), one + omegas * complex(p.b))
            big_f = srs._row_log_derivative(one + num)
            return big_f / _weights(big_f.shape[1], p.lam)
    except FloatingPointError:
        raise FloatingPointError("overflow: member coefficients leave the double range, "
                                 f"|gamma*(A-B)| = {math.hypot(base.real, base.imag):g}"
                                 ) from None


def schwarz_from_member(f: ComplexSeries, p: ClassParams) -> ComplexSeries:
    """Recover the Schwarz series that generates a given member.

    P = 1 + (1/gamma)*(zF'/F - 1) is subordinate to (1+A*w)/(1+B*w), so
    with u = F/z and v = z*u'/(gamma*(A-B)), omega = (P-1)/(A - B*P) is
    v/(u - B*v): one division, whose pivot u_0 - B*v_0 is 1 for every
    normalized member.  v divides by gamma, then by the real A - B, since
    numpy inverts a complex divisor; a reciprocal past the double range
    raises FloatingPointError.  The recovered series has order f.order - 1.
    """
    srs.require_normalized(f)
    u = (f._c * _weights(f._c.size, p.lam))[None, 1:]  # F/z, a unit series
    try:
        with np.errstate(over="raise", invalid="raise"):
            v = u * np.arange(u.shape[1]) / complex(p.gamma) / (p.a - p.b)
    except FloatingPointError:
        raise FloatingPointError("overflow: the Moebius inversion leaves the double range, "
                                 f"|gamma| = {abs(p.gamma):g}, A-B = {p.a - p.b:g}") from None
    return ComplexSeries(srs._row_div(v, u - v * p.b)[0])


def is_member(f: ComplexSeries, p: ClassParams) -> MembershipReport:
    """Grid membership test: recover omega = v/(u - B*v), a division with
    pivot 1 that no member refuses, and check |omega| < 1.  The margin is
    1 - max|omega| over the fixed grid of MEMBERSHIP_ANGLES points on
    |z| = MEMBERSHIP_RADIUS (0.99, 2048); boundary-touching extremal
    members sit at margin -> 0+, so a margin above -MEMBERSHIP_TOLERANCE
    (-1e-6) still counts as membership.
    """
    omega = schwarz_from_member(f, p)
    vals = omega.eval_on_circle(MEMBERSHIP_RADIUS, MEMBERSHIP_ANGLES)
    margin = 1.0 - float(np.max(np.abs(vals)))
    return MembershipReport(margin > -MEMBERSHIP_TOLERANCE, margin)


def quadratic_sum_slack(f: ComplexSeries, p: ClassParams, n: int) -> float:
    """Normalized slack of the quadratic coefficient inequality at index n.

    Every member satisfies

      (n-1)^2 (1+lambda*(n-1))^2 |a_n|^2
        <= |gamma|^2 (A-B)^2
           + sum_{k=2}^{n-1} (|gamma*(A-B) - B*(k-1)|^2 - (k-1)^2)
                             * (1+lambda*(k-1))^2 |a_k|^2.

    Returns (rhs - lhs) / max(1, lhs, rhs); both sides grow like n^2 * n^2
    at the extremal members, so the slack is scaled before comparing it
    against a fixed tolerance.  Nonnegative up to rounding for members.
    It is one entry of _quadratic_slacks, which squares the weights and
    moduli as products x*x.
    """
    check_index(n)
    if n > f.order:
        raise ParameterDomainError(f"index n must be <= {f.order}, got {n}")
    return float(_quadratic_slacks(_moduli(f._c[None, 2 : n + 1]), p)[0, -1])


def _moduli(z: np.ndarray) -> np.ndarray:
    """|z| elementwise, rounded as Python's abs(complex) rounds (np.abs is not)."""
    return np.hypot(z.real, z.imag)


def _quadratic_slacks(moduli: np.ndarray, p: ClassParams) -> np.ndarray:
    """quadratic_sum_slack at n = 2..m+1 for rows of moduli |a_2|..|a_{m+1}|.

    The right-hand side is a running sum over n.  The per-index factors
    are doubles, and the squares of the weights and moduli are products
    x*x, correctly rounded, so each entry rounds as the scalar formula in
    quadratic_sum_slack's docstring does when evaluated left to right
    with those squares as products.
    """
    rows, m = moduli.shape
    base = p.product_base()
    weights = _weights(m + 2, p.lam)[2:]
    lhs = np.arange(1, m + 1) * weights * moduli
    lhs *= lhs
    margins = np.array([abs(base - p.b * (k - 1)) ** 2 - (k - 1) ** 2 for k in range(2, m + 2)])
    terms = margins * (weights * weights * (moduli * moduli))
    rhs = np.empty((rows, m))
    rhs[:, 0] = abs(base) ** 2
    rhs[:, 1:] = terms[:, :-1]
    np.cumsum(rhs, axis=1, out=rhs)
    return (rhs - lhs) / np.maximum(np.maximum(1.0, lhs), np.abs(rhs))


class QuadraticCheck(NamedTuple):
    checked_to: int
    violations: int
    min_slack: float


class FuzzReport(NamedTuple):
    params: ClassParams
    seed: int
    samples: int
    degree: int
    n_max: int
    constructions: dict
    per_n: Table
    quadratic_inequality: QuadraticCheck
    total_violations: int


def fuzz_bounds(
    p: ClassParams, n_max: int, samples: int, seed: int, degree: int = 4
) -> FuzzReport:
    """Stress-test the bound formulas with random Schwarz samples.

    For each sample, builds the member, records |a_n| for 2 <= n <= n_max
    against the bound (violation when |a_n| > bound*(1+VIOLATION_RTOL)),
    and checks the quadratic coefficient inequality for n up to 10.
    Sample i draws from the streams (seed, i) and (seed, i, 1) only, and
    all samples are then built and checked together as rows of one array.
    The per-index statistics are columns, and per_n is their one Table,
    a row per index n = 2..n_max.
    """
    check_index(n_max, "n_max")
    check_samples(samples)
    # omega's coefficients c_0..c_{n_max-1} fix the member through a_{n_max};
    # the sampler refuses a negative seed and degree < 1
    constructions, omegas = schwarz_rows(seed, range(samples), degree, n_max)

    sweep = reduction_columns(Reduction(p), 2, n_max)
    check_to = min(n_max, QUADRATIC_CHECK_LIMIT)

    moduli = _moduli(_member_rows(omegas, p)[:, 2:])
    violations = np.count_nonzero(moduli > sweep.value * (1.0 + VIOLATION_RTOL), axis=0)
    max_observed = moduli.max(axis=0)
    # the first sample at the column maximum and [seed, it]; null when every |a_n| is 0
    argmax = np.where(max_observed > 0.0, moduli.argmax(axis=0), -1).tolist()
    min_slacks = _quadratic_slacks(moduli[:, : check_to - 1], p).min(axis=1)
    per_n = Table((
        Column("n", int, sweep.n), Column("bound", float, sweep.value),
        Column("case", str, sweep.case_tag), Column("max_observed", float, max_observed),
        Column("argmax_index", int, [None if i < 0 else i for i in argmax]),
        Column("argmax_seed", JSON, ["null" if i < 0 else f"[{seed},{i}]" for i in argmax]),
        Column("violations", int, violations.tolist()),
    ))
    quadratic = QuadraticCheck(check_to, int(np.count_nonzero(min_slacks < -VIOLATION_RTOL)),
                               float(min_slacks.min()))
    return FuzzReport(p, seed, samples, degree, n_max,
                      {name: constructions.count(name) for name in CONSTRUCTIONS}, per_n,
                      quadratic, total_violations=int(violations.sum()))

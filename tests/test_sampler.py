"""The batched Schwarz sampler against one np.random.default_rng per stream.

The sampler seeds the streams (seed, i) and (seed, i, 1) of every sample
in one vectorized SeedSequence pass and computes each PCG64 state and
first double itself, on (hi, lo) uint64 limbs.  Everything it draws must
equal, bit for bit, what a Generator built per stream draws: the first
double, the state after it, the normals, the construction pick and the
finished rows.  The limb step is pinned against Python ints, and the
SeedSequence padding that lets one pass serve both streams against numpy.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from schlicht import ClassParams, fuzz_bounds, sample_schwarz
from schlicht.errors import ParameterDomainError
from schlicht.jack import spiral_check
from schlicht.subordination import (
    _first_draws,
    _normal_rows,
    _normalized_rows,
    _pcg_step,
    _seed_words,
    _stream_entropy,
    schwarz_rows,
)

from conftest import reference_draw, reference_pick

# seeds of one, two and three 32-bit words, at the word boundaries; up to
# 2**64 - 1 one pass seeds both streams, from 2**64 + 1 on two passes do
SEEDS = [0, 1, 2**31 - 1, 2**32, 2**32 + 5, 2**64 - 1, 2**64 + 1, 2**70 + 3]
DEGREES = [1, 2, 4, 9, 17, 130]
SAMPLES = 300


# PCG64's 128-bit LCG multiplier (O'Neill 2014), as numpy seeds and steps it
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK64 = 2**64 - 1


def same_bits(actual, expected) -> bool:
    actual, expected = np.asarray(actual), np.asarray(expected)
    return actual.shape == expected.shape and actual.tobytes() == expected.tobytes()


def from_limbs(limbs) -> int:
    return int(limbs[0]) << 64 | int(limbs[1])


def to_limbs(values) -> tuple:
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & MASK64 for v in values], dtype=np.uint64))


EDGE_STATES = [0, 1, MASK64, 2**63, 2**64, 2**128 - 1]
u128 = st.one_of(st.sampled_from(EDGE_STATES), st.integers(0, 2**128 - 1))


@given(st.lists(st.tuples(u128, u128), min_size=1, max_size=8))
# every pairing of the edge states; (1, 2**64 - 1) carries the sum of the
# low limbs into the high limb
@example([(state, inc) for state in EDGE_STATES for inc in EDGE_STATES])
def test_pcg_step_matches_python_ints(pairs):
    # pairs[0] alone is a 1-row array, where a scalar overflow would warn
    for rows in (pairs[:1], pairs):
        states, incs = [s for s, _ in rows], [i for _, i in rows]
        hi, lo = _pcg_step(*to_limbs(states), *to_limbs(incs))
        assert hi.dtype == lo.dtype == np.uint64 and hi.shape == (len(rows),)
        for j, (state, inc) in enumerate(rows):
            assert from_limbs((hi[j], lo[j])) == (state * PCG_MULT + inc) % 2**128


@pytest.mark.parametrize("length", range(1, 10))
def test_seed_words_match_seed_sequence(length):
    # below the pool size, at it and past it, where each extra word is mixed
    # into the whole pool; the rows include the all-zero and all-ones words
    words = np.random.default_rng(length).integers(0, 2**32, (6, length), dtype=np.uint32)
    words[0], words[1] = 0, 2**32 - 1
    state = _seed_words(words)
    for row, expected in zip(words.tolist(), state):
        assert same_bits(expected, np.random.SeedSequence(row).generate_state(4, np.uint64))


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 - 1])
def test_short_entropy_hashes_as_a_trailing_zero(seed):
    # up to 4 words the pool is zero-padded, so (seed, i) and (seed, i, 0)
    # are one stream; the sampler seeds both its streams in one pass on this
    for i in (0, 1, 2**32 - 1):
        assert (np.random.default_rng((seed, i)).bit_generator.state
                == np.random.default_rng((seed, i, 0)).bit_generator.state)


@pytest.mark.parametrize("seed", [2**64, 2**64 + 1, 2**70 + 3])
def test_longer_entropy_does_not(seed):
    for i in (0, 1):
        assert (np.random.default_rng((seed, i)).bit_generator.state
                != np.random.default_rng((seed, i, 0)).bit_generator.state)


@pytest.mark.parametrize("seed", SEEDS)
def test_first_draw_and_state_match_numpy(seed):
    for suffix in ((), (1,)):
        u, limbs = _first_draws(_stream_entropy(seed, range(SAMPLES), *suffix))
        for i in range(SAMPLES):
            rng = np.random.default_rng((seed, i, *suffix))
            first = rng.random()
            assert same_bits(u[i], first)
            assert rng.bit_generator.state["state"] == {"state": from_limbs(limbs[i, :2]),
                                                        "inc": from_limbs(limbs[i, 2:])}
            # rho and theta of the draw stream
            assert 1.0 - u[i] == 1.0 - first
            theta = np.random.default_rng((seed, i, *suffix)).uniform(0.0, 2.0 * np.pi)
            assert same_bits(0.0 + 2.0 * np.pi * u[i], theta)


@pytest.mark.parametrize("seed", SEEDS)
def test_rows_match_per_sample_generators(seed):
    names, _ = schwarz_rows(seed, range(SAMPLES), 1, 2)
    assert names == [reference_pick(seed, i) for i in range(SAMPLES)]
    limbs = _first_draws(_stream_entropy(seed, range(SAMPLES)))[1]
    for degree in DEGREES:
        normals = _normal_rows(limbs, 2 * degree)
        for i in range(SAMPLES):
            rng = np.random.default_rng((seed, i))
            rng.random()
            expected = [rng.standard_normal(degree), rng.standard_normal(degree)]
            assert same_bits(normals[i], np.concatenate(expected))
        for width in (10, degree + 1):
            rows_names, rows = schwarz_rows(seed, range(SAMPLES), degree, width)
            assert rows_names == names
            for i, name in enumerate(names):
                expected = np.zeros(width, dtype=np.complex128)
                draw = reference_draw((seed, i), degree, name)[:width]
                expected[: draw.size] = draw
                assert same_bits(rows[i], expected), (degree, width, i, name)


@pytest.mark.parametrize("construction", ["polynomial_normalized", "rotation", "monomial"])
def test_fixed_construction_and_one_row_draws(construction):
    for degree in (1, 4, 17):
        _, rows = schwarz_rows(2**40 + 7, range(50), degree, degree + 1, construction)
        for i in range(50):
            expected = reference_draw((2**40 + 7, i), degree, construction)
            assert same_bits(rows[i, : expected.size], expected)
            one = sample_schwarz((2**40 + 7, i), degree, construction)
            assert same_bits(one.coeffs, expected)
    # a bare int seed and a nested tuple are streams of their own
    for seed in (0, 42, 2**33, ((3, 4), 5), ()):
        assert same_bits(sample_schwarz(seed, 5, construction).coeffs,
                         reference_draw(seed, 5, construction))


def test_zero_normals_fall_back_to_constant_rows():
    degree = 3
    normals = np.zeros((3, 2 * degree))
    normals[1] = np.arange(1.0, 2 * degree + 1)
    rho = np.array([0.5, 0.25, 1.0])
    rows = _normalized_rows(normals, rho)
    for row, x, r in zip(rows, normals, rho):
        c = x[:degree] + 1j * x[degree:]
        total = float(np.sum(np.abs(c)))
        if total == 0.0:
            c, total = np.ones(degree, dtype=np.complex128), float(degree)
        assert same_bits(row, c * (r / total))
    assert np.all(rows[0] == 0.5 / degree) and np.all(rows[2] == 1.0 / degree)


def test_degree_below_one_is_refused():
    p = ClassParams(1, 0, 1, -1)
    for degree in (0, -3):
        with pytest.raises(ParameterDomainError, match="degree must be >= 1"):
            schwarz_rows(1, range(3), degree, 5)
        with pytest.raises(ParameterDomainError, match="degree must be >= 1"):
            schwarz_rows(1, range(3), degree, 5, "rotation")
        with pytest.raises(ParameterDomainError, match="degree must be >= 1"):
            sample_schwarz(1, degree, "monomial")
        with pytest.raises(ParameterDomainError, match="degree must be >= 1"):
            fuzz_bounds(p, 5, 3, 1, degree=degree)
        with pytest.raises(ParameterDomainError, match="degree must be >= 1"):
            spiral_check(0.3, 1, 3, degree, 16, 0.95, 64)


def test_negative_seed_is_refused():
    with pytest.raises(ParameterDomainError):
        sample_schwarz(-1, 3)
    with pytest.raises(ParameterDomainError):
        schwarz_rows(-5, range(2), 3, 4)

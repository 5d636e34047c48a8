from hypothesis import given, settings
from hypothesis import strategies as st

from patientflow.seeding import blocks, cumulative, draw_cumulative, stream


def draw_index(probs, rng):
    """The reference inverse-CDF draw: sum ``probs`` in order and return the
    first index whose running sum exceeds one ``rng.random()``; a uniform at
    or above the total (rounding can leave it short of 1) takes the last
    index."""
    u = rng.random()
    acc = 0.0
    for j, p in enumerate(probs):
        acc += p
        if u < acc:
            return j
    return len(probs) - 1

# rows of non-negative weights with zeros among them, some summing to 1,
# some short of it (the fall-through to the last index) and some over it
weights = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=8)


@st.composite
def rows(draw):
    row = draw(weights)
    total = sum(row)
    scale = draw(st.sampled_from([None, 1.0, 0.999, 0.5]))
    if scale is None or total == 0.0:
        return row
    return [w * scale / total for w in row]


@settings(max_examples=300, deadline=None)
@given(rows(), st.integers(0, 2**32 - 1), st.integers(1, 20), st.booleans())
def test_cumulative_draw_matches_draw_index(row, seed, draws, tie):
    if tie:  # the first uniform equals a running sum, and a zero weight follows
        row = [stream(seed).random(), 0.0, *row]
    cum = cumulative(row)
    rng_a, rng_b = stream(seed), stream(seed)
    for _ in range(draws):
        assert draw_cumulative(cum, rng_a) == draw_index(row, rng_b)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_cumulative_draw_skips_zero_weights_and_falls_through():
    rng = stream(3)
    u = stream(3).random()
    assert draw_cumulative(cumulative([0.0, 0.5, 0.0, 0.5]), rng) == (1 if u < 0.5 else 3)
    assert draw_cumulative(cumulative([0.0, 0.0]), stream(3)) == 1


# block forms of the engine's scalar draws: (block fill, scalar draw)
BLOCK_DRAWS = {
    "random": (lambda rng: rng.random, lambda rng: rng.random()),
    "integers": (lambda rng: lambda n: rng.integers(13, size=n),
                 lambda rng: int(rng.integers(13))),
    "exponential": (lambda rng: rng.standard_exponential,
                    lambda rng: rng.exponential(1.0 / 0.7)),
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(BLOCK_DRAWS)), st.integers(0, 2**32 - 1), st.integers(0, 40))
def test_blocks_yield_the_scalar_draws(kind, seed, draws):
    """Across block boundaries (blocks of 7), a block source yields what
    one scalar call per draw gives; exponentials are scaled as numpy
    scales them."""
    fill, scalar = BLOCK_DRAWS[kind]
    source = blocks(fill(stream(seed)), 7)
    rng = stream(seed)
    for _ in range(draws):
        value = next(source)
        if kind == "exponential":
            value = (1.0 / 0.7) * value
        expected = scalar(rng)
        assert value == expected and type(value) is type(expected)

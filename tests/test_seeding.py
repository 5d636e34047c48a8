import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from patientflow.seeding import blocks, cumulative, draw_cumulative, sq_distances, stream


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


# the squared-distance forms that sq_distances replaced: one pair at a time
# (assign_all), one centroid at a time (kmeanspp) and every pair of points
# as one (n, n, d) array (the first, since removed, silhouette score)
def per_pair(X, C):
    return np.array([[float(((v - a) ** 2).sum()) for a in C] for v in X])


def per_centroid(X, C):
    return np.column_stack([np.sum((X - c) ** 2, axis=1) for c in C])


def all_pairs(X):
    return np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=2)


@st.composite
def point_sets(draw):
    """(X, C): 1-12 points and 1-5 centroids, at widths on both sides of
    numpy's pairwise-sum blocks (8 and 128) and scales from 1e-8 to 1e6.
    Some centroids repeat an earlier one and some points sit on a
    centroid, so that distances tie."""
    d = draw(st.one_of(st.sampled_from([1, 7, 8, 9, 127, 128, 129]), st.integers(1, 300)))
    n, k = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    scale = 10.0 ** draw(st.integers(-8, 6))
    rng = stream(draw(st.integers(0, 2**32 - 1)))
    X, C = rng.standard_normal((n, d)) * scale, rng.standard_normal((k, d)) * scale
    for j in range(1, k):
        if draw(st.booleans()):
            C[j] = C[draw(st.integers(0, j - 1))]
    for i in range(n):
        if draw(st.booleans()):
            X[i] = C[draw(st.integers(0, k - 1))]
    return X, C


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_sq_distances_keeps_the_bits_of_the_forms_it_replaced(points):
    X, C = points
    d2, pairs = sq_distances(X, C), per_pair(X, C)
    assert d2.tobytes() == pairs.tobytes()
    assert d2.tobytes() == per_centroid(X, C).tobytes()
    # argmin takes the lowest index on ties, as the first minimum of a row
    assert np.argmin(d2, axis=1).tolist() == [row.index(min(row)) for row in pairs.tolist()]
    square = all_pairs(X)
    assert sq_distances(X, X).tobytes() == square.tobytes()
    for i in range(len(X)):
        assert sq_distances(X[i:i + 1], X)[0].tobytes() == square[i].tobytes()

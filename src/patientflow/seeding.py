"""Deterministic random streams.

Every stochastic routine in the package draws from a numpy ``Generator``
backed by PCG64, keyed by ``(seed, *purpose)`` through ``SeedSequence``
spawn keys. The same key yields the same stream on every platform, and
distinct keys are statistically independent, so replications and
sub-models can be sampled in any order (or in parallel) without changing
results. The draws that more than one module takes from a stream live
here too: inverse-CDF index draws, block sources and k-means++ seeding,
with ``sq_distances``, the one squared-distance kernel of the package.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, chain
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from .errors import ConfigError


def stream(seed: int, *key: int) -> Generator:
    """Return the PCG64 generator for a (seed, purpose-key) pair."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return Generator(PCG64(SeedSequence(entropy=seed, spawn_key=key)))


def cumulative(probs: Iterable[float]) -> list[float]:
    """Running sums of ``probs``, added in order, for ``draw_cumulative``."""
    return list(accumulate(probs))


def draw_cumulative(cum: Sequence[float], rng: Generator) -> int:
    """Inverse-CDF draw of an index from one ``rng.random()`` over the
    running sums ``cum`` of non-negative probabilities.

    The index is the first whose running sum exceeds the uniform, found
    by bisection because the sums never decrease; a uniform at or above
    the total (rounding can leave it short of 1) takes the last index.
    """
    j = bisect_right(cum, rng.random())
    return j if j < len(cum) else len(cum) - 1


BLOCK = 1024  # draws per block of a block source


def blocks(fill: Callable[[int], np.ndarray], size: int = BLOCK) -> Iterator:
    """An endless iterator over the Python numbers of ``fill(size)``,
    ``fill(size)``, ...: one generator call per block instead of one per
    draw.

    ``fill`` is a block form of a scalar draw, such as ``rng.random`` or
    ``rng.standard_normal``. A PCG64 generator gives the same numbers in
    blocks as in scalar calls, so the iterator yields what successive
    scalar draws would. What is left of the last block when the caller
    stops is discarded, which leaves the generator further on than the
    scalar calls would: a block source must be the only user of its
    generator.
    """
    return chain.from_iterable(iter(lambda: fill(size).tolist(), None))


def sq_distances(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances (n x k) of the rows of ``X`` (n x d) to
    the rows of ``C`` (k x d). Each sums one contiguous row of d squared
    differences, so it has the same bits as a loop over single rows."""
    return np.sum((X[:, None, :] - C[None, :, :]) ** 2, axis=2)


class Distinct(NamedTuple):
    """Points by coordinates as their distinct rows: point i is
    ``rows[inverse[i]]``."""

    rows: np.ndarray
    inverse: np.ndarray

    def sq_distances(self, C: np.ndarray) -> np.ndarray:
        """``sq_distances`` of every point to ``C``, computed once per
        distinct row and gathered: the same bits, since each distance
        depends only on its row's bytes."""
        return sq_distances(self.rows, C)[self.inverse]


def distinct_rows(X: np.ndarray) -> Distinct:
    """The rows of ``X`` (n x d), distinct by their bytes.

    A 1-D ``np.unique`` over one void item per row finds them; the
    row-wise ``np.unique(axis=0)`` takes over ten times as long.
    """
    X = np.ascontiguousarray(X)
    items = X.view(np.dtype((np.void, X.dtype.itemsize * X.shape[1])))[:, 0]
    _, first, inverse = np.unique(items, return_index=True, return_inverse=True)
    return Distinct(X[first], inverse.reshape(-1))


def kmeanspp(points: Distinct, k: int, rng: Generator) -> np.ndarray:
    """k-means++ seeding: k of the points (``distinct_rows`` of a points
    by coordinates array) as the starting centroids, one per row of the
    result.

    The first is a uniformly drawn point. Each next one is drawn with
    probability proportional to its squared distance from the nearest
    centroid so far, by one ``rng.random()`` against the running sums of
    those distances; when every point sits on a centroid, it is drawn
    uniformly again.
    """
    rows, inverse = points
    n = len(inverse)
    centroids = np.empty((k, rows.shape[1]))
    centroids[0] = rows[inverse[rng.integers(n)]]
    d2 = points.sq_distances(centroids[:1])[:, 0]
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            centroids[j] = rows[inverse[rng.integers(n)]]
        else:
            u = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), u))
            centroids[j] = rows[inverse[min(idx, n - 1)]]
        d2 = np.minimum(d2, points.sq_distances(centroids[j:j + 1])[:, 0])
    return centroids

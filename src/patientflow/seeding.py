"""Deterministic random streams.

Every stochastic routine in the package draws from a numpy ``Generator``
backed by PCG64, keyed by ``(seed, *purpose)`` through ``SeedSequence``
spawn keys. The same key yields the same stream on every platform, and
distinct keys are statistically independent, so replications and
sub-models can be sampled in any order (or in parallel) without changing
results.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Collection, Iterable, Sequence

from numpy.random import PCG64, Generator, SeedSequence

from .errors import ConfigError


def stream(seed: int, *key: int) -> Generator:
    """Return the PCG64 generator for a (seed, purpose-key) pair."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return Generator(PCG64(SeedSequence(entropy=seed, spawn_key=key)))


def draw_index(probs: Collection[float], rng: Generator) -> int:
    """Inverse-CDF draw of an index into ``probs`` from one ``rng.random()``.

    Probabilities are summed in order; a uniform at or above the summed
    total (rounding can leave it short of 1) takes the last index.
    """
    u = rng.random()
    acc = 0.0
    for j, p in enumerate(probs):
        acc += p
        if u < acc:
            return j
    return len(probs) - 1


def cumulative(probs: Iterable[float]) -> list[float]:
    """Running sums of ``probs``, added in order exactly as ``draw_index``
    adds them."""
    return list(accumulate(probs))


def draw_cumulative(cum: Sequence[float], rng: Generator) -> int:
    """``draw_index`` over precomputed running sums.

    For non-negative probabilities the running sums never decrease, so
    the first sum above the uniform is found by bisection: the same index
    from the same one ``rng.random()``, with the same fall-through to the
    last index.
    """
    j = bisect_right(cum, rng.random())
    return j if j < len(cum) else len(cum) - 1

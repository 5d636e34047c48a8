"""Clinical pathway models mined from event logs.

The baseline is a single first-order transition matrix over departments
plus the virtual ENTRY and DISCHARGE states. The alternative clusters
whole trajectories (bag-of-transitions encoding, Lloyd's k-means with
k-means++ seeding) and fits one matrix per cluster; at simulation time a
new patient is assigned to the cluster whose member attribute centroid
is nearest, since the trajectory itself is unknown at admission.

Pathways are first-order Markov by design; higher-order memory and
sequence-edit-distance medoids are possible extensions, not implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Sequence, Union

import numpy as np
from numpy.random import Generator

from . import codec
from .domain import ENTRY, Profiles, Trajectories
from .errors import ConfigError, DataError
from .seeding import Distinct, cumulative, distinct_rows, kmeanspp, sq_distances, stream

MIN_CLUSTER_MEMBERS = 20  # smaller clusters route with the global matrix
ATTR_SEPARATION_MIN = 0.5  # standardized units; closer centroids cannot be told apart
KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-9
SWEEP_K = (1, 2, 3, 4, 5)  # the cluster counts sweep_k tries


@codec.tagged("transition_matrix")
@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic transitions; rows ENTRY + departments, columns
    departments + DISCHARGE. DISCHARGE is absorbing by construction and
    nothing transitions into ENTRY."""

    departments: tuple[str, ...]
    probs: tuple[tuple[float, ...], ...]
    counts: tuple[tuple[int, ...], ...]
    row_observed: tuple[bool, ...]

    def __post_init__(self):
        rows, cols = 1 + len(self.departments), len(self.departments) + 1
        for name in ("probs", "counts"):
            table = getattr(self, name)
            if len(table) != rows or any(len(row) != cols for row in table):
                raise ConfigError(f"transition matrix {name} must have {rows} rows "
                                  f"of {cols} entries")
        if len(self.row_observed) != rows:
            raise ConfigError(f"transition matrix row_observed must have {rows} entries")
        if any(p < 0.0 for row in self.probs for p in row):
            raise ConfigError("transition matrix probs must be non-negative")
        for state, row, seen in zip((ENTRY, *self.departments), self.probs, self.row_observed):
            if seen and abs(sum(row) - 1.0) > 1e-9:
                raise ConfigError(f"transition matrix row {state!r} sums to {sum(row)!r}, "
                                  "not 1")


def _moves(trajectories: Trajectories,
           departments: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Each move's cell in the flattened (ENTRY + departments) x (departments
    + DISCHARGE) count matrix, and the index of its trajectory.

    ENTRY -> first department and last department -> DISCHARGE count as
    pseudo-moves, so a trajectory of s stays has s + 1 moves.
    """
    stays = trajectories.stays
    idx = {d: i for i, d in enumerate(departments)}
    n, m = len(departments), len(trajectories)
    codes = np.array([idx.get(d, -1) for d in stays.departments],
                     dtype=np.int64)[stays.department]
    if np.any(codes < 0):
        unknown = stays.departments[stays.department[np.argmax(codes < 0)]]
        raise DataError(f"department {unknown!r} not in alphabet")
    lengths = np.diff(trajectories.offset)
    ends = trajectories.offset[1:]
    rows = np.empty_like(codes)  # the state each stay is entered from
    rows[1:] = 1 + codes[:-1]
    rows[ends - lengths] = 0     # a first stay is entered from ENTRY
    cells = np.concatenate([rows * (n + 1) + codes, (1 + codes[ends - 1]) * (n + 1) + n])
    return cells, np.concatenate([np.repeat(np.arange(m), lengths), np.arange(m)])


def transition_counts(trajectories: Trajectories, departments: tuple[str, ...]) -> Distinct:
    """Each trajectory's flattened move-count matrix (``_moves``), as the
    distinct rows of these counts in their smallest exact dtype."""
    cells, owner = _moves(trajectories, departments)
    # s stays make s + 1 moves, and no cell of a trajectory's row counts more
    most = np.diff(trajectories.offset).max(initial=0) + 1
    counts = np.zeros((len(trajectories), (len(departments) + 1) ** 2),
                      dtype=np.min_scalar_type(most))
    np.add.at(counts, (owner, cells), 1)
    return distinct_rows(counts)


def _summed(counts: Distinct, members: np.ndarray | None = None) -> np.ndarray:
    """The exact integer sum of the count rows of the ``members`` mask's
    trajectories (of all of them by default)."""
    inverse = counts.inverse if members is None else counts.inverse[members]
    return np.bincount(inverse, minlength=len(counts.rows)) @ counts.rows.astype(np.int64)


def _matrix(counts: np.ndarray, departments: tuple[str, ...]) -> TransitionMatrix:
    """Row-normalise a flattened (n + 1) x (n + 1) count matrix; rows with
    no observations are flagged rather than invented."""
    counts = counts.reshape(len(departments) + 1, -1)
    row_sums = counts.sum(axis=1)
    probs = np.zeros_like(counts, dtype=float)
    observed = row_sums > 0
    probs[observed] = counts[observed] / row_sums[observed, None]
    return TransitionMatrix(
        departments=departments,
        probs=tuple(tuple(float(p) for p in row) for row in probs),
        counts=tuple(tuple(int(c) for c in row) for row in counts),
        row_observed=tuple(bool(o) for o in observed),
    )


def fit_transition_matrix(
    trajectories: Trajectories,
    departments: Sequence[str] | None = None,
) -> TransitionMatrix:
    """Estimate transition probabilities by row-normalized counts.

    ENTRY -> first department and last department -> DISCHARGE are
    counted as pseudo-transitions. Rows with no observations are flagged
    rather than invented.
    """
    if not len(trajectories):
        raise DataError("need at least one trajectory")
    departments = _alphabet(trajectories, departments)
    cells, _ = _moves(trajectories, departments)
    return _matrix(np.bincount(cells, minlength=(len(departments) + 1) ** 2), departments)


# --- trajectory encoding ------------------------------------------------------

STAY_COUNT_SCALE = 10.0  # keeps the length feature comparable to the unit-mass block


def _alphabet(trajectories: Trajectories, departments: Sequence[str] | None) -> tuple[str, ...]:
    """The given departments, or by default those the stays visit, sorted."""
    return tuple(sorted(trajectories.stays.departments) if departments is None
                 else departments)


def encode_all(trajectories: Trajectories, departments: Sequence[str]) -> np.ndarray:
    """One bag-of-transitions vector plus a total-stay-count feature per
    trajectory.

    The transition block is the flattened (ENTRY + departments) x
    (departments + DISCHARGE) count matrix of the trajectory, normalized
    by its transition count (number of stays + 1, counting the ENTRY and
    DISCHARGE pseudo-moves), so the block always sums to 1. The stay
    count is scaled by ``STAY_COUNT_SCALE`` so route identity, not
    length, dominates clustering distances. Trajectories with
    proportional transition counts and equal length encode identically.
    """
    counts = transition_counts(trajectories, tuple(departments))
    return _encoding(counts.rows)[counts.inverse]


def _encoding(counts: np.ndarray) -> np.ndarray:
    """The encodings of flattened count matrices, one per row; a row's
    stay count is its move count - 1."""
    total = counts.sum(axis=1, dtype=np.int64)
    X = np.empty((len(counts), counts.shape[1] + 1))
    X[:, :-1] = counts / total[:, None]
    X[:, -1] = (total - 1) / STAY_COUNT_SCALE
    return X


# --- profile encoding for attribute centroids ----------------------------------

@dataclass(frozen=True)
class ProfileEncoder:
    """Standardized numeric embedding of profiles for nearest-centroid use."""

    means: tuple[float, ...]
    sds: tuple[float, ...]
    drg_levels: tuple[str, ...]

    def __post_init__(self):
        width = 3 + len(self.drg_levels)
        if not len(self.means) == len(self.sds) == width:
            raise ConfigError(f"profile encoder means and sds must have {width} entries, "
                              f"3 + one per DRG level")
        if any(sd <= 0.0 for sd in self.sds):
            raise ConfigError("profile encoder sds must be > 0")

    def encode_all(self, profiles: Profiles) -> np.ndarray:
        """One row per profile: (raw row - means) / sds."""
        return ((_raw_rows(profiles, self.drg_levels) - np.asarray(self.means))
                / np.asarray(self.sds))


def _raw_rows(profiles: Profiles, drg_levels: tuple[str, ...]) -> np.ndarray:
    """Per profile: age, comorbidity count, female indicator, then one-hot DRG."""
    is_level = profiles.drg[:, None] == np.array(drg_levels, dtype=object)
    return np.column_stack([profiles.age, profiles.comorbidity_count, profiles.gender == "F",
                            is_level]).astype(float)


def _build_profile_encoder(profiles: Profiles) -> ProfileEncoder:
    """The encoder standardized on ``profiles``."""
    levels = tuple(sorted(set(profiles.drg.tolist())))
    raw = _raw_rows(profiles, levels)
    means = raw.mean(axis=0)
    sds = raw.std(axis=0)
    sds[sds < 1e-12] = 1.0
    return ProfileEncoder(
        means=tuple(float(m) for m in means),
        sds=tuple(float(s) for s in sds),
        drg_levels=levels,
    )


# --- clustering -----------------------------------------------------------------

@dataclass(frozen=True)
class PathwayCluster:
    centroid: tuple[float, ...]
    matrix: TransitionMatrix
    member_count: int
    attribute_centroid: tuple[float, ...]
    use_fallback: bool


@codec.tagged("pathway_clusters")
@dataclass(frozen=True)
class PathwayClusters:
    k: int
    departments: tuple[str, ...]
    clusters: tuple[PathwayCluster, ...]
    fallback: TransitionMatrix
    profile_encoder: ProfileEncoder
    labels: tuple[int, ...]  # training assignment, aligned with the input order

    def __post_init__(self):
        if not self.k == len(self.clusters) >= 1:
            raise ConfigError(f"pathway clusters k must be >= 1 and equal the "
                              f"{len(self.clusters)} clusters, got {self.k}")
        for m in (self.fallback, *(c.matrix for c in self.clusters)):
            if m.departments != self.departments:
                raise ConfigError(f"pathway cluster matrices must be over the departments "
                                  f"{list(self.departments)}, got {list(m.departments)}")
        width = len(self.profile_encoder.means)
        if any(len(c.attribute_centroid) != width for c in self.clusters):
            raise ConfigError(f"pathway cluster attribute_centroid must have the "
                              f"profile encoder's {width} entries")

    def routing_matrix(self, index: int) -> TransitionMatrix:
        c = self.clusters[index]
        return self.fallback if c.use_fallback else c.matrix


Pathway = Union[TransitionMatrix, PathwayClusters]  # a simulation's pathway model

KMEANS_RESTARTS = 10
MEAN_BLOCK = 2048  # the member rows a k-means mean gathers at a time


def _kmeans_once(points: Distinct, k: int, rng: Generator) -> tuple[np.ndarray, np.ndarray]:
    rows, inverse = points
    centroids = kmeanspp(points, k, rng)
    for _ in range(KMEANS_MAX_ITER):
        labels = _nearest(points, centroids)
        new_centroids = np.vstack([_mean(rows, inverse[labels == j]) for j in range(k)])
        shift = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        if shift < KMEANS_TOL:
            break
    return centroids, _nearest(points, centroids)


def _mean(rows: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``rows[index].mean(axis=0)`` with the same bits, gathering at most
    ``MEAN_BLOCK`` rows at a time. numpy sums a C-ordered (n, d) array
    over axis 0 row by row, in order, when d > 1 (an encoding has at least
    5 coordinates), so each block's sum continues the running sum of the
    blocks before it."""
    total = rows[index[:MEAN_BLOCK]].sum(axis=0)
    for start in range(MEAN_BLOCK, len(index), MEAN_BLOCK):
        total = np.vstack([total, rows[index[start:start + MEAN_BLOCK]]]).sum(axis=0)
    return total / len(index)


def _nearest(points: Distinct, centroids: np.ndarray) -> np.ndarray:
    """Label each point with its nearest centroid, then fill each empty
    cluster, in order, with the worst-fitting point of a cluster that
    keeps another member. With at least as many points as clusters, no
    cluster is left empty."""
    dists = sq_distances(points.rows, centroids)
    nearest = np.argmin(dists, axis=1)
    labels = nearest[points.inverse]
    assigned_d2 = dists[np.arange(len(dists)), nearest][points.inverse]
    sizes = np.bincount(labels, minlength=len(centroids))
    for j in np.flatnonzero(sizes == 0):
        worst = int(np.argmax(np.where(sizes[labels] > 1, assigned_d2, -np.inf)))
        sizes[labels[worst]] -= 1
        sizes[j] = 1
        labels[worst] = j
    return labels


def _inertia(points: Distinct, centroids: np.ndarray, labels: np.ndarray) -> float:
    """The exactly rounded sum of the points' squared distances to their
    centroids, which no order of the points changes. Each distinct
    (row, label) pair's distance is computed once and repeated as often as
    the pair occurs."""
    rows, inverse = points
    count = np.bincount(labels * len(rows) + inverse, minlength=len(centroids) * len(rows))
    d2 = sq_distances(rows, centroids).T.reshape(-1)
    return math.fsum(chain.from_iterable(map(repeat, d2.tolist(), count.tolist())))


def _kmeans(points: Distinct, k: int, rng: Generator) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm over points given as their distinct rows, best of
    KMEANS_RESTARTS seeded restarts by inertia. Distances are computed
    once per distinct row. Means add the points' rows in the order of the
    points; the inertia is exactly rounded, so it has no order."""
    best = None
    for _ in range(KMEANS_RESTARTS):
        centroids, labels = _kmeans_once(points, k, rng)
        inertia = _inertia(points, centroids, labels)
        if best is None or inertia < best[0]:
            best = (inertia, centroids, labels)
    return best[1], best[2]


def cluster(
    trajectories: Trajectories,
    k: int,
    seed: int,
    profiles: Profiles,
    departments: Sequence[str] | None = None,
) -> PathwayClusters:
    """Cluster trajectory encodings and fit one transition matrix each.

    Each cluster's attribute centroid, which ``assign_all`` routes by, is
    the mean encoded profile of its members (``profiles`` is aligned with
    ``trajectories``). Clusters below ``MIN_CLUSTER_MEMBERS`` members, or
    whose attribute centroid lies within ``ATTR_SEPARATION_MIN`` of
    another's, are flagged to route with the global fallback matrix.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    if len(trajectories) < k:
        raise DataError(f"{len(trajectories)} trajectories for k={k}")
    return _cluster(*_cluster_inputs(trajectories, profiles, departments), k, seed)


def _cluster_inputs(
    trajectories: Trajectories,
    profiles: Profiles,
    departments: Sequence[str] | None,
) -> tuple[tuple[str, ...], Distinct, ProfileEncoder, np.ndarray]:
    """What ``_cluster`` reads for any k: the alphabet, the transition
    counts, the profile encoder and the encoded profiles."""
    if len(profiles) != len(trajectories):
        raise ConfigError("profiles must align with trajectories")
    departments = _alphabet(trajectories, departments)
    encoder = _build_profile_encoder(profiles)
    return (departments, transition_counts(trajectories, departments), encoder,
            encoder.encode_all(profiles))


def _cluster(departments: tuple[str, ...], counts: Distinct, encoder: ProfileEncoder,
             encoded: np.ndarray, k: int, seed: int) -> PathwayClusters:
    centroids, labels = _kmeans(Distinct(_encoding(counts.rows), counts.inverse), k,
                                stream(seed))
    members = [labels == j for j in range(k)]  # none is empty
    sizes = [int(m.sum()) for m in members]
    attr = [encoded[m].mean(axis=0) for m in members]
    # a cluster's matrix is only usable at admission time if its members
    # are attribute-distinguishable; otherwise route with the global matrix
    clusters = tuple(
        PathwayCluster(
            centroid=tuple(float(v) for v in centroids[i]),
            matrix=_matrix(_summed(counts, m), departments),
            member_count=sizes[i],
            attribute_centroid=tuple(float(v) for v in attr[i]),
            use_fallback=sizes[i] < MIN_CLUSTER_MEMBERS or not all(
                np.linalg.norm(attr[i] - attr[j]) >= ATTR_SEPARATION_MIN
                for j in range(k) if j != i),
        )
        for i, m in enumerate(members)
    )
    return PathwayClusters(
        k=k,
        departments=departments,
        clusters=clusters,
        fallback=_matrix(_summed(counts), departments),
        profile_encoder=encoder,
        labels=tuple(int(v) for v in labels),
    )


def assign_all(profiles: Profiles, clusters: PathwayClusters) -> list[int]:
    """Each profile's cluster: the nearest attribute centroid in
    standardized profile space, the lowest index on ties."""
    return _nearest_attribute(clusters.profile_encoder.encode_all(profiles), clusters).tolist()


def _nearest_attribute(encoded: np.ndarray, clusters: PathwayClusters) -> np.ndarray:
    """The cluster of each encoded profile, as ``assign_all`` routes it."""
    centroids = np.array([c.attribute_centroid for c in clusters.clusters])
    return np.argmin(sq_distances(encoded, centroids), axis=1)


def cumulative_rows(matrix: TransitionMatrix) -> tuple[list[float] | None, ...]:
    """Each row's running sums for ``draw_cumulative`` (ENTRY first, then
    the departments), None where the row is unobserved."""
    return tuple(cumulative(row) if seen else None
                 for row, seen in zip(matrix.probs, matrix.row_observed))


# --- diagnostics ------------------------------------------------------------------

def row_average_tv(a: TransitionMatrix, b: TransitionMatrix) -> float:
    """Mean total-variation distance over rows observed in both matrices."""
    if a.departments != b.departments:
        raise ConfigError("matrices must share a department alphabet")
    tvs = []
    for i in range(len(a.probs)):
        if a.row_observed[i] and b.row_observed[i]:
            pa = np.asarray(a.probs[i])
            pb = np.asarray(b.probs[i])
            tvs.append(0.5 * float(np.sum(np.abs(pa - pb))))
    if not tvs:
        raise ConfigError("no commonly observed rows")
    return float(np.mean(tvs))


def routing_loglik(counts: Distinct, encoded: np.ndarray, clusters: PathwayClusters) -> float:
    """Mean log-likelihood per trajectory of its moves (``transition_counts``,
    aligned with ``encoded``, its profiles as ``clusters.profile_encoder``
    encodes them) under the matrix that ``assign_all`` routes its profile
    by, each matrix's counts smoothed by one per cell."""
    rows, inverse = counts
    assigned = _nearest_attribute(encoded, clusters)
    weight = np.bincount(assigned * len(rows) + inverse, minlength=clusters.k * len(rows))
    smoothed = np.array([clusters.routing_matrix(j).counts for j in range(clusters.k)],
                        dtype=float) + 1.0
    log_probs = np.log(smoothed / smoothed.sum(axis=2, keepdims=True)).reshape(clusters.k, -1)
    return float(weight @ (log_probs @ rows.T).reshape(-1) / len(inverse))


def sweep_k(
    trajectories: Trajectories,
    seed: int,
    profiles: Profiles,
    departments: Sequence[str] | None = None,
) -> PathwayClusters:
    """Fit every k in ``SWEEP_K`` and keep the best ``routing_loglik``.

    A new patient's trajectory is unknown at admission, so each k is
    scored by how well the matrices that ``assign_all`` routes by explain
    the training moves, not by how well the trajectories cluster. A later
    k must score more than 1e-12 higher, so ties go to the smaller k.
    """
    feasible = [k for k in SWEEP_K if k <= len(trajectories)]
    if not feasible:
        raise DataError("no feasible k in range")
    inputs = _cluster_inputs(trajectories, profiles, departments)  # the same for every k
    _, counts, _, encoded = inputs
    best = None
    for k in feasible:
        result = _cluster(*inputs, k, seed)
        score = routing_loglik(counts, encoded, result)
        if best is None or score > best[0] + 1e-12:
            best = (score, result)
    return best[1]

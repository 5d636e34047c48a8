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

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.random import Generator

from .domain import ENTRY, Profiles, Trajectories
from .errors import ConfigError, DataError
from .seeding import cumulative, kmeanspp, sq_distances, stream

MIN_CLUSTER_MEMBERS = 20  # smaller clusters route with the global matrix
ATTR_SEPARATION_MIN = 0.5  # standardized units; closer centroids cannot be told apart
KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-9
SWEEP_K = (1, 2, 3, 4, 5)  # the cluster counts sweep_k tries
SILHOUETTE_CAP = 2000     # sweep_k scores at most this many trajectories


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


def transition_counts(trajectories: Trajectories, departments: tuple[str, ...]) -> np.ndarray:
    """Each trajectory's moves as an (ENTRY + departments) x (departments +
    DISCHARGE) integer count matrix: shape (len(trajectories), n + 1, n + 1).

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
    owner = np.repeat(np.arange(m), lengths)
    cells = np.concatenate([(owner * (n + 1) + rows) * (n + 1) + codes,
                            (np.arange(m) * (n + 1) + 1 + codes[ends - 1]) * (n + 1) + n])
    return np.bincount(cells, minlength=m * (n + 1) ** 2).reshape(m, n + 1, n + 1)


def _matrix(counts: np.ndarray, departments: tuple[str, ...]) -> TransitionMatrix:
    """Row-normalise an (n + 1) x (n + 1) count matrix; rows with no
    observations are flagged rather than invented."""
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
    return _matrix(transition_counts(trajectories, departments).sum(axis=0), departments)


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
    return _encoding(transition_counts(trajectories, tuple(departments)), trajectories)


def _encoding(counts: np.ndarray, trajectories: Trajectories) -> np.ndarray:
    flat = counts.reshape(len(counts), -1)
    X = np.empty((len(flat), flat.shape[1] + 1))
    X[:, :-1] = flat / flat.sum(axis=1, keepdims=True)
    X[:, -1] = np.diff(trajectories.offset) / STAY_COUNT_SCALE
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

    @cached_property
    def _scale(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.means), np.asarray(self.sds)

    def encode_all(self, profiles: Profiles) -> np.ndarray:
        """One row per profile: (raw row - means) / sds."""
        means, sds = self._scale
        return (_raw_rows(profiles, self.drg_levels) - means) / sds


def _raw_rows(profiles: Profiles, drg_levels: tuple[str, ...]) -> np.ndarray:
    """Per profile: age, comorbidity count, female indicator, then one-hot DRG."""
    is_level = profiles.drg[:, None] == np.array(drg_levels, dtype=object)
    return np.column_stack([profiles.age, profiles.comorbidity_count, profiles.gender == "F",
                            is_level]).astype(float)


def _build_profile_encoder(profiles: Profiles) -> tuple[ProfileEncoder, np.ndarray]:
    """The encoder and the raw rows of ``profiles`` it was fitted on."""
    levels = tuple(sorted(set(profiles.drg.tolist())))
    raw = _raw_rows(profiles, levels)
    means = raw.mean(axis=0)
    sds = raw.std(axis=0)
    sds[sds < 1e-12] = 1.0
    encoder = ProfileEncoder(
        means=tuple(float(m) for m in means),
        sds=tuple(float(s) for s in sds),
        drg_levels=levels,
    )
    return encoder, raw


# --- clustering -----------------------------------------------------------------

@dataclass(frozen=True)
class PathwayCluster:
    centroid: tuple[float, ...]
    matrix: TransitionMatrix
    member_count: int
    attribute_centroid: tuple[float, ...] | None
    use_fallback: bool


@dataclass(frozen=True)
class PathwayClusters:
    k: int
    departments: tuple[str, ...]
    clusters: tuple[PathwayCluster, ...]
    fallback: TransitionMatrix
    profile_encoder: ProfileEncoder | None
    labels: tuple[int, ...]  # training assignment, aligned with the input order

    def __post_init__(self):
        if not self.k == len(self.clusters) >= 1:
            raise ConfigError(f"pathway clusters k must be >= 1 and equal the "
                              f"{len(self.clusters)} clusters, got {self.k}")
        for m in (self.fallback, *(c.matrix for c in self.clusters)):
            if m.departments != self.departments:
                raise ConfigError(f"pathway cluster matrices must be over the departments "
                                  f"{list(self.departments)}, got {list(m.departments)}")
        if self.profile_encoder is not None:
            width = len(self.profile_encoder.means)
            if any(c.attribute_centroid is not None and len(c.attribute_centroid) != width
                   for c in self.clusters):
                raise ConfigError(f"pathway cluster attribute_centroid must have the "
                                  f"profile encoder's {width} entries")

    def routing_matrix(self, index: int) -> TransitionMatrix:
        c = self.clusters[index]
        return self.fallback if c.use_fallback else c.matrix


KMEANS_RESTARTS = 10


def _kmeans_once(X: np.ndarray, k: int, rng: Generator) -> tuple[np.ndarray, np.ndarray]:
    centroids = kmeanspp(X, k, rng)
    for _ in range(KMEANS_MAX_ITER):
        labels = _nearest(X, centroids)
        new_centroids = np.vstack([X[labels == j].mean(axis=0) for j in range(k)])
        shift = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        if shift < KMEANS_TOL:
            break
    return centroids, _nearest(X, centroids)


def _nearest(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Label each point with its nearest centroid, then repair empty
    clusters by stealing the globally worst-fitting point."""
    dists = sq_distances(X, centroids)
    labels = np.argmin(dists, axis=1)
    assigned_d2 = dists[np.arange(len(X)), labels]
    for j in range(len(centroids)):
        if not np.any(labels == j):
            worst = int(np.argmax(assigned_d2))
            labels[worst] = j
            assigned_d2[worst] = -np.inf  # each repair takes a fresh point
    return labels


def _kmeans(X: np.ndarray, k: int, rng: Generator) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm, best of KMEANS_RESTARTS seeded restarts by inertia."""
    best = None
    for _ in range(KMEANS_RESTARTS):
        centroids, labels = _kmeans_once(X, k, rng)
        inertia = float(np.sum((X - centroids[labels]) ** 2))
        if best is None or inertia < best[0]:
            best = (inertia, centroids, labels)
    return best[1], best[2]


def cluster(
    trajectories: Trajectories,
    k: int,
    seed: int,
    profiles: Profiles | None = None,
    departments: Sequence[str] | None = None,
) -> PathwayClusters:
    """Cluster trajectory encodings and fit one transition matrix each.

    ``profiles`` (aligned with ``trajectories``) enables attribute
    centroids, which ``assign_all`` needs. Clusters below
    ``MIN_CLUSTER_MEMBERS`` members are flagged to route with the global
    fallback matrix.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    if len(trajectories) < k:
        raise DataError(f"{len(trajectories)} trajectories for k={k}")
    if profiles is not None and len(profiles) != len(trajectories):
        raise ConfigError("profiles must align with trajectories")
    departments = _alphabet(trajectories, departments)
    counts = transition_counts(trajectories, departments)
    fallback = _matrix(counts.sum(axis=0), departments)
    X = _encoding(counts, trajectories)
    # the per-cluster sums need the counts through k-means, whose distance
    # arrays set the peak memory: hold them in the smallest exact dtype
    counts = counts.astype(np.min_scalar_type(counts.max()))
    if k == 1:
        centroids = X.mean(axis=0, keepdims=True)
        labels = np.zeros(len(X), dtype=np.int64)
    else:
        centroids, labels = _kmeans(X, k, stream(seed))

    encoder, raw = _build_profile_encoder(profiles) if profiles is not None else (None, None)
    attr_centroids: list[np.ndarray | None] = []
    matrices = []
    member_counts = []
    for j in range(k):
        member_idx = np.where(labels == j)[0]
        member_counts.append(len(member_idx))
        matrices.append(
            _matrix(counts[member_idx].sum(axis=0), departments)
            if len(member_idx) else fallback
        )
        if encoder is not None and len(member_idx) > 0:
            means, sds = encoder._scale
            attr_centroids.append(((raw[member_idx] - means) / sds).mean(axis=0))
        else:
            attr_centroids.append(None)

    # a cluster's matrix is only usable at admission time if its members
    # are attribute-distinguishable; otherwise route with the global matrix
    separated = [True] * k
    if k > 1 and encoder is not None:
        for i in range(k):
            for j in range(i + 1, k):
                if attr_centroids[i] is None or attr_centroids[j] is None:
                    continue
                gap = float(np.linalg.norm(attr_centroids[i] - attr_centroids[j]))
                if gap < ATTR_SEPARATION_MIN:
                    separated[i] = separated[j] = False

    clusters = []
    for j in range(k):
        clusters.append(
            PathwayCluster(
                centroid=tuple(float(v) for v in centroids[j]),
                matrix=matrices[j],
                member_count=member_counts[j],
                attribute_centroid=(
                    None if attr_centroids[j] is None
                    else tuple(float(v) for v in attr_centroids[j])
                ),
                use_fallback=member_counts[j] < MIN_CLUSTER_MEMBERS or not separated[j],
            )
        )
    return PathwayClusters(
        k=k,
        departments=departments,
        clusters=tuple(clusters),
        fallback=fallback,
        profile_encoder=encoder,
        labels=tuple(int(v) for v in labels),
    )


def assign_all(profiles: Profiles, clusters: PathwayClusters) -> list[int]:
    """Each profile's cluster: the nearest attribute centroid in
    standardized profile space, the lowest index on ties."""
    if clusters.profile_encoder is None or any(
        c.attribute_centroid is None for c in clusters.clusters
    ):
        raise DataError(
            "clusters were fitted without profiles; cannot assign by attributes"
        )
    centroids = np.array([c.attribute_centroid for c in clusters.clusters])
    dists = sq_distances(clusters.profile_encoder.encode_all(profiles), centroids)
    return np.argmin(dists, axis=1).tolist()


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


def mean_silhouette(X: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette score; 0.0 for a single cluster by convention."""
    ks = np.unique(labels)
    if len(ks) < 2:
        return 0.0
    n = len(X)
    scores = np.zeros(n)
    for i in range(n):
        same = labels == labels[i]
        n_same = int(same.sum())
        if n_same <= 1:
            scores[i] = 0.0
            continue
        dists = np.sqrt(np.maximum(sq_distances(X[i:i + 1], X)[0], 0.0))
        a = float(dists[same].sum()) / (n_same - 1)
        b = min(
            float(dists[labels == other].mean())
            for other in ks
            if other != labels[i]
        )
        denom = max(a, b)
        scores[i] = 0.0 if denom <= 0.0 else (b - a) / denom
    return float(scores.mean())


def sweep_k(
    trajectories: Trajectories,
    seed: int,
    profiles: Profiles | None = None,
    departments: Sequence[str] | None = None,
) -> PathwayClusters:
    """Fit every k in ``SWEEP_K`` and keep the best mean silhouette.

    Silhouette needs pairwise distances, so points are subsampled
    (deterministically) beyond ``SILHOUETTE_CAP``. k = 1 scores 0, so it
    wins exactly when every proper clustering has a negative silhouette.
    Ties go to the smaller k.
    """
    departments = _alphabet(trajectories, departments)
    X = encode_all(trajectories, departments)
    if len(X) > SILHOUETTE_CAP:
        pick = stream(seed, 999).choice(len(X), size=SILHOUETTE_CAP, replace=False)
        pick.sort()
    else:
        pick = np.arange(len(X))
    best = None
    for k in SWEEP_K:
        if len(trajectories) < k:
            continue
        result = cluster(trajectories, k, seed, profiles, departments)
        score = mean_silhouette(X[pick], np.asarray(result.labels)[pick])
        if best is None or score > best[0] + 1e-12:
            best = (score, result)
    if best is None:
        raise DataError("no feasible k in range")
    return best[1]

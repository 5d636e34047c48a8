import dataclasses
import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patientflow import codec, engine, pathways
from patientflow.domain import DISCHARGE, ENTRY, extract_trajectories
from patientflow.errors import ConfigError, DataError
from patientflow.pathways import (
    ATTR_SEPARATION_MIN,
    KMEANS_MAX_ITER,
    KMEANS_RESTARTS,
    KMEANS_TOL,
    MEAN_BLOCK,
    MIN_CLUSTER_MEMBERS,
    SWEEP_K,
    Pathway,
    PathwayCluster,
    PathwayClusters,
    _build_profile_encoder,
    _inertia,
    _kmeans,
    _mean,
    assign_all,
    STAY_COUNT_SCALE,
    cluster,
    encode_all,
    fit_transition_matrix,
    routing_loglik,
    row_average_tv,
    sweep_k,
    transition_counts,
)
from patientflow.seeding import blocks, distinct_rows, kmeanspp, sq_distances, stream
from patientflow.synthehr import GeneratorConfig, generate

from conftest import Row, flat_generator_dict, table, trajectories_of, trajectory_paths


def encode(path, departments):
    """The encoding of one trajectory."""
    return encode_all(trajectories_of([path]), departments)[0]


def profile(pid, age=50, gender="F", com=1, drg="ACS"):
    return Row(pid, age, gender, com, drg)


def same_profiles(trajectories):
    """One default profile per trajectory, so every attribute centroid is
    the same."""
    return table([profile(str(i)) for i in range(len(trajectories))])


def state_index(m, state):
    """The matrix row of a state: ENTRY first, then the departments."""
    return (ENTRY, *m.departments).index(state)


def matrix_row(m, state):
    return m.probs[state_index(m, state)]


def stepper(m):
    """``step(state, uniforms)``: the next state after ``state`` (ENTRY or a
    department), a department or DISCHARGE, drawn by the engine's router."""
    routing = engine._Routing(m, m.departments, {})

    def step(state, uniforms):
        j = routing.next(state_index(m, state), uniforms)
        return DISCHARGE if j == engine._DISCHARGE else m.departments[j]

    return step


# --- transition matrix fitting -------------------------------------------------

def test_fit_matrix_counting_example():
    m = fit_transition_matrix(trajectories_of([["A", "B"], ["A"]]))
    assert matrix_row(m, ENTRY) == pytest.approx((1.0, 0.0, 0.0))  # columns A, B, DISCHARGE
    assert matrix_row(m, "A") == pytest.approx((0.0, 0.5, 0.5))
    assert matrix_row(m, "B") == pytest.approx((0.0, 0.0, 1.0))


def test_fit_matrix_single_trajectory():
    m = fit_transition_matrix(trajectories_of([["A"]]))
    assert matrix_row(m, ENTRY) == pytest.approx((1.0, 0.0))
    assert matrix_row(m, "A") == pytest.approx((0.0, 1.0))


def test_fit_matrix_flags_unobserved_rows():
    m = fit_transition_matrix(trajectories_of([["A"]]), departments=["A", "B"])
    assert m.row_observed[state_index(m, "A")]
    assert not m.row_observed[state_index(m, "B")]


def test_fit_matrix_unknown_department():
    with pytest.raises(DataError, match="not in alphabet"):
        fit_transition_matrix(trajectories_of([["A"]]), departments=["B"])


def test_fit_matrix_recovers_generator_chain():
    # single-class generator: the fitted matrix approaches the generating one
    d = flat_generator_dict(seed=77, horizon=950.0)
    config = GeneratorConfig.from_dict(d)
    result = generate(config)
    trajectories = extract_trajectories(result.log, result.profiles)
    assert len(trajectories) >= 9000
    m = fit_transition_matrix(trajectories, sorted(config.departments))
    # generating rows over sorted alphabet (ER, WARD): ENTRY->ER, ER->[WARD .3, DIS .7]
    expected = {
        ENTRY: (1.0, 0.0, 0.0),
        "ER": (0.0, 0.3, 0.7),
        "WARD": (0.0, 0.0, 1.0),
    }
    for state, row in expected.items():
        got = matrix_row(m, state)
        assert max(abs(a - b) for a, b in zip(got, row)) <= 0.03


# --- encoding ------------------------------------------------------------------

def test_encode_mass_thirds():
    vec = encode(["A", "B"], ["A", "B"])
    # rows: ENTRY, A, B; columns: A, B, DISCHARGE
    block = vec[:-1].reshape(3, 3)
    assert block[0, 0] == pytest.approx(1 / 3)  # ENTRY -> A
    assert block[1, 1] == pytest.approx(1 / 3)  # A -> B
    assert block[2, 2] == pytest.approx(1 / 3)  # B -> DISCHARGE
    assert block.sum() == pytest.approx(1.0)


def test_encode_single_stay_uses_entry_and_discharge():
    vec = encode(["A"], ["A", "B"])
    block = vec[:-1].reshape(3, 3)
    assert block[0, 0] == pytest.approx(0.5)  # ENTRY -> A
    assert block[1, 2] == pytest.approx(0.5)  # A -> DISCHARGE
    assert block.sum() == pytest.approx(1.0)


def test_encode_deterministic_and_time_invariant():
    # the second patient is admitted 1000 h after the first
    a, b = encode_all(trajectories_of([["A", "B", "A"], ["A", "B", "A"]]), ["A", "B"])
    assert np.array_equal(a, b)


def test_encode_block_sums_to_one_any_trajectory():
    rng = stream(44)
    for _ in range(50):
        length = int(rng.integers(1, 8))
        departments = ["A", "B", "C"]
        path = [departments[int(rng.integers(3))] for _ in range(length)]
        vec = encode(path, departments)
        assert vec[:-1].sum() == pytest.approx(1.0)


def test_encode_alphabet_permutation_preserves_distances():
    paths = [["A"], ["A", "B"], ["B", "A", "A"], ["B"]]
    e1 = np.vstack([encode(p, ["A", "B"]) for p in paths])
    e2 = np.vstack([encode(p, ["B", "A"]) for p in paths])
    d1 = np.linalg.norm(e1[:, None, :] - e1[None, :, :], axis=2)
    d2 = np.linalg.norm(e2[:, None, :] - e2[None, :, :], axis=2)
    assert np.allclose(d1, d2)


def test_encode_unknown_department():
    with pytest.raises(DataError, match="not in alphabet"):
        encode(["C"], ["A", "B"])


# --- batch encoding against the per-trajectory loop ---------------------------------

def loop_transition_counts(paths, departments):
    """The per-trajectory counting loop that ``transition_counts`` replaced,
    over each trajectory's department names."""
    idx = {d: i for i, d in enumerate(departments)}
    n = len(departments)
    counts = np.zeros((n + 1, n + 1), dtype=np.int64)
    for names in paths:
        try:
            path = [idx[d] for d in names]
        except KeyError as exc:
            raise DataError(f"department {exc} not in alphabet") from None
        counts[0, path[0]] += 1
        for a, b in zip(path, path[1:]):
            counts[1 + a, b] += 1
        counts[1 + path[-1], n] += 1
    return counts


def loop_encode(path, departments):
    """``encode`` as it was before the batch encoder: one trajectory at a time."""
    counts = loop_transition_counts([path], tuple(departments))
    total = counts.sum()
    vec = np.empty(counts.size + 1)
    vec[:-1] = counts.reshape(-1) / total
    vec[-1] = len(path) / STAY_COUNT_SCALE
    return vec


DEPARTMENTS = ("A", "B", "C")
# single stays, repeated departments (A -> A) and every route length up to 7
PATHS = st.lists(st.lists(st.sampled_from(DEPARTMENTS), min_size=1, max_size=7),
                 min_size=1, max_size=15)


@settings(max_examples=200, deadline=None)
@given(PATHS)
def test_batch_encoder_matches_the_per_trajectory_loop(paths):
    trs = trajectories_of(paths)
    expected = np.vstack([loop_encode(path, DEPARTMENTS) for path in paths])
    assert encode_all(trs, DEPARTMENTS).tobytes() == expected.tobytes()
    for path, row in zip(paths, expected):
        assert encode(path, DEPARTMENTS).tobytes() == row.tobytes()


@settings(max_examples=100, deadline=None)
@given(PATHS, st.data())
def test_batch_encoder_rejects_an_unknown_department(paths, data):
    i = data.draw(st.integers(0, len(paths) - 1))
    j = data.draw(st.integers(0, len(paths[i]) - 1))
    paths[i][j] = "X"
    trs = trajectories_of(paths)
    with pytest.raises(DataError, match="'X' not in alphabet"):
        encode_all(trs, DEPARTMENTS)
    with pytest.raises(DataError, match="'X' not in alphabet"):
        fit_transition_matrix(trs, DEPARTMENTS)


@settings(max_examples=100, deadline=None)
@given(PATHS)
def test_matrix_counts_equal_the_loop_counts(paths):
    m = fit_transition_matrix(trajectories_of(paths), DEPARTMENTS)
    assert np.array_equal(np.asarray(m.counts), loop_transition_counts(paths, DEPARTMENTS))


def test_cluster_matrices_count_their_members():
    config = GeneratorConfig.from_dict(flat_generator_dict(seed=5, horizon=120.0))
    result = generate(config)
    trs = extract_trajectories(result.log, result.profiles)
    paths = trajectory_paths(trs)
    departments = tuple(sorted(config.departments))
    pc = cluster(trs, 3, 2, result.profiles.take(trs.patient), departments)
    labels = np.asarray(pc.labels)
    assert np.array_equal(np.asarray(pc.fallback.counts),
                          loop_transition_counts(paths, departments))
    for j, c in enumerate(pc.clusters):
        members = [path for path, label in zip(paths, labels) if label == j]
        assert c.member_count == len(members)
        assert np.array_equal(np.asarray(c.matrix.counts),
                              loop_transition_counts(members, departments))


# --- clustering -------------------------------------------------------------------

def test_cluster_k1_equals_global_matrix():
    trs = trajectories_of([["A", "B"], ["A"], ["B", "B"]])
    pc = cluster(trs, 1, 0, same_profiles(trs))
    global_m = fit_transition_matrix(trs)
    assert pc.clusters[0].matrix.counts == global_m.counts
    assert pc.clusters[0].matrix.probs == global_m.probs


def test_cluster_separates_two_pure_groups():
    trs = trajectories_of([["A"] for i in range(30)] + [
        ["A", "B", "B"] for i in range(30)
    ])
    pc = cluster(trs, 2, 1, same_profiles(trs))
    labels = np.asarray(pc.labels)
    assert set(labels[:30]) != set(labels[30:])
    assert len(set(labels[:30])) == 1
    assert len(set(labels[30:])) == 1
    # within-group encodings identical, so the centroid matches each member
    for c in pc.clusters:
        assert c.member_count == 30


def test_cluster_counts_conserved():
    rng = stream(4)
    departments = ["A", "B", "C"]
    paths = []
    for i in range(200):
        length = int(rng.integers(1, 6))
        paths.append([departments[int(rng.integers(3))] for _ in range(length)])
    trs = trajectories_of(paths)
    pc = cluster(trs, 3, 5, same_profiles(trs))
    global_m = fit_transition_matrix(trs, pc.departments)
    summed = np.zeros_like(np.asarray(global_m.counts))
    for c in pc.clusters:
        summed += np.asarray(c.matrix.counts)
    assert np.array_equal(summed, np.asarray(global_m.counts))
    assert sum(c.member_count for c in pc.clusters) == len(trs)


def test_cluster_handles_more_clusters_than_distinct_points():
    trs = trajectories_of([["A"] for i in range(5)])
    pc = cluster(trs, 3, 6, same_profiles(trs))
    assert sum(c.member_count for c in pc.clusters) == 5


def test_cluster_too_few():
    with pytest.raises(DataError, match="1 trajectories for k=2"):
        cluster(trajectories_of([["A"]]), 2, 0, table([profile("p")]))


def test_cluster_small_clusters_use_fallback():
    trs = trajectories_of([["A"] for i in range(40)] + [["A", "B"]])
    pc = cluster(trs, 2, 7, same_profiles(trs))
    sizes = sorted(c.member_count for c in pc.clusters)
    assert sizes == [1, 40]
    small = min(pc.clusters, key=lambda c: c.member_count)
    assert small.use_fallback
    idx = pc.clusters.index(small)
    assert pc.routing_matrix(idx) is pc.fallback


def test_cluster_recovers_latent_classes(default_generator):
    config = GeneratorConfig.from_dict(
        {**codec.document(default_generator), "horizon": 104.0, "seed": 314}
    )
    result = generate(config)
    trs = extract_trajectories(result.log, result.profiles)
    assert len(trs) >= 1000
    profiles = result.profiles.take(trs.patient)
    pc = cluster(trs, 2, seed=314, profiles=profiles,
                 departments=sorted(config.departments))
    labels = np.asarray(pc.labels)
    truth = result.latent_class[trs.patient]
    agreement = float(np.mean(labels == truth))
    assert max(agreement, 1.0 - agreement) >= 0.9


# --- assignment --------------------------------------------------------------------

def test_assign_k1_always_zero():
    trs = trajectories_of([["A"] for i in range(10)])
    profiles = [profile(str(i)) for i in range(10)]
    pc = cluster(trs, 1, seed=0, profiles=table(profiles))
    assert assign_all(table([profile("x")]), pc) == [0]


def test_assign_requires_attribute_centroids():
    """A clusters document without its profile encoder or an attribute
    centroid does not decode, so ``assign_all`` always has both."""
    trs = trajectories_of([["A"], ["A"]])
    doc = codec.document(cluster(trs, 1, 0, same_profiles(trs)))
    with pytest.raises(ConfigError, match=r"\.profile_encoder: expected an object"):
        codec.read(Pathway, {**doc, "profile_encoder": None}, "pathway")
    with pytest.raises(ConfigError, match=r"\.attribute_centroid: expected a list"):
        codec.read(Pathway, {**doc, "clusters": [{**doc["clusters"][0], "attribute_centroid": None}]},
                   "pathway")


def test_assign_exact_centroid_match():
    trs = trajectories_of([["A"] for i in range(25)] + [
        ["A", "B"] for i in range(25)
    ])
    profiles = [profile(f"a{i}", age=30, com=0) for i in range(25)] + [
        profile(f"b{i}", age=80, com=9) for i in range(25)
    ]
    pc = cluster(trs, 2, seed=8, profiles=table(profiles))
    young, old = assign_all(table([profile("x", age=30, com=0), profile("y", age=80, com=9)]),
                            pc)
    assert young != old
    young_cluster = pc.clusters[young]
    assert {30} == {
        profiles[i].age for i in range(50) if pc.labels[i] == young
    }
    assert young_cluster.member_count == 25


def test_assign_accuracy_against_latent_class(default_generator):
    config = GeneratorConfig.from_dict(
        {**codec.document(default_generator), "horizon": 104.0, "seed": 314}
    )
    result = generate(config)
    trs = extract_trajectories(result.log, result.profiles)
    profiles = result.profiles.take(trs.patient)
    pc = cluster(trs, 2, seed=314, profiles=profiles,
                 departments=sorted(config.departments))
    labels = np.asarray(pc.labels)
    truth = result.latent_class[trs.patient]
    mapping = (0, 1) if np.mean(labels == truth) >= 0.5 else (1, 0)
    assigned = np.asarray([mapping[k] for k in assign_all(profiles, pc)])
    assert float(np.mean(assigned == truth)) > 0.75


# --- walking ------------------------------------------------------------------------

def test_next_department_frequency():
    m = fit_transition_matrix(trajectories_of([["A", "B"], ["A"]]))
    step, uniforms = stepper(m), blocks(stream(2).random)
    draws = [step("A", uniforms) for _ in range(10_000)]
    share_b = draws.count("B") / len(draws)
    assert 0.48 <= share_b <= 0.52


def test_next_department_seeded_walk():
    m = fit_transition_matrix(
        trajectories_of([["A", "B"], ["A"], ["A", "A", "B"]])
    )

    step = stepper(m)

    def walk(seed):
        uniforms = blocks(stream(seed).random)
        state, path = ENTRY, []
        for _ in range(50):
            state = step(state, uniforms)
            if state == DISCHARGE:
                break
            path.append(state)
        return path

    assert walk(3) == walk(3)


def test_next_department_unobserved_row():
    m = fit_transition_matrix(trajectories_of([["A"]]), departments=["A", "B"])
    assert stepper(m)("B", blocks(stream(0).random)) == DISCHARGE


def test_walks_terminate_within_cap(default_oracle, default_generator):
    trs = extract_trajectories(default_oracle.log.rows(slice(40_000)), default_oracle.profiles)
    m = fit_transition_matrix(trs, sorted(default_generator.departments))
    step, uniforms = stepper(m), blocks(stream(9).random)
    capped = 0
    for _ in range(10_000):
        state = ENTRY
        for _ in range(50):
            state = step(state, uniforms)
            if state == DISCHARGE:
                break
        else:
            capped += 1
    assert capped / 10_000 <= 0.001


# --- k sweep by routing log-likelihood --------------------------------------------------

def reference_routing_loglik(paths, profiles, clusters):
    """The per-trajectory loop that ``routing_loglik`` stands for: each
    move's log probability under the matrix its profile routes by, each
    count smoothed by one."""
    total = 0.0
    for path, j in zip(paths, assign_all(profiles, clusters)):
        m = clusters.routing_matrix(j)
        for state, nxt in zip((ENTRY, *path), (*path, DISCHARGE)):
            row = m.counts[state_index(m, state)]
            cell = row[(*m.departments, DISCHARGE).index(nxt)]
            total += math.log((cell + 1) / (sum(row) + len(row)))
    return total / len(paths)


def test_routing_loglik_matches_the_per_trajectory_loop():
    """A flagged cluster's profiles score with the fallback matrix."""
    paths = [["A"]] * 40 + [["A", "B", "B"]] * 6 + [["A", "B"], ["A", "C", "B"]] * 3
    profiles = table([profile(f"a{i}", age=30 + i % 3) for i in range(40)]
                     + [profile(f"b{i}", age=70 + 2 * i, com=i % 4) for i in range(12)])
    trs = trajectories_of(paths)
    pc = cluster(trs, 2, seed=5, profiles=profiles)
    flagged = [c.use_fallback for c in pc.clusters]
    assert sorted(flagged) == [False, True]
    assert pc.clusters[flagged.index(True)].matrix != pc.fallback
    assert flagged.index(True) in assign_all(profiles, pc)
    got = routing_loglik(transition_counts(trs, pc.departments),
                         pc.profile_encoder.encode_all(profiles), pc)
    assert abs(got - reference_routing_loglik(paths, profiles, pc)) <= 1e-12


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_sweep_k_picks_the_per_point_loops_k(default_generator, monkeypatch, seed):
    """On generated logs, ``sweep_k`` keeps the k that the per-trajectory
    loop's scores pick, by the same rule: a later k must score more than
    1e-12 higher. That k is 2, the generator's two latent classes."""
    config = dataclasses.replace(default_generator, horizon=200.0, seed=seed)
    result = generate(config)
    trs = extract_trajectories(result.log, result.profiles)
    paths = trajectory_paths(trs)
    profiles = result.profiles.take(trs.patient)
    reference = []  # the loop's score of each k, in SWEEP_K order

    def both(counts, encoded, clusters):
        assert np.array_equal(encoded, clusters.profile_encoder.encode_all(profiles))
        reference.append(reference_routing_loglik(paths, profiles, clusters))
        return routing_loglik(counts, encoded, clusters)

    monkeypatch.setattr(pathways, "routing_loglik", both)
    pc = sweep_k(trs, seed, profiles, sorted(config.departments))
    assert len(reference) == len(SWEEP_K)
    best = None
    for k, score in zip(SWEEP_K, reference):
        if best is None or score > best[0] + 1e-12:
            best = (score, k)
    assert pc.k == best[1] == 2


def test_sweep_k_picks_one_on_the_homogeneous_generator(homogeneous_scenario_dict, monkeypatch):
    """With one latent class every proper clustering falls back to the
    global matrix, so every k scores the same up to rounding, and the
    1e-12 margin keeps k = 1. (With numpy 2.4.6, k = 3 and k = 4 score 1
    and 2 ulps above k = 1 here.)"""
    config = dataclasses.replace(GeneratorConfig.from_dict(homogeneous_scenario_dict["generator"]),
                                 horizon=200.0, seed=1)
    result = generate(config)
    trs = extract_trajectories(result.log, result.profiles)
    scores = []

    def recorded(*args):
        scores.append(routing_loglik(*args))
        return scores[-1]

    monkeypatch.setattr(pathways, "routing_loglik", recorded)
    pc = sweep_k(trs, 3, result.profiles.take(trs.patient), sorted(config.departments))
    assert pc.k == 1
    assert len(scores) == len(SWEEP_K) and max(scores) - min(scores) <= 1e-12


def test_sweep_k_counts_the_moves_once(default_generator, monkeypatch):
    """The transition counts, the profile encoder and the encoded profiles
    do not depend on k: one sweep builds each once, and its pick is the
    k = 2 fit that ``cluster`` makes on its own."""
    config = dataclasses.replace(default_generator, horizon=200.0, seed=2)
    result = generate(config)
    trs = extract_trajectories(result.log, result.profiles)
    profiles = result.profiles.take(trs.patient)
    calls = {"transition_counts": 0, "_build_profile_encoder": 0}
    for name in calls:
        def counted(*args, real=getattr(pathways, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(pathways, name, counted)
    pc = sweep_k(trs, 3, profiles, sorted(config.departments))
    assert calls == {"transition_counts": 1, "_build_profile_encoder": 1}
    assert pc == cluster(trs, 2, 3, profiles, sorted(config.departments))


def test_sweep_k_of_no_trajectories_is_a_data_error():
    with pytest.raises(DataError, match="no feasible k"):
        sweep_k(trajectories_of([]), seed=1, profiles=table([]), departments=["A"])


def test_sweep_k_picks_three_for_three_planted_classes():
    """Three routes, each taken by its own age group: only k = 3 routes
    every patient by its own class's matrix."""
    routes = (["A"], ["A", "B", "B"], ["A", "C"])
    trs = trajectories_of([route for route in routes for _ in range(40)])
    profiles = [profile(f"p{age}-{i}", age=age) for age in (20, 50, 80) for i in range(40)]
    pc = sweep_k(trs, seed=10, profiles=table(profiles))
    assert pc.k == 3
    assert not any(c.use_fallback for c in pc.clusters)


def test_sweep_k_picks_two_for_two_pure_groups():
    trs = trajectories_of([["A"] for i in range(40)] + [
        ["A", "B", "B"] for i in range(40)
    ])
    profiles = [profile(f"a{i}", age=30) for i in range(40)] + [
        profile(f"b{i}", age=80) for i in range(40)
    ]
    pc = sweep_k(trs, seed=10, profiles=table(profiles))
    assert pc.k == 2


def document_sha256(obj) -> str:
    """The SHA-256 of ``obj``'s document as ``codec.write`` writes it."""
    text = json.dumps(codec.document(obj), indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# sweep_k of the default generator's log over 200 h at seed 7 (2,329
# trajectories), fitted with seed 3: the k = 2 fit, byte for byte
SWEEP_K_GOLDEN = "0b3e8c4433457a3c25dbba84093fdeed19d8217e3d18970f12836872ee78ef39"


def test_sweep_k_golden_bytes(default_generator):
    config = dataclasses.replace(default_generator, horizon=200.0, seed=7)
    result = generate(config)
    trs = extract_trajectories(result.log, result.profiles)
    pc = sweep_k(trs, 3, result.profiles.take(trs.patient), sorted(config.departments))
    assert document_sha256(pc) == SWEEP_K_GOLDEN


# --- diagnostics and serialization ------------------------------------------------------

def test_row_average_tv_identical_and_disjoint():
    m = fit_transition_matrix(trajectories_of([["A", "B"], ["A"]]))
    assert row_average_tv(m, m) == 0.0
    other = fit_transition_matrix(trajectories_of([["B"], ["B", "A"]]))
    assert row_average_tv(m, other) > 0.3


def test_pathway_json_round_trips():
    trs = trajectories_of([["A"] for i in range(25)] + [
        ["A", "B"] for i in range(25)
    ])
    profiles = [profile(f"p{i}", age=30 + i) for i in range(50)]
    m = fit_transition_matrix(trs)
    assert codec.read(Pathway, codec.document(m), "pathway") == m
    pc = cluster(trs, 2, seed=11, profiles=table(profiles))
    clone = codec.read(Pathway, codec.document(pc), "pathway")
    assert clone == pc
    q = table([profile("q", age=42)])
    assert assign_all(q, clone) == assign_all(q, pc)


# --- k-means that measured every point ---------------------------------------------------

def reference_kmeanspp(X, k, rng):
    n = len(X)
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    d2 = sq_distances(X, centroids[:1])[:, 0]
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            centroids[j] = X[rng.integers(n)]
        else:
            u = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), u))
            centroids[j] = X[min(idx, n - 1)]
        d2 = np.minimum(d2, sq_distances(X, centroids[j:j + 1])[:, 0])
    return centroids


def reference_nearest(X, centroids):
    """Each point's nearest centroid; then each empty cluster, in order,
    takes the worst-fitting point (the first on ties) of a cluster that
    keeps another member."""
    dists = sq_distances(X, centroids)
    labels = np.argmin(dists, axis=1)
    assigned_d2 = dists[np.arange(len(X)), labels]
    for j in range(len(centroids)):
        if not np.any(labels == j):
            movable = [i for i in range(len(X)) if np.sum(labels == labels[i]) > 1]
            labels[max(movable, key=lambda i: assigned_d2[i])] = j
    return labels


def reference_inertia(X, centroids, labels):
    """The exactly rounded sum of each point's squared distance to its
    centroid."""
    return math.fsum(sq_distances(X, centroids)[np.arange(len(X)), labels].tolist())


def reference_kmeans(X, k, rng):
    """``_kmeans`` as it was when every distance was taken per point."""
    best = None
    for _ in range(KMEANS_RESTARTS):
        centroids = reference_kmeanspp(X, k, rng)
        for _ in range(KMEANS_MAX_ITER):
            labels = reference_nearest(X, centroids)
            new_centroids = np.vstack([X[labels == j].mean(axis=0) for j in range(k)])
            shift = float(np.max(np.abs(new_centroids - centroids)))
            centroids = new_centroids
            if shift < KMEANS_TOL:
                break
        labels = reference_nearest(X, centroids)
        inertia = reference_inertia(X, centroids, labels)
        if best is None or inertia < best[0]:
            best = (inertia, centroids, labels)
    return best[1], best[2]


@st.composite
def point_sets(draw):
    """Points drawn from a pool of a few rows, so most repeat; the pool's
    coordinates come from a short list, so distances tie; and k may exceed
    the distinct rows, so clusters go empty and are repaired."""
    d = draw(st.integers(1, 4))
    pool = draw(st.lists(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 3.0]),
                                  min_size=d, max_size=d), min_size=1, max_size=5))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    return np.array(rows, dtype=float), draw(st.integers(1, min(4, len(rows))))


@settings(max_examples=200, deadline=None)
@given(point_sets(), st.integers(0, 2**32 - 1))
def test_kmeans_keeps_the_bits_of_the_per_point_distances(points, seed):
    X, k = points
    centroids, labels = _kmeans(distinct_rows(X), k, stream(seed))
    reference_centroids, reference_labels = reference_kmeans(X, k, stream(seed))
    assert centroids.tobytes() == reference_centroids.tobytes()
    assert labels.tobytes() == reference_labels.tobytes()
    assert kmeanspp(distinct_rows(X), k, stream(seed)).tobytes() == reference_kmeanspp(
        X, k, stream(seed)).tobytes()


@settings(max_examples=200, deadline=None)
@given(point_sets(), st.integers(0, 2**32 - 1))
@example((np.array([[0.0, 0.0, 0.0, 0.0]] * 2 + [[0.0, 0.0, 0.0, 0.25]] * 2), 4), 0)
def test_kmeans_leaves_no_cluster_empty(points, seed):
    """With at least as many points as clusters, a repair never takes a
    cluster's only member, so no mean is of an empty slice."""
    X, k = points
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, labels = _kmeans(distinct_rows(X), k, stream(seed))
    assert np.bincount(labels, minlength=k).min() >= 1


@pytest.mark.parametrize("d", [2, 5, 17])
def test_blocked_mean_keeps_the_bits_of_the_whole_gather(d):
    """A k-means mean gathers its members' rows a block at a time; across
    block edges it adds them in the order one whole gather does."""
    for seed in range(4):
        rng = stream(seed, d)
        rows = rng.standard_normal((100, d)) * 10.0 ** rng.integers(-3, 4, (100, 1))
        for n in (1, MEAN_BLOCK - 1, MEAN_BLOCK, MEAN_BLOCK + 1, 3 * MEAN_BLOCK + 5):
            index = rng.integers(0, 100, n)
            assert _mean(rows, index).tobytes() == rows[index].mean(axis=0).tobytes()


@pytest.mark.parametrize("d", [1, 2, 5, 17])
def test_inertia_is_the_exact_sum_in_any_order(d):
    """The inertia is the exactly rounded sum of the per-point squared
    distances, so permuting the points and their labels leaves its bits."""
    for seed in range(4):
        rng = stream(seed, d)
        rows = rng.standard_normal((100, d)) * 10.0 ** rng.integers(-3, 4, (100, 1))
        centroids = rng.standard_normal((3, d))
        for n in (1, 7, 1000, 20_000):
            X = rows[rng.integers(0, 100, n)]
            labels = rng.integers(0, 3, n)
            inertia = _inertia(distinct_rows(X), centroids, labels)
            assert inertia == reference_inertia(X, centroids, labels)
            order = rng.permutation(n)
            assert _inertia(distinct_rows(X[order]), centroids, labels[order]) == inertia


def test_kmeans_repairs_an_empty_cluster():
    X = np.array([[0.0, 1.0]] * 5 + [[1.0, 0.0]])
    centroids, labels = _kmeans(distinct_rows(X), 3, stream(3))
    assert sorted(set(labels.tolist())) == [0, 1, 2]
    reference_centroids, reference_labels = reference_kmeans(X, 3, stream(3))
    assert centroids.tobytes() == reference_centroids.tobytes()
    assert labels.tobytes() == reference_labels.tobytes()


# --- clustering the distinct rows against clustering every trajectory ----------------------

def reference_cluster(paths, k, seed, profiles, departments):
    """``cluster`` as it was when k-means ran on one encoding per trajectory
    and the matrices summed one count matrix per trajectory."""
    X = encode_all(trajectories_of(paths), departments)
    centroids, labels = reference_kmeans(X, k, stream(seed))
    encoder = _build_profile_encoder(profiles)
    encoded = encoder.encode_all(profiles)
    attr = [encoded[labels == j].mean(axis=0) for j in range(k)]
    clusters = []
    for j in range(k):
        members = [path for path, label in zip(paths, labels) if label == j]
        separated = all(np.linalg.norm(attr[j] - attr[i]) >= ATTR_SEPARATION_MIN
                        for i in range(k) if i != j)
        clusters.append(PathwayCluster(
            centroid=tuple(float(v) for v in centroids[j]),
            matrix=fit_transition_matrix(trajectories_of(members), departments),
            member_count=len(members),
            attribute_centroid=tuple(float(v) for v in attr[j]),
            use_fallback=len(members) < MIN_CLUSTER_MEMBERS or not separated,
        ))
    return PathwayClusters(
        k=k,
        departments=departments,
        clusters=tuple(clusters),
        fallback=fit_transition_matrix(trajectories_of(paths), departments),
        profile_encoder=encoder,
        labels=tuple(int(v) for v in labels),
    )


@st.composite
def cluster_inputs(draw):
    """Up to 60 trajectories drawn from a pool of a few routes, so most
    repeat and k may exceed the distinct routes, each with a profile drawn
    from a few ages and DRGs."""
    routes = draw(st.lists(st.lists(st.sampled_from(DEPARTMENTS), min_size=1, max_size=4),
                           min_size=1, max_size=5))
    paths = draw(st.lists(st.sampled_from(routes), min_size=1, max_size=60))
    profiles = table([profile(f"p{i}", age=draw(st.sampled_from([30, 55, 80])),
                              drg=draw(st.sampled_from(["ACS", "HF"])))
                      for i in range(len(paths))])
    return paths, draw(st.integers(1, min(5, len(paths)))), profiles


# restarts that split off B -> A or A -> B reach the same inertia up to
# rounding; the exactly rounded inertia picks the one that is kept
TIED = [["A"]] * 5 + [["B", "A"], ["A"], ["A", "B"]]


@settings(max_examples=100, deadline=None)
@given(cluster_inputs(), st.integers(0, 2**32 - 1))
@example((TIED, 2, table([profile(f"p{i}", age=30) for i in range(len(TIED))])), 0)
def test_cluster_matches_the_per_trajectory_reference(inputs, seed):
    paths, k, profiles = inputs
    pc = cluster(trajectories_of(paths), k, seed, profiles, DEPARTMENTS)
    expected = reference_cluster(paths, k, seed, profiles, DEPARTMENTS)
    assert document_sha256(pc) == document_sha256(expected)


def test_cluster_peaks_below_two_encoding_matrices(default_oracle, default_generator):
    """``cluster`` holds no float matrix with a row per trajectory for long:
    its traced peak stays below two (trajectories x encoding width) float64
    matrices."""
    trs = extract_trajectories(default_oracle.log, default_oracle.profiles)
    profiles = default_oracle.profiles.take(trs.patient)
    departments = tuple(sorted(default_generator.departments))
    width = (len(departments) + 1) ** 2 + 1
    tracemalloc.start()
    try:
        cluster(trs, 2, 20260810, profiles, departments)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(trs) * width * 8

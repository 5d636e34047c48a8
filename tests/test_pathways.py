import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patientflow import codec, engine
from patientflow.domain import DISCHARGE, ENTRY, extract_trajectories
from patientflow.errors import DataError
from patientflow.pathways import (
    assign_all,
    STAY_COUNT_SCALE,
    cluster,
    encode_all,
    fit_transition_matrix,
    mean_silhouette,
    row_average_tv,
    sweep_k,
)
from patientflow.seeding import blocks, stream
from patientflow.synthehr import GeneratorConfig, generate

from conftest import Row, flat_generator_dict, table, trajectories_of, trajectory_paths


def encode(path, departments):
    """The encoding of one trajectory."""
    return encode_all(trajectories_of([path]), departments)[0]


def profile(pid, age=50, gender="F", com=1, drg="ACS"):
    return Row(pid, age, gender, com, drg)


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
    pc = cluster(trs, 3, seed=2, departments=departments)
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
    pc = cluster(trs, 1, seed=0)
    global_m = fit_transition_matrix(trs)
    assert pc.clusters[0].matrix.counts == global_m.counts
    assert pc.clusters[0].matrix.probs == global_m.probs


def test_cluster_separates_two_pure_groups():
    trs = trajectories_of([["A"] for i in range(30)] + [
        ["A", "B", "B"] for i in range(30)
    ])
    pc = cluster(trs, 2, seed=1)
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
    pc = cluster(trs, 3, seed=5)
    global_m = fit_transition_matrix(trs, pc.departments)
    summed = np.zeros_like(np.asarray(global_m.counts))
    for c in pc.clusters:
        summed += np.asarray(c.matrix.counts)
    assert np.array_equal(summed, np.asarray(global_m.counts))
    assert sum(c.member_count for c in pc.clusters) == len(trs)


def test_cluster_handles_more_clusters_than_distinct_points():
    trs = trajectories_of([["A"] for i in range(5)])
    pc = cluster(trs, 3, seed=6)
    assert sum(c.member_count for c in pc.clusters) == 5


def test_cluster_too_few():
    with pytest.raises(DataError, match="1 trajectories for k=2"):
        cluster(trajectories_of([["A"]]), 2, seed=0)


def test_cluster_small_clusters_use_fallback():
    trs = trajectories_of([["A"] for i in range(40)] + [["A", "B"]])
    pc = cluster(trs, 2, seed=7)
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
    truth = np.asarray([result.truth.latent_class[pid] for pid in profiles.patient_id])
    agreement = float(np.mean(labels == truth))
    assert max(agreement, 1.0 - agreement) >= 0.9


# --- assignment --------------------------------------------------------------------

def test_assign_k1_always_zero():
    trs = trajectories_of([["A"] for i in range(10)])
    profiles = [profile(str(i)) for i in range(10)]
    pc = cluster(trs, 1, seed=0, profiles=table(profiles))
    assert assign_all(table([profile("x")]), pc) == [0]


def test_assign_requires_attribute_centroids():
    pc = cluster(trajectories_of([["A"], ["A"]]), 1, seed=0)
    with pytest.raises(DataError, match="fitted without profiles"):
        assign_all(table([profile("x")]), pc)


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
    truth = np.asarray([result.truth.latent_class[pid] for pid in profiles.patient_id])
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


# --- k sweep and silhouette -----------------------------------------------------------

def test_mean_silhouette_two_tight_groups():
    X = np.vstack([np.zeros((10, 2)), np.ones((10, 2))])
    labels = np.asarray([0] * 10 + [1] * 10)
    assert mean_silhouette(X, labels) == pytest.approx(1.0)
    assert mean_silhouette(X, np.zeros(20, dtype=int)) == 0.0


def test_sweep_k_picks_two_for_two_pure_groups():
    trs = trajectories_of([["A"] for i in range(40)] + [
        ["A", "B", "B"] for i in range(40)
    ])
    profiles = [profile(f"a{i}", age=30) for i in range(40)] + [
        profile(f"b{i}", age=80) for i in range(40)
    ]
    pc = sweep_k(trs, seed=10, profiles=table(profiles))
    assert pc.k == 2


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
    assert codec.decode(codec.document(m)) == m
    pc = cluster(trs, 2, seed=11, profiles=table(profiles))
    clone = codec.decode(codec.document(pc))
    assert clone == pc
    q = table([profile("q", age=42)])
    assert assign_all(q, clone) == assign_all(q, pc)

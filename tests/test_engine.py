import heapq
import math
import os
import pickle
from collections import deque
from dataclasses import replace
from itertools import count
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patientflow import codec, engine, estimators
from patientflow.cli import _read_sim_config
from patientflow.domain import DepartmentSpec, Profiles, extract_trajectories
from patientflow.engine import (
    AttributeSampler,
    EmpiricalSampler,
    ForecastDriven,
    PoissonBaseline,
    SimConfig,
    bucket_census,
    inject_arrivals,
    replicate,
    run,
)
from patientflow.errors import ConfigError, DataError
from patientflow.estimators import (
    TARGET_COT,
    TARGET_LOS,
    CategoricalFeature,
    FeatureSpec,
    GammaFit,
    LognormalFit,
    WeibullFit,
    fit_conditional,
    fit_tree,
    ks_statistic,
    locations,
)
from patientflow.pathways import TransitionMatrix, cluster
from patientflow.seeding import blocks, cumulative, draw_cumulative, stream
from patientflow.synthehr import (
    WALK_CAP,
    AgeMixture,
    GeneratorConfig,
    LinearRate,
    generate,
)

from conftest import InProcessChild, attribute_sim_config, time_limit


CONST_COST = LognormalFit(mu=math.log(100.0), sigma=0.0, n=10, loglik=0.0)


def chain_matrix():
    """ENTRY -> W always, W -> DISCHARGE always."""
    return TransitionMatrix(
        departments=("W",),
        probs=((1.0, 0.0), (0.0, 1.0)),
        counts=((1, 0), (0, 1)),
        row_observed=(True, True),
    )


def two_dept_matrix(p_transfer):
    """ENTRY -> W; W -> X with probability p, else discharge; X -> DISCHARGE."""
    return TransitionMatrix(
        departments=("W", "X"),
        probs=((1.0, 0.0, 0.0), (0.0, p_transfer, 1.0 - p_transfer), (0.0, 0.0, 1.0)),
        counts=((1, 0, 0), (0, 1, 1), (0, 0, 1)),
        row_observed=(True, True, True),
    )


def attr_sampler():
    return AttributeSampler(AgeMixture(1.0, 55.0, 12.0, 55.0, 12.0), 0.5,
                            LinearRate(1.0, 0.0), {"GEN": 1.0})


def base_config(**overrides):
    defaults = dict(
        departments=(DepartmentSpec("W", None),),
        horizon=720.0,
        warm_up=0.0,
        arrival_driver=PoissonBaseline(lam=12.0, bucket_width=24.0),
        los_models={"W": LognormalFit(mu=math.log(36.0), sigma=0.3, n=10, loglik=0.0)},
        cot_model=CONST_COST,
        pathway=chain_matrix(),
        profile_sampler=attr_sampler(),
        seed=0,
        replications=1,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


# --- arrival injection ----------------------------------------------------------

def test_inject_zero_forecast():
    driver = ForecastDriven(forecast=(0.0, 0.0, 0.0), bucket_width=24.0)
    assert inject_arrivals(driver, 72.0, stream(0)) == []


def test_inject_poisson_sum():
    driver = ForecastDriven(forecast=(5.0,) * 1000, bucket_width=1.0)
    times = inject_arrivals(driver, 1000.0, stream(1))
    assert abs(len(times) - 5000) <= 3 * math.sqrt(5000)
    assert times == sorted(times)


def test_inject_deterministic_same_seed():
    driver = ForecastDriven(forecast=(3.0,) * 10, bucket_width=24.0)
    assert inject_arrivals(driver, 240.0, stream(2)) == inject_arrivals(
        driver, 240.0, stream(2)
    )


def test_inject_forecast_too_short():
    driver = ForecastDriven(forecast=(1.0, 1.0), bucket_width=24.0)
    with pytest.raises(DataError, match="forecast covers 2 buckets, horizon needs 4"):
        inject_arrivals(driver, 96.0, stream(0))


def test_inject_poisson_baseline_zero_rate():
    assert inject_arrivals(PoissonBaseline(lam=0.0), 240.0, stream(0)) == []


def test_inject_deterministic_mode_places_at_bucket_starts():
    driver = ForecastDriven(forecast=(1.0,) * 5, bucket_width=24.0, deterministic=True)
    assert inject_arrivals(driver, 120.0, stream(3)) == [0.0, 24.0, 48.0, 72.0, 96.0]


def test_inject_poisson_rate_moment():
    times = inject_arrivals(PoissonBaseline(lam=24.0, bucket_width=24.0), 10_000.0,
                            stream(4))
    assert abs(len(times) - 10_000) <= 3 * math.sqrt(10_000)


def scalar_poisson_arrivals(driver, horizon, rng):
    """Poisson arrivals drawn one ``rng.exponential`` gap at a time."""
    rate = driver.lam / driver.bucket_width
    times, t = [], 0.0
    while rate > 0.0:
        t += rng.exponential(1.0 / rate)
        if t >= horizon:
            break
        times.append(t)
    return times


@settings(max_examples=20, deadline=None)
@given(st.floats(0.5, 60.0), st.floats(1.0, 48.0), st.integers(0, 2**32 - 1))
def test_poisson_arrivals_from_blocks_equal_the_scalar_draws(lam, width, seed):
    driver = PoissonBaseline(lam=lam, bucket_width=width)
    assert inject_arrivals(driver, 3000.0, stream(seed)) == scalar_poisson_arrivals(
        driver, 3000.0, stream(seed))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3), min_size=3,
                max_size=3),
       st.lists(st.booleans(), min_size=3, max_size=3), st.integers(0, 2**32 - 1))
def test_routing_draws_as_draw_cumulative(probs, observed, seed):
    """Routing from block uniforms (blocks of 7) picks what draw_cumulative
    picks from scalar ones; an unobserved row discharges and takes none.
    Each row is scaled to sum to 1, as a transition matrix must."""
    probs = [[p / sum(row) for p in row] if sum(row) > 0 else [0.0, 0.0, 1.0]
             for row in probs]
    matrix = TransitionMatrix(departments=("W", "X"), probs=tuple(map(tuple, probs)),
                              counts=((0, 0, 0),) * 3, row_observed=tuple(observed))
    routing = engine._Routing(matrix, ("W", "X"), {"W": 0, "X": 1})
    uniforms = blocks(stream(seed).random, 7)
    rng = stream(seed)
    for state in [0, 1, 2] * 5:
        j = draw_cumulative(cumulative(probs[state]), rng) if observed[state] else 2
        assert routing.next(state, uniforms) == (j if j < 2 else engine._DISCHARGE)


# --- single runs -----------------------------------------------------------------

def test_run_no_arrivals_conserves_trivially():
    result = run(base_config(arrival_driver=PoissonBaseline(lam=0.0)))
    assert result.admissions == result.discharges == result.in_system == 0
    assert result.avg_census["W"] == 0.0


def test_run_requires_los_model_per_department():
    with pytest.raises(ConfigError, match="department 'X' has no stay-duration model"):
        base_config(departments=(DepartmentSpec("W", None), DepartmentSpec("X", None)))


def test_littles_law_census():
    # L = lambda * W = (10/day) * 3 days = 30 beds
    config = base_config(
        horizon=4800.0,
        warm_up=480.0,
        arrival_driver=PoissonBaseline(lam=10.0, bucket_width=24.0),
        los_models={"W": LognormalFit(mu=math.log(72.0), sigma=0.0, n=10, loglik=0.0)},
    )
    result = run(config)
    assert 29.1 <= result.avg_census["W"] <= 30.9


def test_dd1_queue_waits_exact():
    # one bed, one arrival per day, 48 h service: nth wait is 24(n-1) hours
    config = base_config(
        departments=(DepartmentSpec("W", 1),),
        horizon=600.0,
        arrival_driver=ForecastDriven(
            forecast=(1.0,) * 10 + (0.0,) * 15, bucket_width=24.0, deterministic=True
        ),
        los_models={"W": LognormalFit(mu=math.log(48.0), sigma=0.0, n=10, loglik=0.0)},
        seed=1,
    )
    result = run(config)
    patients = sorted(result.patients, key=lambda p: p.admission_time)
    assert len(patients) == 10
    for i, p in enumerate(patients):
        assert sum(s.wait for s in p.stays) == pytest.approx(24.0 * i, abs=1e-9)


def test_arrival_goes_before_a_stay_end_at_the_same_time():
    """An arrival precedes every event scheduled for the same time, so it
    asks for the bed before the patient whose stay ends then asks again."""
    stay = math.log(12.0)
    assert math.exp(stay) == 12.0  # the stay ends exactly at the next arrival
    config = base_config(
        departments=(DepartmentSpec("W", 1),),
        horizon=40.0,
        arrival_driver=ForecastDriven(forecast=(1.0, 1.0, 0.0, 0.0), bucket_width=12.0,
                                      deterministic=True),
        los_models={"W": LognormalFit(mu=stay, sigma=0.0, n=10, loglik=0.0)},
        pathway=TransitionMatrix(departments=("W",), probs=((1.0, 0.0), (1.0, 0.0)),
                                 counts=((1, 0), (1, 0)), row_observed=(True, True)),
    )
    first, second = run(config).patients
    assert second.admission_time == 12.0
    assert (second.stays[0].request_time, second.stays[0].start_time) == (12.0, 12.0)
    assert (first.stays[1].request_time, first.stays[1].start_time) == (12.0, 24.0)


def test_conservation_exact_with_inflight():
    config = base_config(
        departments=(DepartmentSpec("W", 3),),
        horizon=240.0,
        arrival_driver=PoissonBaseline(lam=24.0, bucket_width=24.0),
        los_models={"W": LognormalFit(mu=math.log(30.0), sigma=0.5, n=10, loglik=0.0)},
        seed=5,
    )
    result = run(config)
    assert result.in_system > 0  # saturated: someone must be stuck at the horizon
    assert result.admissions == result.discharges + result.in_system
    n_disch = sum(1 for p in result.patients if p.discharge_time is not None)
    assert n_disch == result.discharges


def test_capacity_never_exceeded():
    config = base_config(
        departments=(DepartmentSpec("W", 5),),
        horizon=480.0,
        arrival_driver=PoissonBaseline(lam=36.0, bucket_width=24.0),
        seed=6,
    )
    result = run(config)
    assert max(occ for _, occ in result.census["W"]) <= 5
    assert all(sum(s.wait for s in p.stays) >= 0.0 for p in result.patients)


def test_census_times_nondecreasing():
    result = run(base_config(seed=7))
    times = [t for t, _ in result.census["W"]]
    assert times == sorted(times)
    assert times[-1] == 720.0


def test_run_deterministic():
    config = base_config(seed=8)
    assert run(config) == run(config)


def test_zero_stay_admissions_discharge_at_entry():
    # ENTRY can route straight to DISCHARGE; such patients count in the
    # conservation identity with no stays and a sampled cost
    matrix = TransitionMatrix(
        departments=("W",),
        probs=((0.5, 0.5), (0.0, 1.0)),
        counts=((1, 1), (0, 1)),
        row_observed=(True, True),
    )
    result = run(base_config(pathway=matrix, seed=21, horizon=240.0))
    zero_stay = [p for p in result.patients if not p.stays]
    assert zero_stay
    for p in zero_stay:
        assert p.discharge_time == p.admission_time
        assert p.total_cost is not None
    assert result.admissions == result.discharges + result.in_system


def test_pathway_routing_to_unknown_department_rejected():
    matrix = TransitionMatrix(
        departments=("W", "GHOST"),
        probs=((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, 1.0)),
        counts=((0, 1, 0), (0, 0, 1), (0, 0, 1)),
        row_observed=(True, True, True),
    )
    with pytest.raises(ConfigError, match="pathway routes to unknown department 'GHOST'"):
        run(base_config(pathway=matrix, seed=22, horizon=120.0))


def test_walks_are_cut_at_the_walk_cap():
    """ER loops back to ER with probability 1 and stays are short, so a
    patient leaves only when the cap cuts the walk: after exactly WALK_CAP
    stays, one truncated walk each."""
    doc = attribute_sim_config()
    doc["pathway"]["probs"] = [[1.0, 0.0], [1.0, 0.0]]
    doc["los_models"]["ER"]["mu"] = -2.0
    result = run(_read_sim_config(doc, Path("."))[0])
    discharged = ~np.isnan(result.discharge)
    assert len(result.admission) == 100
    assert int(discharged.sum()) == 97
    assert np.diff(result.stay_offset)[discharged].tolist() == [WALK_CAP] * 97
    assert result.truncated_walks == 97


def test_transfers_route_through_second_department():
    config = base_config(
        departments=(DepartmentSpec("W", None), DepartmentSpec("X", None)),
        pathway=two_dept_matrix(0.5),
        los_models={
            "W": LognormalFit(mu=math.log(20.0), sigma=0.2, n=10, loglik=0.0),
            "X": LognormalFit(mu=math.log(20.0), sigma=0.2, n=10, loglik=0.0),
        },
        seed=9,
    )
    result = run(config)
    transferred = [p for p in result.patients if len(p.stays) == 2]
    assert transferred
    for p in transferred:
        assert p.stays[0].department == "W"
        assert p.stays[1].department == "X"
        assert p.stays[1].start_time >= p.stays[0].end_time - 1e-9


def test_warm_up_filtering_matches_post_filter_oracle():
    warm = 240.0
    config_w = base_config(warm_up=warm, seed=10)
    config_0 = base_config(warm_up=0.0, seed=10)
    with_warmup = run(config_w)
    full = run(config_0)
    cohort = [p for p in full.patients if p.admission_time >= warm]
    assert with_warmup.admissions == len(cohort)
    assert with_warmup.discharges == sum(
        1 for p in cohort if p.discharge_time is not None
    )
    # census average over [warm, horizon] recomputed from the full step series
    series = full.census["W"]
    total = 0.0
    for (t0, v), (t1, _) in zip(series, series[1:]):
        lo, hi = max(t0, warm), min(t1, 720.0)
        if hi > lo:
            total += v * (hi - lo)
    assert with_warmup.avg_census["W"] == pytest.approx(total / (720.0 - warm))
    assert with_warmup.patients == full.patients


def test_simulated_stays_reproduce_fitted_model():
    # unbounded beds: simulated stay durations match direct model draws
    rng = stream(99)
    sampler = attr_sampler()
    profiles = Profiles.from_rows([f"T{i}" for i in range(3000)],
                                  [sampler.draw(rng) for _ in range(3000)])
    targets = [float(np.exp(rng.normal(3.0 + 0.01 * age, 0.4))) for age in profiles.age]
    model = fit_conditional(profiles, targets, TARGET_LOS)
    emp = EmpiricalSampler(profiles)
    config = base_config(
        arrival_driver=PoissonBaseline(lam=120.0, bucket_width=24.0),
        los_models={"W": model},
        profile_sampler=emp,
        seed=2,
    )
    result = run(config)
    sim_los = [s.los for p in result.patients for s in p.stays]
    assert len(sim_los) >= 2000
    drng, draw = stream(55), estimators.sampler(model)
    direct = [draw(locations(model, profiles.take([drng.integers(len(profiles))]))[0][0], drng)
              for _ in range(20_000)]
    assert ks_statistic(sim_los, direct) < 0.05


def test_utilization_reported_for_bounded_departments():
    config = base_config(departments=(DepartmentSpec("W", 50),), seed=11)
    result = run(config)
    assert 0.0 < result.utilization["W"] < 1.0
    unbounded = run(base_config(seed=11))
    assert unbounded.utilization["W"] is None


# --- replication ---------------------------------------------------------------------

def test_replicate_single_matches_run():
    config = base_config(seed=12)
    results, summary = replicate(config, census_bucket=24.0)
    assert len(results) == 1
    assert results[0] == run(config, 0)
    expected = bucket_census(results[0].census_times["W"], results[0].census_occupied["W"],
                             24.0, config.horizon)
    assert summary.mean_census_per_bucket["W"] == pytest.approx(tuple(expected))
    assert all(v == 0.0 for v in summary.sd_census_per_bucket["W"])


def test_replicate_same_seed_identical():
    config = base_config(seed=13, replications=2)
    results, _ = replicate(config)
    again, _ = replicate(base_config(seed=13, replications=2))
    assert results == again
    assert results[0] != results[1]  # different sub-streams


def test_replicate_variance_shrinks_with_r():
    config = base_config(seed=3, warm_up=120.0, replications=200)
    results, _ = replicate(config)
    means = np.asarray([r.avg_census["W"] for r in results])
    v5 = np.var([means[i: i + 5].mean() for i in range(0, 200, 5)], ddof=1)
    v20 = np.var([means[i: i + 20].mean() for i in range(0, 200, 20)], ddof=1)
    assert 0.15 <= v20 / v5 <= 0.45


def test_replicate_parallel_identical():
    config = base_config(seed=14, replications=4, horizon=240.0)
    serial, serial_summary = replicate(config, jobs=1)
    parallel, parallel_summary = replicate(config, jobs=2)
    assert serial == parallel
    assert serial_summary == parallel_summary


def test_bucket_census_step_integration():
    series = [(0.0, 0), (10.0, 2), (30.0, 1), (48.0, 1)]
    out = bucket_census(*zip(*series), 24.0, 48.0)
    assert out[0] == pytest.approx((0 * 10 + 2 * 14) / 24.0)
    assert out[1] == pytest.approx((2 * 6 + 1 * 18) / 24.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        base_config(warm_up=720.0)
    with pytest.raises(ConfigError):
        base_config(replications=0)


def test_replications_are_capped():
    base_config(replications=engine.REPLICATIONS_MAX)
    with pytest.raises(ConfigError, match="replications must lie in"):
        base_config(replications=engine.REPLICATIONS_MAX + 1)


@pytest.mark.parametrize("jobs, replications, cpus, workers", [
    (8, 10, 2, 2), (4, 10, 1, None), (4, 5, 8, 3), (3, 7, 8, 3), (4, 2, 8, 2),
    (2, 1, 8, None), (1, 4, 8, None), (2, 4, 1, None),
])
def test_pool_starts_one_worker_per_chunk_and_at_most_one_per_cpu(
        monkeypatch, jobs, replications, cpus, workers):
    """The children a fake records: ``None`` means the replications ran in
    this process. Each child runs one chunk of ceil(R / W) replications, in
    order. Results are those of the serial run. ``cpus`` is the number this
    process may use of a machine's 8."""
    monkeypatch.setattr(engine, "_Child", InProcessChild)
    monkeypatch.setattr(InProcessChild, "started", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    config = base_config(seed=31, horizon=120.0, replications=replications)
    results, summary = replicate(config, jobs=jobs)
    if workers is None:
        assert InProcessChild.started == []
    else:
        chunk = math.ceil(replications / workers)
        assert InProcessChild.started == [range(i, min(i + chunk, replications))
                                          for i in range(0, replications, chunk)]
        assert len(InProcessChild.started) == workers
    assert (results, summary) == replicate(replace(config), jobs=1)


def test_replicate_runs_in_process_where_fork_is_unsafe(monkeypatch):
    """Without a safe fork (Windows, macOS), ``--jobs 2`` starts no child
    and gives the ``--jobs 1`` results."""
    monkeypatch.setattr(engine, "FORK_SAFE", False)
    monkeypatch.setattr(engine, "_Child", InProcessChild)
    monkeypatch.setattr(InProcessChild, "started", [])
    monkeypatch.setattr(engine, "usable_cpus", lambda: 8)
    config = base_config(seed=31, horizon=120.0, replications=4)
    assert replicate(config, jobs=2) == replicate(replace(config), jobs=1)
    assert InProcessChild.started == []


def busy_config(replications):
    """A config whose every chunk of two replications pickles to more than a
    pipe's 64 KiB buffer, so a child blocks in its write until the parent
    reads its pipe."""
    config = base_config(seed=5, horizon=720.0, replications=replications,
                         arrival_driver=PoissonBaseline(lam=60.0, bucket_width=24.0))
    assert len(pickle.dumps([run(config, r) for r in range(2)])) > 65536
    return config


def test_two_forked_children_send_their_chunks_in_order(monkeypatch):
    """Two real children, each with a chunk of two replications, give the
    serial results in order. Each pipe's write end is closed in the parent
    right after its fork: were the second child to inherit the first
    pipe's, the parent would wait for the first pipe's end while the second
    child waited, in its write, for the parent to read it."""
    monkeypatch.setattr(engine, "usable_cpus", lambda: 2)
    config = busy_config(4)
    with time_limit(60):
        results, summary = replicate(config, jobs=2)
    assert [r.replication for r in results] == [0, 1, 2, 3]
    assert (results, summary) == replicate(replace(config), jobs=1)


def test_a_worker_that_dies_is_named_by_its_exit_status(monkeypatch):
    """The child of the first chunk ends in replication 0 without sending
    anything; ``replicate`` says so and leaves no child behind."""
    real_run = engine.run

    def dying_run(config, replication=0):
        if replication == 0:
            os._exit(3)
        return real_run(config, replication)

    monkeypatch.setattr(engine, "usable_cpus", lambda: 2)
    config = busy_config(4)
    monkeypatch.setattr(engine, "run", dying_run)
    with time_limit(60), pytest.raises(RuntimeError, match=(
            "worker running replications 0 to 1 ended with exit status 3")):
        replicate(config, jobs=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("chunk, named", [(0, "0 to 1"), (1, "2 to 3")])
def test_a_worker_that_dies_inside_its_pickle_is_one_error(monkeypatch, chunk, named):
    """The child of one chunk writes half of its pickle and exits with
    status 3. The parent's unpickling runs out of data: ``replicate``
    raises one ``RuntimeError`` naming that worker, and leaves no child
    behind, also when the other child is still blocked in its write."""
    real_run, real_open = engine.run, open
    ran = []  # in a child: the replications it has run

    def recording_run(config, replication=0):
        ran.append(replication)
        return real_run(config, replication)

    class HalfWriter:
        def __init__(self, file):
            self.file = file

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def write(self, data):
            if ran[0] // 2 != chunk:
                return self.file.write(data)
            self.file.write(data[:len(data) // 2])
            self.file.flush()
            os._exit(3)

    def half_open(fd, mode="r"):
        file = real_open(fd, mode)
        return HalfWriter(file) if mode == "wb" else file

    monkeypatch.setattr(engine, "usable_cpus", lambda: 2)
    config = busy_config(4)
    monkeypatch.setattr(engine, "run", recording_run)
    monkeypatch.setattr(engine, "open", half_open, raising=False)
    with time_limit(60), pytest.raises(RuntimeError, match=(
            f"worker running replications {named} ended with exit status 3 "
            "before it sent its results")):
        replicate(config, jobs=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_usable_cpus_is_the_cpu_count_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert engine.usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert engine.usable_cpus() == 1


def test_attribute_sampler_matches_generator_profiles(default_generator):
    config = default_generator
    sampler = AttributeSampler(config.age_mix, config.gender_p,
                               config.comorbidity_rate_by_age[1], config.drg_probs)
    rng_a, rng_b = stream(41), stream(41)
    for _ in range(300):
        assert sampler.draw(rng_a) == config.samplers[1].draw(rng_b)


# --- columnar results -------------------------------------------------------------

def capped_config(**overrides):
    """Two capped departments, transfers both ways, discharges at entry."""
    matrix = TransitionMatrix(
        departments=("W", "X"),
        probs=((0.9, 0.0, 0.1), (0.0, 0.5, 0.5), (0.2, 0.0, 0.8)),
        counts=((9, 0, 1), (0, 5, 5), (2, 0, 8)),
        row_observed=(True, True, True),
    )
    defaults = dict(
        departments=(DepartmentSpec("W", 3), DepartmentSpec("X", 5)),
        horizon=240.0,
        warm_up=24.0,
        arrival_driver=PoissonBaseline(lam=18.0, bucket_width=24.0),
        los_models={"W": LognormalFit(mu=1.5, sigma=0.5, n=10, loglik=0.0),
                    "X": LognormalFit(mu=3.0, sigma=0.4, n=10, loglik=0.0)},
        pathway=matrix,
        replications=3,
    )
    defaults.update(overrides)
    return base_config(**defaults)


def test_replicate_capped_jobs_give_equal_columns():
    config = capped_config(seed=31)
    serial, serial_summary = replicate(config, jobs=1)
    parallel, parallel_summary = replicate(config, jobs=2)
    assert serial_summary == parallel_summary
    for a, b in zip(serial, parallel, strict=True):
        assert a == b
        for name in ("admission", "discharge", "cost", "cluster", "stay_offset",
                     "stay_department", "stay_request", "stay_start", "stay_end"):
            assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
        for dept in a.departments:
            assert np.array_equal(a.census_times[dept], b.census_times[dept])
            assert np.array_equal(a.census_occupied[dept], b.census_occupied[dept])
    assert any(np.any(r.stay_start > r.stay_request) for r in serial)  # beds ran out


def test_patients_view_matches_columns():
    result = run(capped_config(seed=32))
    patients = result.patients
    assert len(patients) == len(result.admission)
    assert patients[-1] == list(patients)[-1]
    stays = [s for p in patients for s in p.stays]
    assert [s.start_time for s in stays] == result.stay_start.tolist()
    assert sum(p.discharge_time is None for p in patients) == np.isnan(result.discharge).sum()
    with pytest.raises(IndexError):
        patients[len(patients)]


@st.composite
def small_capped_configs(draw):
    names = ("A", "B", "C")[:draw(st.integers(1, 3))]
    weight = st.floats(0.0, 1.0)

    def row(discharge_floor):
        weights = [draw(weight) for _ in names] + [draw(st.floats(discharge_floor, 1.0))]
        total = sum(weights)
        if total == 0.0:
            return (0.0,) * len(names) + (1.0,)
        return tuple(w / total for w in weights)

    n = len(names) + 1
    matrix = TransitionMatrix(
        departments=names,
        probs=tuple(row(0.0 if i == 0 else 0.1) for i in range(n)),
        counts=((0,) * n,) * n,
        row_observed=(True,) * n,
    )
    horizon = draw(st.floats(24.0, 240.0))
    return capped_config(
        departments=tuple(DepartmentSpec(d, draw(st.integers(1, 6))) for d in names),
        horizon=horizon,
        warm_up=draw(st.floats(0.0, 0.5)) * horizon,
        arrival_driver=PoissonBaseline(lam=draw(st.floats(1.0, 40.0)), bucket_width=24.0),
        los_models={d: LognormalFit(mu=draw(st.floats(0.0, 3.5)), sigma=0.5, n=10,
                                    loglik=0.0) for d in names},
        pathway=matrix,
        seed=draw(st.integers(0, 2**32 - 1)),
        replications=1,
    )


@st.composite
def tie_heavy_configs(draw):
    """Capped configs whose events fall at equal times: deterministic
    arrivals evenly spaced from each bucket start, constant whole-hour
    stays, gamma stays that underflow to 0.0, and self-loops."""
    names = ("A", "B")[:draw(st.integers(1, 2))]
    # a stay of exactly h hours (math.exp(math.log(h)) == h for each), or
    # None: a gamma stay, which mostly underflows to 0.0
    stay = st.sampled_from([1, 2, 4, 6, 12, None]).map(
        lambda h: GammaFit(shape=1e-3, scale=24.0, n=10, loglik=0.0) if h is None
        else LognormalFit(mu=math.log(h), sigma=0.0, n=10, loglik=0.0))
    weight = st.sampled_from([0.0, 0.5, 1.0])

    def row(i):
        weights = [draw(weight) for _ in names] + [draw(st.sampled_from([0.25, 1.0]))]
        if i:
            weights[i - 1] = draw(st.sampled_from([0.5, 1.0]))  # a self-loop
        elif not any(weights[:-1]):
            weights[0] = 1.0  # every arrival is admitted somewhere
        return tuple(w / sum(weights) for w in weights)

    n = len(names) + 1
    matrix = TransitionMatrix(departments=names, probs=tuple(row(i) for i in range(n)),
                              counts=((0,) * n,) * n, row_observed=(True,) * n)
    width = float(draw(st.sampled_from([1, 2, 6, 12])))
    buckets = draw(st.integers(4, 24))
    return capped_config(
        departments=tuple(DepartmentSpec(d, draw(st.integers(1, 2))) for d in names),
        horizon=buckets * width,
        warm_up=0.0,
        arrival_driver=ForecastDriven(
            forecast=tuple(float(draw(st.integers(1, 6))) for _ in range(buckets)),
            bucket_width=width, deterministic=True),
        los_models={d: draw(stay) for d in names},
        pathway=matrix,
        seed=draw(st.integers(0, 2**32 - 1)),
        replications=1,
    )


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_capped_configs(), tie_heavy_configs()))
def test_capped_runs_conserve_bound_and_queue_fifo(config):
    result = run(config)
    cohort = result.admission >= result.warm_up
    assert result.admissions == np.count_nonzero(cohort)
    assert result.discharges == np.count_nonzero(cohort & ~np.isnan(result.discharge))
    assert result.admissions == result.discharges + result.in_system
    for spec in config.departments:
        occupied = result.census_occupied[spec.name]
        assert occupied.min() >= 0 and occupied.max() <= spec.bed_capacity
    for index, name in enumerate(result.departments):
        here = result.stay_department == index
        waited = here & (result.stay_start > result.stay_request)
        order = np.lexsort((result.stay_start[waited], result.stay_request[waited]))
        starts = result.stay_start[waited][order]
        assert np.all(np.diff(starts) >= 0.0), name


# --- the loop that made bed requests events --------------------------------------------

def reference_run(config, replication=0):
    """The event loop that made every bed request an event at ``now``,
    behind every event already scheduled for ``now``, and that routed a
    leaving patient before it granted the freed bed. It returns per
    patient a dict of admission, discharge, cost, cluster and stays (each
    (department, request, start, end)), the census steps per department,
    the truncated walks and the unseen levels."""
    tables = config.tables
    arrivals = inject_arrivals(config.arrival_driver, config.horizon,
                               stream(config.seed, replication, 0))
    profiles = iter(tables.arrival_profiles(stream(config.seed, replication, 1),
                                            len(arrivals)))
    uniforms = blocks(stream(config.seed, replication, 2).random)
    stays = tables.stay_source(stream(config.seed, replication, 3))
    costs = tables.cost_source(stream(config.seed, replication, 4))
    capacity = tables.capacity
    occupied = [0] * len(capacity)
    queues = [deque() for _ in capacity]
    census = [[(0.0, 0)] for _ in capacity]
    patients = []
    totals = {"truncated": 0, "unseen": 0}
    heap, seq = [], count()
    arrival_kind, seize_kind, stay_end_kind = 0, 1, 2

    def start_stay(patient, d, now):
        occupied[d] += 1
        census[d].append((now, occupied[d]))
        entry = patient["entry"]
        los = tables.stay_draw[d](entry.loc[d], next(stays))
        totals["unseen"] += entry.unseen[d]
        patient["stays"].append((d, patient["request"], now, now + los))
        heapq.heappush(heap, (now + los, next(seq), stay_end_kind, patient, d))

    def route(patient, state, now):
        entry = patient["entry"]
        nxt = entry.routing.next(state, uniforms)
        if nxt != engine._DISCHARGE and len(patient["stays"]) >= WALK_CAP:
            totals["truncated"] += 1
            nxt = engine._DISCHARGE
        if nxt == engine._DISCHARGE:
            patient["discharge"] = now
            patient["cost"] = tables.cost_draw(entry.loc[-1], next(costs))
            totals["unseen"] += entry.unseen[-1]
        else:
            patient["request"] = now
            heapq.heappush(heap, (now, next(seq), seize_kind, patient, nxt))

    pending = iter(arrivals)
    arrival = next(pending, math.inf)
    while heap or arrival < math.inf:
        if heap and heap[0][0] < arrival:
            time, _, kind, patient, d = heapq.heappop(heap)
        else:
            time, kind = arrival, arrival_kind
            arrival = next(pending, math.inf)
        if time >= config.horizon:
            break
        if kind == arrival_kind:
            entry = next(profiles)
            patient = dict(entry=entry, admission=time, discharge=math.nan, cost=math.nan,
                           cluster=entry.cluster, stays=[])
            patients.append(patient)
            route(patient, 0, time)
        elif kind == seize_kind:
            if capacity[d] is None or occupied[d] < capacity[d]:
                start_stay(patient, d, time)
            else:
                queues[d].append(patient)
        else:
            occupied[d] -= 1
            census[d].append((time, occupied[d]))
            route(patient, 1 + d, time)
            if queues[d] and (capacity[d] is None or occupied[d] < capacity[d]):
                start_stay(queues[d].popleft(), d, time)
    for d, steps in enumerate(census):
        steps.append((config.horizon, occupied[d]))
    return patients, census, totals


@st.composite
def tie_free_configs(draw):
    """``small_capped_configs``, with some departments unbounded and some
    stays gamma, which the scalar path draws."""
    config = draw(small_capped_configs())
    gamma = st.builds(GammaFit, shape=st.floats(0.5, 4.0), scale=st.floats(0.5, 12.0),
                      n=st.just(10), loglik=st.just(0.0))
    return replace(
        config,
        departments=tuple(DepartmentSpec(d.name, draw(st.sampled_from([d.bed_capacity, None])))
                          for d in config.departments),
        los_models={name: draw(st.one_of(st.just(model), gamma))
                    for name, model in config.los_models.items()})


@settings(max_examples=60, deadline=None)
@given(tie_free_configs())
def test_run_equals_the_loop_that_made_requests_events(config):
    """Without equal-time events, serving a bed request inside the event
    that makes it changes nothing."""
    result = run(config)
    patients, census, totals = reference_run(config)
    for name in ("admission", "discharge", "cost", "cluster"):
        assert np.array_equal(getattr(result, name), [p[name] for p in patients],
                              equal_nan=True), name
    assert np.diff(result.stay_offset).tolist() == [len(p["stays"]) for p in patients]
    assert list(zip(result.stay_department.tolist(), result.stay_request.tolist(),
                    result.stay_start.tolist(), result.stay_end.tolist())) == [
        s for p in patients for s in p["stays"]]
    assert result.census == {name: tuple(steps)
                             for name, steps in zip(result.departments, census)}
    assert (result.truncated_walks, result.unseen_levels) == (totals["truncated"],
                                                              totals["unseen"])


def test_an_arrival_at_a_stay_end_is_served_before_the_stay_ends():
    """A bed request is served at once: the arrival at 12 h takes its bed
    before the stay that ends at 12 h frees one."""
    config = base_config(
        horizon=40.0,
        arrival_driver=ForecastDriven(forecast=(1.0, 1.0, 0.0, 0.0), bucket_width=12.0,
                                      deterministic=True),
        los_models={"W": LognormalFit(mu=math.log(12.0), sigma=0.0, n=10, loglik=0.0)},
    )
    assert run(config).census["W"] == ((0.0, 0), (0.0, 1), (12.0, 2), (12.0, 1),
                                       (24.0, 0), (40.0, 0))


def test_stay_ends_at_one_time_run_in_the_order_their_beds_were_granted():
    """Patient 1 arrives at 6 h to a full W and takes its bed at 12 h,
    granted before patient 0 routes on to X; both 12 h stays end at 24 h.
    The W stay, granted first, ends first, so patient 1 reaches X while
    patient 0 is still there."""
    twelve = LognormalFit(mu=math.log(12.0), sigma=0.0, n=10, loglik=0.0)
    config = base_config(
        departments=(DepartmentSpec("W", 1), DepartmentSpec("X", None)),
        horizon=48.0,
        arrival_driver=ForecastDriven(forecast=(2.0, 0.0, 0.0, 0.0), bucket_width=12.0,
                                      deterministic=True),
        los_models={"W": twelve, "X": twelve},
        pathway=two_dept_matrix(1.0),
    )
    result = run(config)
    assert result.census == {
        "W": ((0.0, 0), (0.0, 1), (12.0, 0), (12.0, 1), (24.0, 0), (48.0, 0)),
        "X": ((0.0, 0), (12.0, 1), (24.0, 2), (24.0, 1), (36.0, 0), (48.0, 0)),
    }
    assert [[(s.department, s.request_time, s.start_time, s.end_time) for s in p.stays]
            for p in result.patients] == [
        [("W", 0.0, 0.0, 12.0), ("X", 12.0, 12.0, 24.0)],
        [("W", 6.0, 12.0, 24.0), ("X", 24.0, 24.0, 36.0)],
    ]


def test_a_patient_back_into_a_full_department_queues_behind_its_head():
    """Patient 1 waits for W's one bed from 6 h. At 12 h patient 0 leaves
    W and asks for W again: the queue head's request comes first and
    takes the freed bed, so patient 0 joins the back of the queue, and
    the two swap the bed every 12 h."""
    config = base_config(
        departments=(DepartmentSpec("W", 1),),
        horizon=40.0,
        arrival_driver=ForecastDriven((2.0, 0.0, 0.0, 0.0), 12.0, deterministic=True),
        los_models={"W": LognormalFit(mu=math.log(12.0), sigma=0.0, n=10, loglik=0.0)},
        pathway=TransitionMatrix(departments=("W",), probs=((1.0, 0.0), (1.0, 0.0)),
                                 counts=((1, 0), (1, 0)), row_observed=(True, True)),
    )
    result = run(config)
    assert result.census["W"] == ((0.0, 0), (0.0, 1), (12.0, 0), (12.0, 1), (24.0, 0),
                                  (24.0, 1), (36.0, 0), (36.0, 1), (40.0, 1))
    assert [[(s.department, s.request_time, s.start_time, s.end_time) for s in p.stays]
            for p in result.patients] == [
        [("W", 0.0, 0.0, 12.0), ("W", 12.0, 24.0, 36.0)],
        [("W", 6.0, 12.0, 24.0), ("W", 24.0, 36.0, 48.0)],
    ]


# --- census buckets -------------------------------------------------------------------

def reference_bucket_census(series, width, horizon):
    """The census bucketing written as a loop over the pieces of each step."""
    nb = int(math.ceil(horizon / width - 1e-9))
    acc = [0.0] * nb
    for (t0, v), (t1, _) in zip(series, series[1:]):
        lo, hi = max(t0, 0.0), min(t1, horizon)
        k = min(int(lo // width), nb - 1)
        while lo < hi - 1e-12:
            edge = hi if k == nb - 1 else min((k + 1) * width, hi)
            acc[k] += v * (edge - lo)
            lo = edge
            k += 1
    return [acc[k] / (min((k + 1) * width, horizon) - k * width) for k in range(nb)]


@pytest.mark.parametrize("width, horizon", [
    (0.1, 100.0), (0.3, 100.0), (0.7, 100.0), (1.1, 100.0), (24.0, 240.0000000001),
    (1e12, 100.0),
])
def test_bucket_census_returns_for_any_width(width, horizon):
    rng = stream(51)
    for times in ([0.0, 100.0, horizon],
                  [0.0, *np.sort(rng.uniform(0.0, horizon, 40)).tolist(), horizon]):
        values = [1] + rng.integers(0, 6, len(times) - 1).tolist()
        with time_limit(5):
            out = bucket_census(times, values, width, horizon)
        edge = np.arange(len(out))
        areas = out * (np.minimum((edge + 1) * width, horizon) - edge * width)
        integral = float(np.sum(np.asarray(values[:-1]) * np.diff(times)))
        assert float(np.sum(areas)) == pytest.approx(integral, rel=1e-9)


@pytest.mark.parametrize("horizon", [240.0, 250.5, 1.0])
def test_bucket_census_whole_widths_keep_their_bits(horizon):
    rng = stream(52)
    for trial in range(40):
        width = float(rng.choice([1.0, 24.0, 168.0]))
        times = np.sort(rng.uniform(0.0, 1.2 * horizon, int(rng.integers(1, 60))))
        if trial % 2:  # steps on bucket edges and slivers next to them
            times = np.sort(np.concatenate([times, np.arange(0.0, horizon, width) + 1e-13]))
        times = np.concatenate([[0.0], times, [horizon]])
        values = rng.integers(0, 9, len(times))
        series = list(zip(times.tolist(), values.tolist()))
        expected = reference_bucket_census(series, width, horizon)
        assert bucket_census(times, values, width, horizon).tolist() == expected


def quotient_bucket_census(times, values, width, horizon):
    """``bucket_census`` as it found each step's last bucket before the
    edge search: from the quotient, corrected one bucket at a time until
    ``k * width < hi - 1e-12 <= (k + 1) * width``."""
    nb = engine.census_buckets(width, horizon)
    t = np.asarray(times, dtype=float)
    lo = np.maximum(t[:-1], 0.0)
    hi = np.minimum(t[1:], horizon)
    keep = lo < hi - 1e-12
    lo, hi = lo[keep], hi[keep]
    v = np.asarray(values, dtype=float)[:-1][keep]
    first = np.minimum(lo // width, nb - 1).astype(np.int64)
    bound = hi - 1e-12
    last = np.ceil(bound / width).astype(np.int64) - 1
    while True:
        down = last * width >= bound
        up = (last + 1) * width < bound
        if not (down.any() or up.any()):
            break
        last += up.astype(np.int64) - down
    last = np.clip(last, first, nb - 1)
    counts = last - first + 1
    step = np.repeat(np.arange(len(lo)), counts)
    k = np.arange(len(step)) - np.repeat(np.cumsum(counts) - counts, counts) + first[step]
    start = np.where(k == first[step], lo[step], k * width)
    last_end = np.where(last < nb - 1, np.minimum((last + 1) * width, hi), hi)
    end = np.where(k == last[step], last_end[step], (k + 1) * width)
    acc = np.bincount(k, weights=v[step] * (end - start), minlength=nb)
    edge = np.arange(nb)
    return acc / (np.minimum((edge + 1) * width, horizon) - edge * width)


@st.composite
def census_series(draw):
    """(times, values, width, horizon): widths that do not divide the
    horizon and ones that do, steps past either end of [0, horizon), and
    steps on bucket edges or a sliver away from them."""
    width = draw(st.one_of(st.sampled_from([0.1, 0.3, 0.7, 1.1, 1.0, 24.0, 168.0]),
                           st.floats(0.01, 300.0)))
    horizon = draw(st.one_of(st.sampled_from([240.0, 240.0000000001, 250.5, 100.0, 1.0]),
                             st.floats(0.5, 500.0)))
    rng = stream(draw(st.integers(0, 2**32 - 1)))
    times = rng.uniform(-0.1 * horizon, 1.2 * horizon, draw(st.integers(0, 40)))
    edges = np.arange(0.0, horizon, width)[:50]
    for shift in draw(st.lists(st.sampled_from([0.0, 1e-13, -1e-13, 1e-12, 2e-12]),
                               max_size=3)):
        times = np.concatenate([times, edges + shift])
    times = np.concatenate([[0.0], np.sort(times), [horizon]])
    return times, rng.integers(0, 9, len(times)), width, horizon


@settings(max_examples=300, deadline=None)
@given(census_series())
def test_bucket_census_edge_search_keeps_the_bits_of_the_quotient_loop(series):
    times, values, width, horizon = series
    assert (bucket_census(times, values, width, horizon).tobytes()
            == quotient_bucket_census(times, values, width, horizon).tobytes())


# --- compiled configuration ----------------------------------------------------------

def new_drg_sampler():
    """Profiles whose DRG no model was fitted on."""
    return AttributeSampler(AgeMixture(1.0, 55.0, 12.0, 55.0, 12.0), 0.5,
                            LinearRate(1.0, 0.1), {"NEW": 1.0})


def test_unseen_levels_counted_per_replication():
    rng = stream(53)
    profiles = Profiles.from_rows(
        [f"P{i}" for i in range(80)],
        [(int(rng.integers(20, 90)), ("F", "M")[i % 2], int(rng.integers(0, 5)),
          ("GEN", "CARD")[i % 3 == 0]) for i in range(80)])
    los = fit_conditional(profiles, rng.uniform(2.0, 30.0, len(profiles)), TARGET_LOS)
    cot = fit_conditional(profiles, rng.uniform(100.0, 900.0, len(profiles)), TARGET_COT)
    config = capped_config(seed=54, los_models={"W": los, "X": los}, cot_model=cot,
                           profile_sampler=new_drg_sampler())
    serial, _ = replicate(config, jobs=1)
    parallel, _ = replicate(config, jobs=2)
    for result in serial:
        # one unseen DRG per stay draw and per cost draw
        cost_draws = np.count_nonzero(~np.isnan(result.discharge))
        assert result.unseen_levels == len(result.stay_start) + cost_draws > 0
    assert [r.unseen_levels for r in parallel] == [r.unseen_levels for r in serial]


@pytest.fixture(scope="module")
def learned_config(default_generator):
    """Three capped departments with conditional and tree stay models, a
    conditional cost model, clustered pathways and an empirical pool."""
    oracle = generate(GeneratorConfig.from_dict({**codec.document(default_generator),
                                                 "horizon": 240.0}))
    log, profiles = oracle.log, oracle.profiles
    stays = {}
    for d in log.departments:
        rows = log.in_department(d)
        stays[d] = (profiles.take(log.patient[rows]), log.los[rows].tolist())
    costs = np.bincount(log.patient, weights=log.cost, minlength=len(profiles))
    trajectories = extract_trajectories(log, profiles)
    return SimConfig(
        departments=(DepartmentSpec("ER", 25), DepartmentSpec("ICU", 4),
                     DepartmentSpec("WARD", 10)),
        horizon=240.0,
        warm_up=0.0,
        arrival_driver=PoissonBaseline(lam=24.0, bucket_width=24.0),
        los_models={"ER": fit_conditional(*stays["ER"], TARGET_LOS),
                    "ICU": fit_conditional(*stays["ICU"], TARGET_LOS),
                    "WARD": fit_tree(*stays["WARD"], max_depth=3)},
        cot_model=fit_conditional(profiles, costs.tolist(), TARGET_COT),
        pathway=cluster(trajectories, 2, 5, profiles.take(trajectories.patient)),
        profile_sampler=EmpiricalSampler(profiles.take(np.arange(60))),
        seed=55,
        replications=4,
    )


def test_per_profile_work_is_done_once_per_attribute_tuple(learned_config, monkeypatch):
    calls = {"encode": 0, "assign": 0}  # profiles encoded and assigned
    encode, assign = FeatureSpec.encode_all, engine.assign_all

    def counted_encode(self, profiles, *args, **kwargs):
        calls["encode"] += len(profiles)
        return encode(self, profiles, *args, **kwargs)

    def counted_assign(profiles, *args, **kwargs):
        calls["assign"] += len(profiles)
        return assign(profiles, *args, **kwargs)

    monkeypatch.setattr(FeatureSpec, "encode_all", counted_encode)
    monkeypatch.setattr(engine, "assign_all", counted_assign)
    config = replace(learned_config)  # a copy compiles afresh
    results, _ = replicate(config)
    tuples = len(set(config.profile_sampler.profiles.keys()))
    draws = sum(len(r.stay_start) + len(r.admission) for r in results)
    assert draws > 10 * tuples  # the bound below is far from the per-draw count
    assert calls["encode"] <= 3 * tuples  # three conditional models
    assert calls["assign"] <= tuples


def test_learned_models_replicate_identically_across_jobs(learned_config):
    serial, serial_summary = replicate(learned_config, jobs=1)
    parallel, parallel_summary = replicate(learned_config, jobs=2)
    assert serial == parallel
    assert serial_summary == parallel_summary
    assert any(np.any(r.stay_start > r.stay_request) for r in serial)
    assert set(np.concatenate([r.cluster for r in serial]).tolist()) == {0, 1}


# ways to give one stream draws that mix kinds, which it then takes as
# scalar calls; every other engine stream stays block-drawn
SCALAR_STREAMS = {
    "stays": lambda c: replace(c, los_models={**c.los_models,
                                              "ICU": GammaFit(2.0, 20.0, 10, 0.0)}),
    "cost": lambda c: replace(c, cot_model=WeibullFit(1.3, 900.0, 10, 0.0)),
    "profiles": lambda c: replace(c, profile_sampler=attr_sampler()),
    "arrivals": lambda c: replace(c, arrival_driver=ForecastDriven((30.0,) * 10, 24.0)),
}


@settings(max_examples=8, deadline=None)
@given(st.sets(st.sampled_from(sorted(SCALAR_STREAMS)), min_size=1, max_size=2),
       st.integers(0, 2**32 - 1), st.tuples(st.integers(5, 30), st.integers(1, 6),
                                            st.integers(2, 12)),
       st.floats(48.0, 240.0), st.integers(2, 3))
def test_replicate_is_invariant_under_jobs(learned_config, scalar, seed, beds, horizon,
                                           replications):
    """Clustered pathways and conditional stays, block-drawn routing and
    at least one scalar stream: jobs=1 and jobs=2 give equal results."""
    config = replace(learned_config, seed=seed, horizon=horizon, replications=replications,
                     departments=tuple(DepartmentSpec(d.name, b) for d, b in
                                       zip(learned_config.departments, beds)))
    for name in sorted(scalar):
        config = SCALAR_STREAMS[name](config)
    serial, serial_summary = replicate(config, jobs=1)
    parallel, parallel_summary = replicate(config, jobs=2)
    assert serial == parallel
    assert serial_summary == parallel_summary


def test_model_reading_other_than_profile_attributes_rejected():
    with pytest.raises(ConfigError, match="'patient_id' is not a categorical profile"):
        CategoricalFeature("patient_id", ("a", "b"))

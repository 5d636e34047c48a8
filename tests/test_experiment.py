import json
import weakref
from collections import namedtuple

import numpy as np
import pytest

from patientflow import codec, engine, experiment, inflow
from patientflow.domain import admission_times, bucketize
from patientflow.engine import ReplicationSummary, bucket_census
from patientflow.errors import ConfigError, DataError
from patientflow.experiment import (
    STACK_A,
    STACK_B,
    ScenarioConfig,
    census_error,
    generator_class_matrix,
    model_fingerprint,
    run_experiment,
    truth_census_steps,
)
from patientflow.seeding import stream

from conftest import make_log


def small_scenario_dict(default_scenario_dict, **overrides):
    d = json.loads(json.dumps(default_scenario_dict))
    d["generator"]["horizon"] = 1008.0
    d["generator"]["base_rate"] = 4.0
    d["generator"]["seed"] = 1234
    d["split_fraction"] = 2.0 / 3.0
    d["replications"] = 2
    d.update(overrides)
    return d


Stay = namedtuple("Stay", "patient_id department enter_time exit_time cost")


def entry(pid, dept, enter, exit_):
    return Stay(pid, dept, enter, exit_, 10.0)


def log_of(entries):
    return make_log(entries)[0]


# --- ground-truth census --------------------------------------------------------

def step_pairs(census):
    """The (time, occupied) pairs of a census step series."""
    times, occupied = census
    return list(zip(times.tolist(), occupied.tolist()))


def test_truth_census_matches_brute_force():
    rng = stream(1)
    entries = []
    for i in range(300):
        start = float(rng.uniform(0.0, 400.0))
        entries.append(entry(f"P{i}", "W", start, start + float(rng.uniform(1.0, 80.0))))
    steps = step_pairs(truth_census_steps(log_of(entries), "W", 50.0, 450.0))

    def census_at(t_abs):
        return sum(1 for e in entries
                   if e.enter_time <= t_abs < e.exit_time and e.department == "W")

    def step_value(t_rel):
        value = 0
        for ts, occ in steps:
            if ts <= t_rel:
                value = occ
            else:
                break
        return value

    for t_abs in rng.uniform(50.0, 450.0, size=200):
        t_abs = float(t_abs)
        # clip to the window exactly as the sweep line does
        expected = sum(
            1 for e in entries
            if max(e.enter_time, 50.0) <= t_abs < min(e.exit_time, 450.0)
            and e.department == "W"
        )
        assert step_value(t_abs - 50.0) == expected


def test_truth_census_boundary_identity():
    entries = [entry("A", "W", 0.0, 10.0), entry("B", "W", 5.0, 15.0)]
    steps = step_pairs(truth_census_steps(log_of(entries), "W", 0.0, 20.0))
    # at every boundary: entries so far minus exits so far
    assert (5.0, 2) in steps
    assert (10.0, 1) in steps
    assert (15.0, 0) in steps


def test_truth_census_exits_come_first_at_equal_times():
    entries = [entry("A", "W", 0.0, 10.0), entry("B", "W", 10.0, 20.0)]
    steps = step_pairs(truth_census_steps(log_of(entries), "W", 0.0, 30.0))
    assert steps == [(0.0, 0), (0.0, 1), (10.0, 0), (10.0, 1), (20.0, 0), (30.0, 0)]


def test_truth_census_rejects_empty_window():
    with pytest.raises(DataError, match="empty census window"):
        truth_census_steps(log_of([]), "W", 10.0, 10.0)


def summary_for(curves, width, horizon):
    return ReplicationSummary(
        census_bucket_width=width,
        horizon=horizon,
        replications=1,
        per_replication=(),
        mean_census_per_bucket=curves,
        sd_census_per_bucket={k: tuple(0.0 for _ in v) for k, v in curves.items()},
        mean_avg_census={k: float(np.mean(v)) for k, v in curves.items()},
        mean_utilization={k: 0.0 for k in curves},
    )


def test_census_error_zero_when_identical():
    rng = stream(2)
    entries = []
    for i in range(100):
        start = float(rng.uniform(100.0, 300.0))
        entries.append(entry(f"P{i}", "W", start, start + float(rng.uniform(1.0, 50.0))))
    truth_curve = bucket_census(*truth_census_steps(log_of(entries), "W", 100.0, 340.0),
                                24.0, 240.0)
    summary = summary_for({"W": tuple(truth_curve)}, 24.0, 240.0)
    errors = census_error(summary, {"W": truth_curve})
    assert errors["W"] == pytest.approx(0.0, abs=1e-12)


def test_census_error_constant_offset():
    rng = stream(3)
    entries = []
    for i in range(100):
        start = float(rng.uniform(100.0, 300.0))
        entries.append(entry(f"P{i}", "W", start, start + float(rng.uniform(1.0, 50.0))))
    truth_curve = bucket_census(*truth_census_steps(log_of(entries), "W", 100.0, 340.0),
                                24.0, 240.0)
    offset = tuple(v + 2.0 for v in truth_curve)
    summary = summary_for({"W": offset}, 24.0, 240.0)
    errors = census_error(summary, {"W": truth_curve})
    assert errors["W"] == pytest.approx(2.0, abs=1e-12)


# --- generator chain as a TransitionMatrix ----------------------------------------

def test_generator_class_matrix_layout(default_generator):
    m = generator_class_matrix(default_generator, 1)
    assert m.departments == tuple(sorted(default_generator.departments))
    entry_row = m.probs[0]  # the ENTRY row
    idx = m.departments.index(default_generator.entry_department)
    assert entry_row[idx] == 1.0
    assert sum(entry_row) == pytest.approx(1.0)
    # severe class sends ER patients to ICU with probability 0.92
    er_row = m.probs[1 + m.departments.index("ER")]
    assert er_row[m.departments.index("ICU")] == pytest.approx(0.92)


# --- the experiment -------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_report_pair(default_scenario_dict):
    scenario = ScenarioConfig.from_dict(small_scenario_dict(default_scenario_dict))
    return scenario, run_experiment(scenario)


def test_experiment_splits_patients_completely(small_report_pair, default_scenario_dict):
    scenario, report = small_report_pair
    from patientflow.synthehr import generate

    oracle = generate(scenario.generator)
    assert report.n_train_patients + report.n_test_patients == len(oracle.profiles)
    assert report.split_time == pytest.approx(672.0)


def test_experiment_metrics_finite(small_report_pair):
    _, report = small_report_pair
    d = codec.document(report)
    for stack in (STACK_A, STACK_B):
        for metric in ("census_mae_mean", "los_ks", "cot_rel_err", "pathway_tv"):
            assert np.isfinite(d[metric][stack])
        for key in ("mae", "rmse", "mape_percent", "r"):
            assert np.isfinite(d["inflow_metrics"][stack][key])


def test_experiment_verdicts_derivable_from_numbers(small_report_pair):
    _, report = small_report_pair
    assert report.verdicts["census_mae"] == (
        report.census_mae_mean[STACK_B] <= report.census_mae_mean[STACK_A]
    )
    assert report.verdicts["inflow_mape"] == (
        report.inflow_metrics[STACK_B].mape_percent
        <= report.inflow_metrics[STACK_A].mape_percent
    )


def test_stack_a_fingerprint_is_shared_baseline_fitter(small_report_pair):
    # stack A is exactly the composition of the public baseline fitters
    scenario, report = small_report_pair
    from patientflow.synthehr import generate

    oracle = generate(scenario.generator)
    t_split = scenario.split_time
    train = admission_times(oracle.log) < t_split
    train_log = oracle.log.rows(train[oracle.log.patient])
    series = bucketize(train_log, scenario.bucket_width, 0.0, t_split)
    expected = model_fingerprint(codec.document(inflow.fit_poisson(series)))
    assert report.fingerprints[STACK_A]["inflow"] == expected


def test_experiment_report_byte_reproducible(small_report_pair, default_scenario_dict):
    scenario, report = small_report_pair
    again = run_experiment(ScenarioConfig.from_dict(
        small_scenario_dict(default_scenario_dict)))
    assert codec.document(again) == codec.document(report)


def test_experiment_writes_outputs(tmp_path, default_scenario_dict):
    scenario = ScenarioConfig.from_dict(small_scenario_dict(default_scenario_dict))
    report = run_experiment(scenario, out_dir=tmp_path)
    assert (tmp_path / "report.json").exists()
    written = json.loads((tmp_path / "report.json").read_text())
    assert written == codec.document(report)
    for name in ("inflow_forecasts.csv", "census_compare.csv", "los_hist.csv"):
        text = (tmp_path / name).read_text()
        assert len(text.splitlines()) > 2


def test_scenario_config_validation(default_scenario_dict):
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(
            small_scenario_dict(default_scenario_dict, split_fraction=1.5)
        )
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(
            small_scenario_dict(default_scenario_dict, los_estimator="forest")
        )


def test_tree_stack_variant_runs(default_scenario_dict):
    d = small_scenario_dict(default_scenario_dict, los_estimator="tree",
                            replications=1)
    report = run_experiment(ScenarioConfig.from_dict(d))
    assert np.isfinite(report.los_ks[STACK_B])


def test_sweep_variant_runs(default_scenario_dict):
    d = small_scenario_dict(default_scenario_dict, pathway_k="sweep",
                            replications=1)
    report = run_experiment(ScenarioConfig.from_dict(d))
    assert np.isfinite(report.pathway_tv[STACK_B])


@pytest.mark.parametrize("jobs", [1, 2])
def test_compare_lets_each_phase_die_before_the_next(monkeypatch, tmp_path,
                                                     default_scenario_dict, jobs):
    """When stack B's ``replicate`` is called, stack A's ``SimResult``s
    and the training ``EventLog`` that the trajectories were extracted from
    are dead; when the outputs are written, so are stack B's results."""
    real_extract = experiment.extract_trajectories
    real_replicate = experiment.replicate
    real_write = experiment._write_outputs
    training_logs = []  # weakrefs to each log passed to extract_trajectories
    results = []        # per replicate call, weakrefs to the results it returned
    alive = {}

    def extract(log, *args, **kwargs):
        training_logs.append(weakref.ref(log))
        return real_extract(log, *args, **kwargs)

    def replicate(*args, **kwargs):
        if results:
            alive["stack A results"] = sum(r() is not None for r in results[0])
            alive["training log"] = sum(r() is not None for r in training_logs)
        out = real_replicate(*args, **kwargs)
        results.append([weakref.ref(r) for r in out[0]])
        return out

    def write(*args, **kwargs):
        alive["stack B results"] = sum(r() is not None for r in results[1])
        return real_write(*args, **kwargs)

    monkeypatch.setattr(engine, "usable_cpus", lambda: 2)
    monkeypatch.setattr(experiment, "extract_trajectories", extract)
    monkeypatch.setattr(experiment, "replicate", replicate)
    monkeypatch.setattr(experiment, "_write_outputs", write)
    scenario = ScenarioConfig.from_dict(small_scenario_dict(default_scenario_dict, jobs=jobs))
    run_experiment(scenario, out_dir=tmp_path)
    assert [len(r) for r in results] == [2, 2]
    assert len(training_logs) == 1
    assert alive == {"stack A results": 0, "training log": 0, "stack B results": 0}
